"""Spectral probes for the discrete stability claims.

Everything here measures; nothing assumes.  The norms are built from
the element kernels of the assembly module.  The probes compute:

* extreme generalized eigenvalues of the pressure Schur complement
  and of its element blocks against the pressure mass, with the
  constant pressure deflated;
* coercivity and boundedness constants of the velocity form against
  the velocity pair norm, on the complement of the two constant fields
  (on one component: both are copies of one scalar form);
* per-cell divergence inf-sup constants (no deflation: the local
  bound covers constant pressures, since cell velocities carry no
  boundary condition);
* a facet-pressure inf-sup proxy against the cell-velocity DG norm;
* Rayleigh ratios of the condensed velocity form against a trace
  seminorm, over random facet fields lifted as stacks;
* pointwise divergence and interelement normal-flux checks of a
  computed velocity (exactly zero, up to roundoff, on triangles),
  with the basis tables evaluated on the shape classes of a chunk of
  cells at a time.

The pressure masses are diagonal (orthonormal modal bases, checked once
by assembly), and the probes read only that diagonal D (`cs.mass`,
`bs.mass`): every pressure pencil (S, M), the per-cell one of
`cell_infsup` included, is the standard symmetric problem
D^-1/2 S D^-1/2.  Only extreme eigenvalues are read, so the global
pencils are solved by plain Lanczos (`_lanczos_extremes` on the steps
of `krylov.lanczos`, Ritz values tested every `_LANCZOS_CHECK` steps)
on operators that are never formed: the
pressure Schur complement in its condensed form
Bbar Abar^-1 Bbar^T - C, with Bbar and C the pressure rows of K and
Abar^-1 one `amg.spd_lu` factorization of the scalar block
`Abar_scalar`, applied to both velocity components as a two-column
block (`schur_spectrum`);
the sparse facet block -C_ss (`element_block_spectrum`); the inverse
of the facet inf-sup matrix, whose largest eigenvalue is the
reciprocal of the wanted smallest one (`facet_infsup`); and the
pencil of `coercivity_bounds`, indefinite for a weak penalty, with the
per-cell forms of one velocity component scattered to sparse matrices
and the pair norm factored once by `spd_lu`.  Pencils that are block
diagonal by cell (-C_pp, and the pencils of `cell_infsup`) are solved
exactly, cell by cell, with batched dense eigensolvers.  One probe
compares matrices entrywise: `condensed_schur_identity` forms the
condensed form and the full B A^-1 B^T a block of pressure columns at
a time, the one place the full velocity matrix is factored.

The constant pressure is deflated from a Lanczos pencil with one
Householder reflector that maps the scaled constant onto the first
coordinate, which is then dropped (`_restricted`), so that the
iteration runs in the complement and the constant cannot come back
through roundoff.  The coercivity pencil drops one dof instead, the
constant mode of cell 0, by the rule of the coercivity guard of
`assembly.build_block_system`: both of its forms vanish on the
constant field, which is nonzero there, so any complement gives the
same eigenvalues.  Per-cell Schur pieces share the elimination of
`condense.cell_schur`.
"""

import numpy as np
import scipy.linalg as sla

from . import amg as _amg
from . import assembly as _assembly
from . import condense as _condense
from . import krylov as _krylov


# -- norm matrices ----------------------------------------------------

def _dg_schur(sp_, alpha, R):
    """Per-cell R N^-1 R^T for a stack R of rows acting on the cell
    velocity, with N the cell DG norm |grad v|^2_K + alpha/h |v|^2_dK,
    the cell block of the velocity pair norm."""
    L = _assembly.local_velocity_form(sp_, alpha, consistency=False)
    return _condense.cell_schur(L[:, :sp_.nb, :sp_.nb], R)[0]


def trace_seminorm_matrix(sp_):
    """Mean-deflated trace seminorm on facet velocities:
    sum_K h_K^-1 |vbar - m_K(vbar)|^2_dK with the boundary mean m_K."""
    mesh = sp_.mesh
    cf = mesh.cell_facets
    nbf, ns = sp_.nbf, sp_.nsides
    nc, m = mesh.num_cells, ns * nbf
    mass = _assembly.facet_mass(sp_, np.ones(mesh.num_facets))
    perim = mesh.facet_lengths[cf].sum(axis=1)

    loc = np.zeros((nc, m, m))
    for e in range(ns):
        loc[:, e * nbf:(e + 1) * nbf, e * nbf:(e + 1) * nbf] = mass[cf[:, e]]
    b = _assembly.facet_integrals(sp_)[cf].reshape(nc, m)
    loc -= b[:, :, None] * b[:, None, :] / perim[:, None, None]
    loc /= mesh.h[:, None, None]

    # one copy of the cell blocks per component
    rows = _assembly._dof_maps(sp_)["t"][cf].transpose(2, 0, 1, 3) \
        .reshape(2 * nc, m)
    return _assembly._scatter(rows, rows, np.concatenate([loc, loc]),
                              (sp_.n_ubar, sp_.n_ubar))


# -- pencil utilities -------------------------------------------------

# Lanczos accepts a requested Ritz value once its residual estimate is
# at most this fraction of the largest |Ritz value|, and gives up after
# this many steps.  On the default verify ladder (triangles, k = 2,
# 4x4, 8x8, 16x16) the probes take: Schur 200, 264, 368 steps; facet
# block -C_ss 72, 152, 280; facet inf-sup 32, 48, 88; coercivity 176
# and 416 (4x4 and 8x8 only) and 184 at alpha = 0.01 on 4x4.  With no
# stored basis the cap bounds time only; it leaves room for the
# alpha = 0.01 probe on a larger verify base: 1296 steps on 16x16, 2688
# on 32x32.  The Ritz values are checked every _LANCZOS_CHECK steps
# (and at step n and the last step), since each check costs two
# tridiagonal eigensolves, dearer than a step of the cheaper probes.
_LANCZOS_TOL = 1e-12
_LANCZOS_MAX_STEPS = 4000
_LANCZOS_CHECK = 8

# trace_form_ratios lifts its random fields this many at a time: on the
# 16x16 verify level, stacks of 10 take 0.07-0.09 s for 50 fields (0.26
# s one at a time) and hold about 8 MiB; stacks of 25 are no faster,
# and stacks of 50 raise the peak resident set of verify by 12 MiB
_TRACE_BLOCK = 10

# condensed_schur_identity forms its difference this many pressure
# columns at a time: on a 16x16 base (3,936 pressure unknowns, 2 vCPU)
# the probe then traces 17 MiB and takes 6.7 s, against 778 MiB and
# 9.7 s with every column at once
_IDENTITY_BLOCK = 64


def _lanczos_extremes(op, n, ends=(0, -1), solve=None):
    """Extreme eigenvalues of a symmetric operator op on R^n, or of the
    pencil (op, N) when `solve` applies N^-1 for an SPD N.

    The steps of `krylov.lanczos` from a fixed-seed start vector, so
    the same operator gives the same values bit for bit.  `ends` index
    the ascending Ritz values (0 the smallest, -1 the largest); they
    are returned in that order.  With T_j = S diag(theta) S^T the
    j-step tridiagonal and b_j the norm of the next residual, the Ritz
    value theta_i is accepted when b_j |S_ji| <= _LANCZOS_TOL max |theta|;
    the scale is not |theta_i|, so that an eigenvalue 0 converges too.
    The test runs every _LANCZOS_CHECK steps, at step n, at the cap and
    when the residual vanishes (beta <= 0, which counts as 0); the cap
    is _LANCZOS_MAX_STEPS whatever n is, since the recurrence may need
    more than n steps.
    RuntimeError after _LANCZOS_MAX_STEPS steps."""
    r = np.random.default_rng(0).standard_normal(n)
    a, b = [], []
    steps = _krylov.lanczos(op, r, solve)
    for j, (alfa, beta, _, _) in zip(range(_LANCZOS_MAX_STEPS), steps):
        beta = max(beta, 0.0)
        a.append(alfa)
        b.append(beta)
        if ((j + 1) % _LANCZOS_CHECK == 0 or j + 1 in (n, _LANCZOS_MAX_STEPS)
                or not beta):
            want = [e % (j + 1) for e in ends]
            ritz = {}
            for i in {0, j, *want}:
                theta, s = sla.eigh_tridiagonal(a, b[:-1], select="i",
                                                select_range=(i, i))
                ritz[i] = theta[0], beta * abs(s[-1, 0])
            scale = max(abs(ritz[0][0]), abs(ritz[j][0]))
            if all(ritz[i][1] <= _LANCZOS_TOL * scale for i in want):
                return [ritz[i][0] for i in want]
    raise RuntimeError("Lanczos did not converge in %d steps"
                       % _LANCZOS_MAX_STEPS)


def _restricted(op, v):
    """op restricted to the complement of v, as an operator on
    R^(n-1): the reflector P = I - 2 w w^T with P v = -+|v| e_1 maps
    {y : v^T y = 0} onto the trailing coordinates, and the iteration
    runs in the orthonormal basis P e_2, ..., P e_n, with P applied to
    vectors.  Iterating there keeps v out exactly, where projecting it
    out of each product lets roundoff bring it back."""
    w = v / np.linalg.norm(v)
    w[0] += np.copysign(1.0, w[0])
    w /= np.linalg.norm(w)

    def reflect(x):
        return x - 2.0 * (w @ x) * w
    return lambda y: reflect(op(reflect(np.concatenate(([0.0], y)))))[1:]


def _mass_pencil_extremes(apply, d, c=None):
    """(lmin, lmax) of the pencil (S, D) for the diagonal mass
    D = diag(d), on the D-orthogonal complement of c when c is given;
    `apply` is the product x -> S x.

    The pencil is the standard problem H = D^-1/2 S D^-1/2, and the
    constraint c^T D x = 0 reads v^T y = 0 for y = D^1/2 x,
    v = D^1/2 c, which `_restricted` removes."""
    s = 1.0 / np.sqrt(d)
    op = lambda x: s * apply(s * x)
    n = len(s)
    if c is not None:
        op, n = _restricted(op, c / s), n - 1
    lo, hi = _lanczos_extremes(op, n)
    return float(lo), float(hi)


def _pressure_rows(cs):
    """(Bbar, C): the pressure rows (p, s) of K, split at the last
    facet-velocity column."""
    nt = cs.n_t
    return cs.K[nt:, :nt], cs.K[nt:, nt:]


# -- probes -----------------------------------------------------------

def schur_spectrum(cs):
    """Extreme generalized eigenvalues of the pressure Schur complement
    against the pressure mass (diagonal `cs.mass`), with the constant
    pressure deflated; returns (lmin, lmax).

    The complement is applied in its condensed form
    Bbar Abar^-1 Bbar^T - C, the same matrix as B A^-1 B^T
    (`condensed_schur_identity` measures the difference).  Abar^-1 is
    one `spd_lu` factorization of `cs.Abar_scalar`, applied to both
    velocity components as one two-column block."""
    Bbar, C = _pressure_rows(cs)
    BbarT = Bbar.T.tocsr()
    solve = _amg.spd_lu(cs.Abar_scalar).solve

    def apply(x):
        y = solve((BbarT @ x).reshape(2, -1).T).T.ravel()
        return Bbar @ y - C @ x
    return _mass_pencil_extremes(apply, cs.mass,
                                 cs.spaces.constant_pressure)


def element_block_spectrum(cs):
    """Extreme generalized eigenvalues of (bdiag(-C_pp, -C_ss), M).

    The element-matrix preconditioner blocks are the cell and facet
    pressure Schur pieces B_pu A_uu^-1 B_pu^T and B_su A_uu^-1 B_su^T;
    both are positive definite (divergence maps onto the cell pressure
    space and the facet normal-flux coupling has trivial kernel), so
    nothing is deflated and the block-diagonal pencil reduces to the
    envelope of the two sub-pencils.  -C_pp couples only the pressures
    of one cell, so its pencil is solved cell by cell, exactly, on the
    cell blocks `cs.pressure_blocks`; the facet one by Lanczos."""
    C_ss = cs.block("s", "s")
    P = cs.pressure_blocks
    s = 1.0 / np.sqrt(cs.mass[:cs.n_p]).reshape(P.shape[:2])
    wp = np.linalg.eigvalsh(P * s[:, :, None] * s[:, None, :])
    lo, hi = _mass_pencil_extremes((-C_ss).__matmul__, cs.mass[cs.n_p:])
    return float(min(wp[:, 0].min(), lo)), float(max(wp[:, -1].max(), hi))


def condensed_schur_identity(bs, cs):
    """Max-norm residual of the algebraic identity
    Bbar Abar^-1 Bbar^T - C = B A^-1 B^T, with Bbar and C the
    pressure rows of K.

    A and Abar are factored once each by `spd_lu`; the difference of
    the two sides is formed `_IDENTITY_BLOCK` pressure columns at a
    time, so no dense complement or dense right-hand side of every
    pressure unknown is held."""
    B = bs.divergence_matrix().tocsr()
    Bbar, C = _pressure_rows(cs)
    BT, BbarT, C = B.T.tocsc(), Bbar.T.tocsc(), C.tocsc()
    full = _amg.spd_lu(bs.velocity_matrix()).solve
    cond = _amg.spd_lu(cs.Abar).solve
    res = 0.0
    for j in range(0, B.shape[0], _IDENTITY_BLOCK):
        J = slice(j, j + _IDENTITY_BLOCK)
        D = (B @ full(BT[:, J].toarray())
             - Bbar @ cond(BbarT[:, J].toarray()) + C[:, J].toarray())
        res = max(res, float(np.abs(D).max()))
    return res


def coercivity_bounds(sp_, alpha):
    """Extreme eigenvalues of the velocity form against the pair norm,
    on the complement of the two constant fields, measured on one
    velocity component.

    The claim is about the bilinear form itself, so no boundary
    condition enters: both matrices are scattered from the per-cell
    forms of `assembly.local_velocity_form` (the pair norm is the form
    without its consistency terms), cell dof c nb + i, then facet dof
    nc nb + f nbf + j.  Both forms vanish on the constant field, so
    every complement of it gives the same eigenvalues: the one taken
    drops dof 0, the constant mode of cell 0, where the field is never
    zero, which leaves the norm positive definite.  The pencil,
    indefinite for a weak penalty, is solved by Lanczos with one
    `spd_lu` factorization of the reduced norm.  Returns
    (c_lower, c_upper); a nonpositive lower value flags a coercivity
    failure."""
    mesh = sp_.mesh
    nc, nb, nbf = mesh.num_cells, sp_.nb, sp_.nbf
    n = nc * nb + mesh.num_facets * nbf
    dofs = np.concatenate(
        [np.arange(nc * nb).reshape(nc, nb),
         (nc * nb + mesh.cell_facets[:, :, None] * nbf
          + np.arange(nbf)).reshape(nc, -1)], axis=1)
    A, N = (_assembly._scatter(
        dofs, dofs, _assembly.local_velocity_form(sp_, alpha, consistency),
        (n, n))[1:, 1:] for consistency in (True, False))
    lo, hi = _lanczos_extremes(A.__matmul__, n - 1,
                               solve=_amg.spd_lu(N).solve)
    return float(lo), float(hi)


def cell_infsup(bs):
    """Per-cell inf-sup constants of the divergence coupling against
    the cell DG norm: sqrt of the smallest eigenvalue of each cell's
    (B_pu N_dg^-1 B_pu^T, M_p); one beta per cell (no deflation)."""
    rows, Bp = bs.local_block("p")
    G = _dg_schur(bs.spaces, bs.alpha, Bp)
    s = 1.0 / np.sqrt(bs.mass[rows])    # cell pressures lead bs.mass
    G *= s[:, :, None]
    G *= s[:, None, :]
    w = np.linalg.eigvalsh(G)
    return np.sqrt(np.maximum(w[:, 0], 0.0))


def facet_infsup(bs):
    """Inf-sup proxy of the facet-pressure rows against the cell DG
    norm: sqrt of the smallest eigenvalue of
    (B_su N_dg^-1 B_su^T, M_s), the reciprocal of the largest one of
    the inverse pencil, which Lanczos finds quickly."""
    sp_ = bs.spaces
    rows, Bs = bs.local_block("s")
    G = _dg_schur(sp_, bs.alpha, Bs)
    Gs = _assembly._scatter(rows, rows, G, (sp_.n_pbar, sp_.n_pbar))
    d = np.sqrt(bs.mass[sp_.n_p:])
    solve = _amg.spd_lu(Gs).solve
    (top,) = _lanczos_extremes(lambda x: d * solve(d * x), len(d),
                               ends=(-1,))
    return float(np.sqrt(max(1.0 / top, 0.0)))


def trace_form_ratios(cs, n_samples=50, seed=3):
    """Rayleigh ratios of the condensed velocity form (variational
    route: lift, then evaluate the form, with the penalty `cs.alpha`,
    by quadrature) against the
    mean-deflated trace seminorm, over random facet fields vanishing
    on the boundary.  The fields are lifted and evaluated as stacks of
    _TRACE_BLOCK."""
    sp_ = cs.spaces
    Nh = trace_seminorm_matrix(sp_)
    rng = np.random.default_rng(seed)
    interior = ~sp_.mesh.boundary_mask
    ratios = []
    for start in range(0, n_samples, _TRACE_BLOCK):
        W = np.zeros((min(_TRACE_BLOCK, n_samples - start), sp_.n_ubar))
        # drawn facet by facet, whatever the order of the dofs
        sp_.facet_velocity_coeffs(W)[:, interior] = rng.standard_normal(
            (len(W), interior.sum(), 2, sp_.nbf))
        num = _condense.trace_form_value(cs, W, W)
        den = np.einsum("mi,im->m", W, Nh @ W.T)
        ratios.append(num / den)
    return np.concatenate(ratios)


def field_checks(sp_, u):
    """Pointwise divergence and interelement normal-flux jump maxima
    of a cell velocity, plus the velocity scale for normalization.

    The maxima are taken over the cell quadrature points of
    `quadrature.cell_rule` and the facet points of `facet_rule`.  On
    triangles both vanish to roundoff for a converged solution: the
    divergence of a P_k velocity lies in the pressure space and the
    normal trace jump in the facet pressure space.  On physical
    quadrilaterals neither containment holds, so only smallness, not
    exactness, can be expected, and the divergence maximum depends on
    where the cell rule puts its points.  The basis tables are
    evaluated on the first cell of each shape class of a chunk of cells
    (`CellChunk.shapes`, shared by consecutive chunks of the same
    classes) and gathered to the chunk's cells, where they meet the
    velocity coefficients of each cell; the maxima (NaN whenever a
    value is) do not depend on the order they are taken in."""
    mesh = sp_.mesh
    div = scale = 0.0
    jump = np.zeros((mesh.num_facets, sp_.facet_qp.shape[1]))
    for ch in sp_.chunks():
        g = ch.velocity_grad(u)
        div = np.maximum(div, np.abs(g[..., 0, 0] + g[..., 1, 1]).max())
        vals = ch.velocity(u)
        scale = np.maximum(scale, np.sqrt((vals ** 2).sum(-1)).max())
        # each facet sums at most two cell contributions, in either
        # order alike, so the jump does not depend on the chunks
        for e in range(sp_.nsides):
            f = mesh.cell_facets[ch.cells, e]
            vn = np.einsum("cqd,cd->cq", ch.velocity_trace(u, e),
                           mesh.facet_normals[f], optimize=True)
            np.add.at(jump, f, mesh.cell_facet_sign[ch.cells, e, None] * vn)
    interior = ~mesh.boundary_mask
    return {
        "max_divergence": float(div),
        "max_normal_jump": float(np.abs(jump[interior]).max())
        if interior.any() else 0.0,
        "velocity_scale": float(scale),
    }

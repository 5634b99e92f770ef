"""Spectral probes for the discrete stability claims.

Everything here measures; nothing assumes.  The norms are built from
the element kernels of the assembly module.  The probes compute:

* extreme generalized eigenvalues of the pressure Schur complement
  and of its element blocks against the pressure mass, with the
  constant pressure deflated;
* coercivity and boundedness constants of the velocity form against
  the velocity pair norm, with the two constant fields deflated (on
  one component: both are copies of one scalar form);
* per-cell divergence inf-sup constants (no deflation: the local
  bound covers constant pressures, since cell velocities carry no
  boundary condition);
* a facet-pressure inf-sup proxy against the cell-velocity DG norm;
* Rayleigh ratios of the condensed velocity form against a trace
  seminorm, over random facet fields lifted as stacks;
* pointwise divergence and interelement normal-flux checks of a
  computed velocity (exactly zero, up to roundoff, on triangles).

The pressure masses are diagonal (orthonormal modal bases, checked once
by assembly), and the probes read only that diagonal D (`cs.mass`,
`bs.mass`): every pressure pencil (S, M), the per-cell one of
`cell_infsup` included, is the standard symmetric problem
D^-1/2 S D^-1/2.  Only extreme eigenvalues are read, so the global
pressure pencils are solved by Lanczos
(`_lanczos_extremes`, which tests its Ritz values every
`_LANCZOS_CHECK` steps) on operators that are never formed: the
pressure Schur complement in its condensed form
Bbar Abar^-1 Bbar^T - C, with Bbar and C the pressure rows of K and
Abar^-1 one `amg.spd_lu` factorization of the scalar block
`Abar_scalar` applied to both velocity components as a two-column
block (`schur_spectrum`); the sparse facet block -C_ss
(`element_block_spectrum`); and the inverse of the facet inf-sup
matrix, whose largest eigenvalue is the reciprocal of the wanted
smallest one (`facet_infsup`).  Pencils that are block diagonal by
cell (-C_pp, and the pencils of `cell_infsup`) are solved exactly,
cell by cell, with batched dense eigensolvers.  Two probes stay
dense, on small meshes only: `coercivity_bounds`, whose pencil is
indefinite for a weak penalty, scatters the per-cell forms of one
velocity component; `condensed_schur_identity` compares the condensed
form entrywise with the full B A^-1 B^T, the one place the full
velocity matrix is factored.

A constant mode is deflated with one Householder reflector that maps
it onto the first coordinate, which is then dropped: applied to
vectors for the scaled constant pressure of a Lanczos pencil
(`_restricted`), so that the iteration runs in the complement and the
constant cannot come back through roundoff; applied to both dense
matrices of the coercivity pencil (`_deflate`).  Per-cell Schur pieces
share the elimination of `condense.cell_schur`.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import amg as _amg
from . import assembly as _assembly
from . import condense as _condense
from . import krylov as _krylov
from . import spaces as _spaces


# -- norm matrices ----------------------------------------------------

def _dg_schur(sp_, alpha, R):
    """Per-cell R N^-1 R^T for a stack R of rows acting on the cell
    velocity, with N the cell DG norm |grad v|^2_K + alpha/h |v|^2_dK,
    the cell block of the velocity pair norm."""
    L, _ = _assembly.local_velocity_form(sp_, alpha, consistency=False)
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
                              (sp_.n_ubar, sp_.n_ubar), keep_zeros=False)


# -- pencil utilities -------------------------------------------------

# Lanczos accepts a requested Ritz value once its residual estimate is
# at most this fraction of the largest |Ritz value|, and gives up after
# this many steps; the pressure pencils of the 16x16 verify level take
# at most 400.  The Ritz values are checked every _LANCZOS_CHECK steps
# (and at the last step), since each check costs two tridiagonal
# eigensolves, dearer than a step of the cheaper probes.
_LANCZOS_TOL = 1e-12
_LANCZOS_MAX_STEPS = 1000
_LANCZOS_CHECK = 8

# trace_form_ratios lifts its random fields this many at a time: on the
# 16x16 verify level, stacks of 10 take 0.07-0.09 s for 50 fields (0.26
# s one at a time) and hold about 8 MiB; stacks of 25 are no faster,
# and stacks of 50 raise the peak resident set of verify by 12 MiB
_TRACE_BLOCK = 10


def _lanczos_extremes(op, n, ends=(0, -1)):
    """Extreme eigenvalues of a symmetric operator op on R^n.

    Lanczos from a fixed-seed start vector, with full
    reorthogonalization (`krylov.orthogonalize`: two classical
    Gram-Schmidt passes per step), so the same operator gives the same
    values bit for bit.  `ends` index the ascending Ritz values (0 the
    smallest, -1 the largest); they are returned in that order.  With
    T_j = S diag(theta) S^T the j-step tridiagonal and b_j the norm of
    the next residual, the Ritz value theta_i is accepted when
    b_j |S_ji| <= _LANCZOS_TOL max |theta|; the scale is not |theta_i|,
    so that an eigenvalue 0 converges too.  The test runs every
    _LANCZOS_CHECK steps, at the last step (n, or the cap) and when the
    residual vanishes.  RuntimeError after _LANCZOS_MAX_STEPS steps."""
    q = np.random.default_rng(0).standard_normal(n)
    q /= np.linalg.norm(q)
    Q = np.empty((min(n, _LANCZOS_MAX_STEPS), n))
    a, b = [], []
    for j in range(len(Q)):
        Q[j] = q
        r = op(q)
        a.append(q @ r)
        _krylov.orthogonalize(Q[:j + 1], r)
        b.append(np.linalg.norm(r))
        if (j + 1) % _LANCZOS_CHECK == 0 or j + 1 == len(Q) or not b[-1]:
            want = [e % (j + 1) for e in ends]
            ritz = {}
            for i in {0, j, *want}:
                theta, s = sla.eigh_tridiagonal(a, b[:-1], select="i",
                                                select_range=(i, i))
                ritz[i] = theta[0], b[-1] * abs(s[-1, 0])
            scale = max(abs(ritz[0][0]), abs(ritz[j][0]))
            if all(ritz[i][1] <= _LANCZOS_TOL * scale for i in want):
                return [ritz[i][0] for i in want]
        q = r / b[-1]
    raise RuntimeError("Lanczos did not converge in %d steps" % len(Q))


def _householder(v):
    """Unit w with (I - 2 w w^T) v = -+|v| e_1."""
    w = v / np.linalg.norm(v)
    w[0] += np.copysign(1.0, w[0])
    return w / np.linalg.norm(w)


def _restricted(op, v):
    """op restricted to the complement of v, as an operator on
    R^(n-1): the coordinates in the basis P e_2, ..., P e_n of
    `_deflate`, with the reflector P applied to vectors.  Iterating
    there keeps v out exactly, where projecting it out of each product
    lets roundoff bring it back."""
    w = _householder(v)

    def reflect(x):
        return x - 2.0 * (w @ x) * w
    return lambda y: reflect(op(reflect(np.concatenate(([0.0], y)))))[1:]


def _deflate(S, v):
    """S restricted to the complement of v, in S's own buffer.

    S is symmetric and C-contiguous; it is overwritten.  The
    Householder reflector P = I - 2 w w^T with P v = -+|v| e_1 maps
    {y : v^T y = 0} onto the trailing coordinates, so the restriction
    is (P S P)[1:, 1:] in the orthonormal basis P e_2, ..., P e_n.
    Returned as a Fortran-ordered view whose lower triangle holds it:
    the rank-2 update is BLAS `syr2` on that triangle, the block is
    moved to the front of S's buffer, and LAPACK reads the view
    without a copy."""
    w = _householder(v)
    u = S @ w
    z = 2.0 * u - 2.0 * (w @ u) * w
    # P S P = S - w z^T - z w^T, on the lower triangle of S^T
    S = sla.blas.dsyr2(-1.0, w, z, lower=1, a=S.T, overwrite_a=1).T
    n = S.shape[0] - 1
    flat = S.reshape(-1)
    # row i of S[1:, 1:] moves to flat[i*n:(i+1)*n], which ends before
    # its own source and before every later one starts
    for i in range(n):
        flat[i * n:(i + 1) * n] = flat[(i + 1) * (n + 1) + 1:
                                       (i + 2) * (n + 1)]
    return flat[:n * n].reshape(n, n).T


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


def _schur_dense(A, B):
    """B A^-1 B^T with the `spd_lu` factorization of A, dense and
    symmetrized."""
    S = B @ _amg.spd_lu(A).solve(B.T.toarray())
    return 0.5 * (S + S.T)


def _pressure_rows(cs):
    """(Bbar, C): the pressure rows (p, s) of K, split at the last
    facet-velocity column."""
    nt = cs.n_t
    return cs.K[nt:, :nt], cs.K[nt:, nt:]


# -- probes -----------------------------------------------------------

def schur_spectrum(cs, deflate=True):
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
    c = _spaces.constant_pressure_vector(cs.spaces) if deflate else None
    return _mass_pencil_extremes(apply, cs.mass, c)


def element_block_spectrum(cs, deflate=False):
    """Extreme generalized eigenvalues of (bdiag(-C_pp, -C_ss), M).

    The element-matrix preconditioner blocks are the cell and facet
    pressure Schur pieces B_pu A_uu^-1 B_pu^T and B_su A_uu^-1 B_su^T;
    both are positive definite (divergence maps onto the cell pressure
    space and the facet normal-flux coupling has trivial kernel), so
    by default nothing is deflated and the block-diagonal pencil
    reduces to the envelope of the two sub-pencils.  -C_pp couples
    only the pressures of one cell, so its pencil is solved cell by
    cell, exactly; the facet one by Lanczos.  With deflate=True the
    joint constant-pressure direction is removed first, matching the
    protocol used for the full Schur pencil; that couples the blocks,
    so the restricted pencil is solved as one problem."""
    C_pp, C_ss = cs.block("p", "p"), cs.block("s", "s")
    if deflate:
        C = sp.block_diag([-C_pp, -C_ss], format="csr")
        return _mass_pencil_extremes(C.__matmul__, cs.mass,
                                     _spaces.constant_pressure_vector(
                                         cs.spaces))
    s = 1.0 / np.sqrt(cs.mass[:cs.n_p])
    npc = cs.spaces.np_cell
    C = C_pp.tocoo()
    cell = C.row // npc
    if np.any(C.col // npc != cell):
        raise ValueError("C_pp couples the pressures of two cells")
    G = np.zeros((cs.n_p // npc, npc, npc))
    G[cell, C.row % npc, C.col % npc] = -C.data * s[C.row] * s[C.col]
    wp = np.linalg.eigvalsh(G)
    lo, hi = _mass_pencil_extremes((-C_ss).__matmul__, cs.mass[cs.n_p:])
    return float(min(wp[:, 0].min(), lo)), float(max(wp[:, -1].max(), hi))


def condensed_schur_identity(bs, cs):
    """Max-norm residual of the algebraic identity
    Bbar Abar^-1 Bbar^T - C = B A^-1 B^T, with Bbar and C the
    pressure rows of K."""
    S_full = _schur_dense(bs.velocity_matrix(),
                          bs.divergence_matrix().tocsr())
    Bbar, C = _pressure_rows(cs)
    S_cond = _schur_dense(cs.Abar, Bbar) - C.toarray()
    return float(np.abs(S_full - S_cond).max())


def coercivity_bounds(sp_, alpha):
    """Extreme eigenvalues of the velocity form against the pair norm,
    on the complement of the two constant fields, measured on one
    velocity component with its constant deflated from both matrices.

    The claim is about the bilinear form itself, so no boundary
    condition enters: both matrices are scattered from the per-cell
    forms of `assembly.local_velocity_form` (the pair norm is the form
    without its consistency terms), cell dof c nb + i, then facet dof
    nc nb + f nbf + j, and so is the constant field.  Returns
    (c_lower, c_upper); a nonpositive lower value flags a coercivity
    failure."""
    mesh = sp_.mesh
    nc, nb, nbf = mesh.num_cells, sp_.nb, sp_.nbf
    n = nc * nb + mesh.num_facets * nbf
    dofs = np.concatenate(
        [np.arange(nc * nb).reshape(nc, nb),
         (nc * nb + mesh.cell_facets[:, :, None] * nbf
          + np.arange(nbf)).reshape(nc, -1)], axis=1)

    def dense(consistency):
        L, c = _assembly.local_velocity_form(sp_, alpha, consistency)
        return _assembly._scatter(dofs, dofs, L, (n, n)).toarray(), c
    (A, c), (N, _) = dense(True), dense(False)
    const = np.zeros(n)
    const[dofs] = c
    # LAPACK's plain QR driver "gv": on the 8x8 level (n = 1391) it
    # takes 0.25 s against 0.33 s for the default divide and conquer,
    # and two one-value subsets (the two ends) take 0.45 s
    w = sla.eigh(_deflate(A, const), _deflate(N, const), lower=True,
                 eigvals_only=True, overwrite_a=True, overwrite_b=True,
                 check_finite=False, driver="gv")
    return float(w[0]), float(w[-1])


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

    On triangles both maxima vanish to roundoff for a converged
    solution: the divergence of a P_k velocity lies in the pressure
    space and the normal trace jump in the facet pressure space.  On
    physical quadrilaterals neither containment holds, so only
    smallness, not exactness, can be expected."""
    g = sp_.velocity_grad_at_cell_qp(u)
    div = g[..., 0, 0] + g[..., 1, 1]
    vals = sp_.velocity_at_cell_qp(u)
    scale = float(np.sqrt((vals ** 2).sum(-1)).max())

    mesh = sp_.mesh
    jump = np.zeros((mesh.num_facets, sp_.facet_qp.shape[1]))
    for e in range(sp_.nsides):
        f = mesh.cell_facets[:, e]
        tr = sp_.velocity_trace_at_facet_qp(u, e)
        vn = np.einsum("cqd,cd->cq", tr, mesh.facet_normals[f],
                       optimize=True)
        np.add.at(jump, f, mesh.cell_facet_sign[:, e, None] * vn)
    interior = ~mesh.boundary_mask
    return {
        "max_divergence": float(np.abs(div).max()),
        "max_normal_jump": float(np.abs(jump[interior]).max())
        if interior.any() else 0.0,
        "velocity_scale": scale,
    }

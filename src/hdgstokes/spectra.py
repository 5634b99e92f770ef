"""Spectral probes for the discrete stability claims.

Everything here measures; nothing assumes.  The probes compute, with
dense eigensolvers on desk-scale meshes:

* extreme generalized eigenvalues of the pressure Schur complement
  against the pressure mass, full and condensed, with the constant
  pressure deflated;
* coercivity and boundedness constants of the velocity form against
  the velocity pair norm, with the two constant fields deflated (on
  one component: both are copies of one scalar form);
* per-cell divergence inf-sup constants (no deflation: the local
  bound covers constant pressures, since cell velocities carry no
  boundary condition);
* a facet-pressure inf-sup proxy against the cell-velocity DG norm;
* pointwise divergence and interelement normal-flux checks of a
  computed velocity (exactly zero, up to roundoff, on triangles).

The norms are built from the element kernels of the assembly module.

The pressure masses are diagonal (orthonormal modal bases, checked by
`assembly.mass_diagonal`), so every pressure pencil (S, M) is solved
as the standard symmetric problem D^-1/2 S D^-1/2 with D = diag(M).
The constant pressure is deflated with one Householder reflector that
maps the scaled constant onto the first coordinate, whose row and
column are then dropped.  Schur complements B A^-1 B^T are formed
densely from the `amg.spd_lu` factorization of A.  The coercivity
pencil, whose pair norm is not diagonal, is restricted to the
subspace orthogonal to the constant fields by eliminating one
coordinate per constraint; restricted eigenvalues do not depend on
that choice.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import amg as _amg
from . import assembly as _assembly
from . import spaces as _spaces


# -- norm matrices ----------------------------------------------------

def velocity_pair_norm_matrix(sp_, alpha):
    """Norm of the (cell, facet) velocity pair:
    sum_K |grad v|^2 + alpha/h |vbar - v|^2_dK, the velocity form
    without its consistency terms."""
    return _assembly.velocity_blocks(sp_, alpha,
                                     consistency=False).velocity_matrix()


def _dg_schur(sp_, alpha, R):
    """Per-cell R N^-1 R^T for a stack R of rows acting on the cell
    velocity, with N the cell DG norm |grad v|^2_K + alpha/h |v|^2_dK."""
    N = _assembly.both_components(_assembly.scalar_stiffness(sp_)
                                  + _assembly.scalar_dg_penalty(sp_, alpha))
    W = np.linalg.solve(np.linalg.cholesky(N), R.transpose(0, 2, 1))
    return np.einsum("cnm,cnk->cmk", W, W, optimize=True)


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

    dm = _assembly._dof_maps(sp_)
    out = sp.csr_matrix((sp_.n_ubar, sp_.n_ubar))
    for key in ("t0", "t1"):
        rows = dm[key][cf].reshape(nc, m)
        out = out + _assembly._scatter(rows, rows, loc,
                                       (sp_.n_ubar, sp_.n_ubar))
    return out


# -- pencil utilities -------------------------------------------------

def _restricted_pencil(S, M, constraints):
    """Project the pencil (S, M) onto {x : constraints^T x = 0}.

    The subspace is parameterized by eliminating one well-conditioned
    coordinate per constraint; eigenvalues of the restricted pencil do
    not depend on the parameterization.
    """
    C = np.atleast_2d(np.asarray(constraints, dtype=float))
    if C.shape[0] == S.shape[0]:
        C = C.T                          # (k, n)
    k, n = C.shape
    _, _, piv = sla.qr(C, pivoting=True)
    pivots = np.sort(piv[:k])
    free = np.setdiff1d(np.arange(n), pivots)
    # x_piv = Z x_free with Z = -C_piv^-1 C_free
    Z = -np.linalg.solve(C[:, pivots], C[:, free])   # (k, nfree)

    def restrict(A):
        A = np.asarray(A)
        AFF = A[np.ix_(free, free)]
        AFP = A[np.ix_(free, pivots)]
        APP = A[np.ix_(pivots, pivots)]
        return AFF + AFP @ Z + Z.T @ AFP.T + Z.T @ APP @ Z

    return restrict(S), restrict(M)


def _mass_pencil_eigvals(S, M, c=None, subset=None):
    """Eigenvalues of the pencil (S, M) for a diagonal mass M, on the
    M-orthogonal complement of c when c is given.  S is symmetric; it
    is overwritten.

    With D = diag(M) the pencil is the standard problem
    H = D^-1/2 S D^-1/2, and the constraint c^T M x = 0 reads
    v^T y = 0 for y = D^1/2 x, v = D^1/2 c.  The Householder reflector
    P = I - 2 w w^T with P v = -+e_1 maps that complement onto the
    trailing coordinates, so the restricted spectrum is that of
    (P H P)[1:, 1:].

    For a C-contiguous S no second dense copy is made: the rank-2
    update is BLAS `syr2` on the triangle `eigvalsh` reads,
    (P H P)[1:, 1:] is moved to the front of S's buffer, and LAPACK
    gets the transpose, a Fortran view of that buffer, which it does
    not copy (H is symmetric)."""
    d = _assembly.mass_diagonal(M, "pressure mass")
    s = 1.0 / np.sqrt(d)
    S *= s[:, None]
    S *= s
    if c is not None:
        w = c / s
        w /= np.linalg.norm(w)
        w[0] += np.copysign(1.0, w[0])
        w /= np.linalg.norm(w)
        u = S @ w
        z = 2.0 * u - 2.0 * (w @ u) * w
        # P H P = H - w z^T - z w^T, on the lower triangle of S^T
        S = sla.blas.dsyr2(-1.0, w, z, lower=1, a=S.T, overwrite_a=1).T
        n = S.shape[0] - 1
        flat = S.reshape(-1)
        # row i of S[1:, 1:] moves to flat[i*n:(i+1)*n], which ends
        # before its own source and before every later one starts
        for i in range(n):
            flat[i * n:(i + 1) * n] = flat[(i + 1) * (n + 1) + 1:
                                           (i + 2) * (n + 1)]
        S = flat[:n * n].reshape(n, n)
    return sla.eigvalsh(S.T, lower=True, overwrite_a=True,
                        check_finite=False, subset_by_index=subset)


def _dense(A):
    return A.toarray() if sp.issparse(A) else np.asarray(A)


def _schur_dense(A, B):
    """B A^-1 B^T with the `spd_lu` factorization of A, dense result."""
    lu = _amg.spd_lu(A)
    m = B.shape[0]
    S = np.empty((m, m))
    # 32 right-hand sides per solve: on the 10,944-dof velocity matrix
    # of 16x16 triangles at k = 2 (2 vCPU) that costs about 1.0 ms per
    # column, against 1.5 ms with 512-column blocks
    step = 32
    for j in range(0, m, step):
        cols = B[j:j + step].toarray().T
        S[:, j:j + step] = B @ lu.solve(cols)
    _symmetrize(S)
    return S


def _symmetrize(S):
    """S <- (S + S^T) / 2 in place, one pair of 256 x 256 blocks at a
    time, so no full-size temporary is held."""
    n, step = S.shape[0], 256
    for i in range(0, n, step):
        for j in range(i, n, step):
            upper = S[i:i + step, j:j + step]
            lower = S[j:j + step, i:i + step]
            avg = 0.5 * (upper + lower.T)
            upper[...] = avg
            lower[...] = avg.T


# -- probes -----------------------------------------------------------

def schur_spectrum(bs, deflate=True):
    """Extreme generalized eigenvalues of (B A^-1 B^T, M) with the
    constant pressure deflated; returns (lmin, lmax)."""
    A = bs.velocity_matrix()
    B = bs.divergence_matrix().tocsr()
    c = _spaces.constant_pressure_vector(bs.spaces) if deflate else None
    w = _mass_pencil_eigvals(_schur_dense(A, B), bs.pressure_mass(), c)
    return float(w[0]), float(w[-1])


def element_block_spectrum(cs, M_p, M_s, deflate=False):
    """Extreme generalized eigenvalues of (bdiag(-C_pp, -C_ss), M).

    The element-matrix preconditioner blocks are the cell and facet
    pressure Schur pieces B_pu A_uu^-1 B_pu^T and B_su A_uu^-1 B_su^T;
    both are positive definite (divergence maps onto the cell pressure
    space and the facet normal-flux coupling has trivial kernel), so
    by default nothing is deflated and the block-diagonal pencil
    reduces to the envelope of the two sub-pencils.  With deflate=True
    the joint constant-pressure direction is removed first, matching
    the protocol used for the full Schur pencil; that couples the
    blocks, so the restricted pencil is solved as one problem."""
    if deflate:
        C = sla.block_diag(_dense(-cs.C_pp), _dense(-cs.C_ss))
        M = sp.block_diag([M_p, M_s])
        c = _spaces.constant_pressure_vector(cs.spaces)
        w = _mass_pencil_eigvals(C, M, c)
        return float(w[0]), float(w[-1])
    wp = _mass_pencil_eigvals(_dense(-cs.C_pp), M_p)
    ws = _mass_pencil_eigvals(_dense(-cs.C_ss), M_s)
    return (float(min(wp[0], ws[0])), float(max(wp[-1], ws[-1])))


def condensed_schur_identity(bs, cs):
    """Max-norm residual of the algebraic identity
    Bbar Abar^-1 Bbar^T - C = B A^-1 B^T."""
    A = bs.velocity_matrix()
    B = bs.divergence_matrix().tocsr()
    S_full = _schur_dense(A, B)
    Bbar = sp.vstack([cs.Bbar_p, cs.Bbar_s]).tocsr()
    C = sp.bmat([[cs.C_pp, cs.C_ps], [cs.C_ps.T, cs.C_ss]]).toarray()
    S_cond = _schur_dense(cs.Abar, Bbar) - C
    return float(np.abs(S_full - S_cond).max())


def coercivity_bounds(bs, alpha=None):
    """Extreme eigenvalues of the velocity form against the pair norm,
    on the complement of the two constant fields, measured on one
    velocity component with its constant deflated.

    Call with an *unconstrained* system (bcs=False): the claim is
    about the bilinear form itself.  Returns (c_lower, c_upper); a
    nonpositive lower value flags a coercivity failure (expected for
    insufficient stabilization)."""
    sp_ = bs.spaces
    if alpha is None:
        alpha = bs.alpha
    # `assembly.velocity_blocks` builds both components from one scalar
    # kernel, so the pencil is two copies of its component-0 block
    comp = np.concatenate([
        sp_.velocity_coeffs(np.arange(sp_.n_u))[:, 0].ravel(),
        sp_.n_u + sp_.facet_velocity_coeffs(np.arange(sp_.n_ubar))[:, 0]
        .ravel()])
    A = _dense(bs.velocity_matrix()[comp][:, comp])
    N = _dense(velocity_pair_norm_matrix(sp_, alpha)[comp][:, comp])
    one = lambda x, y: (np.ones_like(x), np.zeros_like(x))
    const = np.concatenate([_spaces.project_velocity(sp_, one),
                            _spaces.project_facet_velocity(sp_, one)])
    Ar, Nr = _restricted_pencil(A, N, const[comp])
    w = sla.eigh(Ar, Nr, eigvals_only=True)
    return float(w[0]), float(w[-1])


def cell_infsup(sp_, alpha):
    """Per-cell inf-sup constants of the divergence coupling against
    the cell DG norm; returns one beta per cell (no deflation)."""
    G = _dg_schur(sp_, alpha, _assembly.local_divergence(sp_))
    # transform by the (near-identity) local pressure mass
    Lm = np.linalg.cholesky(_assembly.cell_pressure_mass(sp_))
    Y = np.linalg.solve(Lm, G)
    G = _assembly._sym(
        np.linalg.solve(Lm, Y.transpose(0, 2, 1)).transpose(0, 2, 1))
    w = np.linalg.eigvalsh(G)
    return np.sqrt(np.maximum(w[:, 0], 0.0))


def facet_infsup(bs):
    """Inf-sup proxy of the facet-pressure rows against the cell DG
    norm: sqrt of the smallest eigenvalue of
    (B_su N_dg^-1 B_su^T, M_s)."""
    sp_ = bs.spaces
    rows, Bs = bs.local_block("s")
    G = _dg_schur(sp_, bs.alpha, Bs)
    Gs = _assembly._scatter(rows, rows, G, (sp_.n_pbar, sp_.n_pbar))
    w = _mass_pencil_eigvals(_dense(Gs), bs.M_s, subset=[0, 0])
    return float(np.sqrt(max(w[0], 0.0)))


def trace_form_ratios(cs, alpha, n_samples=50, seed=3):
    """Rayleigh ratios of the condensed velocity form (variational
    route: lift, then evaluate the form by quadrature) against the
    mean-deflated trace seminorm, over random facet fields vanishing
    on the boundary."""
    from . import condense as _condense
    sp_ = cs.spaces
    Nh = trace_seminorm_matrix(sp_)
    rng = np.random.default_rng(seed)
    free = np.setdiff1d(np.arange(sp_.n_ubar),
                        sp_.constrained_facet_velocity_dofs)
    ratios = []
    for _ in range(n_samples):
        w = np.zeros(sp_.n_ubar)
        w[free] = rng.standard_normal(free.size)
        num = _condense.trace_form_value(cs, alpha, w, w)
        den = w @ (Nh @ w)
        ratios.append(num / den)
    return np.array(ratios)


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


class SpectraReport:
    """Loose bag of measured quantities with JSON serialization."""

    def __init__(self, **entries):
        self.__dict__.update(entries)

    def to_dict(self):
        def conv(v):
            if isinstance(v, np.ndarray):
                return [float(x) for x in v]
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            if isinstance(v, dict):
                return {k: conv(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [conv(x) for x in v]
            return v
        return {k: conv(v) for k, v in self.__dict__.items()}

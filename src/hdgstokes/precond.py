"""Block preconditioners for the condensed saddle-point system.

Four kinds, all symmetric positive definite:

  PM      bdiag(Rbar, M_p, M_s)
  PC      bdiag(Rbar, -C_pp, -C_ss)
  PM-SGS  symmetric block Gauss-Seidel around bdiag(Rbar, M_p, M_s)
  PC-SGS  symmetric block Gauss-Seidel around bdiag(Rbar, -C_pp, -C_ss)

Rbar approximates the inverse of the condensed velocity block.  That
block is two copies of one scalar operator (`condense` checks it), so
Rbar is built on the scalar block `cs.Abar_scalar` alone: an exact
sparse factorization, or a fixed number of smoothed-aggregation V(1,1)
cycles with the constant scalar facet field as near-nullspace.  It is
applied to both components at once, as the (n_t/2, 2) block
`cs.component_columns(r)`, in both sweeps of the SGS kinds too.  Every
factorization here is `amg.spd_lu` (symmetric minimum-degree ordering,
diagonal pivots), since all factored blocks are SPD.  The modal bases
are orthonormal, so the pressure masses of the PM kinds are diagonal:
they are applied as r / diag(M), after `assembly.mass_diagonal` has
checked that the off-diagonal part is at roundoff level; a mass that is
not diagonal is refused.

The SGS kinds compose (P_L + P_D) P_D^-1 (P_D + P_L^T) with P_L the
strictly lower block triangle of the condensed operator.  The sweep
diagonal P_D takes the positive-definite pressure blocks (M_p, M_s or
-C_pp, -C_ss), so the composed operator is congruent to a positive
definite diagonal, hence symmetric positive definite as MINRES
requires.  The inverse application below never multiplies by Rbar
itself, so the multigrid mode (where only the inverse action exists)
works unchanged.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import assembly as _assembly
from . import spaces as _spaces
from .amg import SmoothedAggregation, spd_lu

KINDS = ("PM", "PC", "PM-SGS", "PC-SGS")


class OperatorApprox:
    """Approximate inverse of an SPD matrix: 'exact' (`spd_lu`) or
    'multigrid' (fixed V-cycle count).  Tiny problems silently degrade
    multigrid to the exact mode; `degraded` records that.  `apply`
    takes an (n,) or (n, m) right-hand side."""

    def __init__(self, A, mode="exact", cycles=4, near_null=None,
                 coarse_size=60):
        if mode not in ("exact", "multigrid"):
            raise ValueError("mode must be 'exact' or 'multigrid'")
        self.shape = A.shape
        self.cycles = cycles
        self.degraded = False
        if mode == "multigrid" and A.shape[0] <= 4 * coarse_size:
            mode = "exact"
            self.degraded = True
        self.mode = mode
        if mode == "exact":
            self.lu = spd_lu(A)
            self.amg = None
        else:
            self.amg = SmoothedAggregation(A, near_null,
                                           coarse_size=coarse_size)

    def apply(self, r):
        if self.mode == "exact":
            return self.lu.solve(r)
        return self.amg.solve(r, cycles=self.cycles)


def _diagonal_solver(M, name):
    """r -> M^-1 r for a mass that `assembly.mass_diagonal` accepts."""
    d = _assembly.mass_diagonal(M, name)
    return lambda r: r / d


def generalized_extremes(A, apply_inv, iters=30, seed=11):
    """Extreme generalized eigenvalues of (A, R) from `iters` steps of
    preconditioned Lanczos, given the action r -> R^-1 r.

    Works in residual space: vectors r_j with q_j = R^-1 r_j form a
    basis orthonormal in the R^-1 inner product; the tridiagonal Ritz
    values approximate the spectrum of R^-1 A.
    """
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(n)
    q = apply_inv(r)
    b = np.sqrt(r @ q)
    r, q = r / b, q / b
    rs, qs = [r], [q]
    alphas, betas = [], []
    r_prev = np.zeros(n)
    beta_prev = 0.0
    for _ in range(iters):
        s = A @ q - beta_prev * r_prev
        a = q @ s
        alphas.append(a)
        s = s - a * r
        # full reorthogonalization in the R^-1 inner product
        for ri, qi in zip(rs, qs):
            s = s - (qi @ s) * ri
        qn = apply_inv(s)
        b2 = s @ qn
        if b2 <= 0.0:
            break
        beta_prev = np.sqrt(b2)
        betas.append(beta_prev)
        r_prev = r
        r, q = s / beta_prev, qn / beta_prev
        rs.append(r)
        qs.append(q)
    alphas = np.array(alphas)
    betas = np.array(betas[:len(alphas) - 1])
    w = eigh_tridiagonal(alphas, betas, eigvals_only=True)
    return float(w[0]), float(w[-1])


class Preconditioner:
    """One of the four block preconditioners; `apply` maps a condensed
    residual to the preconditioned vector."""

    def __init__(self, cs, kind, rbar, solve2, solve3):
        self.cs = cs
        self.kind = kind
        self.rbar = rbar
        self._solve2 = solve2
        self._solve3 = solve3
        self.is_sgs = kind.endswith("SGS")
        if self.is_sgs:
            self.Bp = cs.Bbar_p
            self.Bs = cs.Bbar_s
            self.Csp = cs.C_ps.T.tocsr()
            self.Cps = cs.C_ps

    def _solve1(self, r1):
        """Rbar on both velocity components as one two-column block."""
        cs = self.cs
        return cs.component_vector(self.rbar.apply(cs.component_columns(r1)))

    def apply(self, r):
        r1, r2, r3 = self.cs.split(r)
        if not self.is_sgs:
            return np.concatenate([self._solve1(r1),
                                   self._solve2(r2),
                                   self._solve3(r3)])
        y1 = self._solve1(r1)
        y2 = self._solve2(r2 - self.Bp @ y1)
        y3 = self._solve3(r3 - self.Bs @ y1 - self.Csp @ y2)
        z3 = y3
        z2 = y2 - self._solve2(self.Cps @ z3)
        z1 = y1 - self._solve1(self.Bp.T @ z2 + self.Bs.T @ z3)
        return np.concatenate([z1, z2, z3])


def build_preconditioner(cs, M_p, M_s, kind="PM", rbar_mode="exact",
                         cycles=4):
    """Assemble one of the four preconditioners for a condensed system.

    M_p, M_s are the assembled pressure mass blocks; the PM kinds
    require them diagonal and raise ValueError otherwise.  The velocity
    block approximation is built on the scalar block `cs.Abar_scalar`;
    its multigrid near-nullspace is the constant scalar facet field,
    zeroed on constrained DOFs.
    """
    if kind not in KINDS:
        raise ValueError("unknown preconditioner kind %r; expected one of %s"
                         % (kind, ", ".join(KINDS)))
    sp_ = cs.spaces
    near = _spaces.constant_facet_velocity_fields(sp_)[:, 0].copy()
    near[sp_.constrained_facet_velocity_dofs] = 0.0
    rbar = OperatorApprox(cs.Abar_scalar, mode=rbar_mode, cycles=cycles,
                          near_null=cs.component_columns(near)[:, 0])

    if kind.startswith("PM"):
        solve2 = _diagonal_solver(M_p, "cell pressure mass")
        solve3 = _diagonal_solver(M_s, "facet pressure mass")
    else:
        solve2 = spd_lu(-cs.C_pp).solve
        solve3 = spd_lu(-cs.C_ss).solve
    # The sweep diagonal takes the positive-definite block variants so
    # the composed operator (P_L + P_D) P_D^-1 (P_L^T + P_D) is SPD,
    # which MINRES requires.
    return Preconditioner(cs, kind, rbar, solve2, solve3)

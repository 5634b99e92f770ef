"""Block preconditioners for the condensed saddle-point system.

Four kinds, all symmetric positive definite:

  PM      bdiag(Rbar, M_p, M_s)
  PC      bdiag(Rbar, -C_pp, -C_ss)
  PM-SGS  symmetric block Gauss-Seidel around bdiag(Rbar, M_p, M_s)
  PC-SGS  symmetric block Gauss-Seidel around bdiag(Rbar, -C_pp, -C_ss)

Rbar approximates the inverse of the condensed velocity block.  That
block is two copies of one scalar operator (`condense` checks it), so
Rbar is built on the scalar block `cs.Abar_scalar` alone: an exact
sparse factorization, or a fixed number of two-level auxiliary-space
cycles (`amg.AuxiliarySpace`): facet-block Jacobi sweeps around an
exact solve on continuous P1 over the interior mesh vertices, mapped
into the facet basis by `spaces.vertex_trace_prolongator`.  Its
spectral bracket against the scalar block does not move under mesh
refinement, so neither do the iteration counts.  It is applied to
both components at once: the facet velocity is numbered one component
after the other, so r.reshape(2, -1).T is the (n_t/2, 2) block of the
two components, a Fortran-ordered view, the order SuperLU solves in;
the same holds in both sweeps of the SGS kinds.  Every
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

from . import assembly as _assembly
from . import spaces as _spaces
from .amg import AuxiliarySpace, spd_lu

KINDS = ("PM", "PC", "PM-SGS", "PC-SGS")
# multigrid on this many rows or fewer degrades to the exact mode
_MIN_MULTIGRID_ROWS = 240
# the benchmark's span hook for the multigrid setup, until it renames it
SmoothedAggregation = AuxiliarySpace


class OperatorApprox:
    """Approximate inverse of the scalar trace block `cs.Abar_scalar`:
    'exact' (`spd_lu`) or 'multigrid' (a fixed number of
    auxiliary-space cycles per apply, `amg.AuxiliarySpace`, with the
    continuous P1 coarse space of `spaces.vertex_trace_prolongator`
    and facet-block Jacobi smoothing).  Tiny problems, and meshes
    without an interior vertex, silently degrade multigrid to the
    exact mode; `degraded` records that.  `apply` takes an (n,) or
    (n, m) right-hand side."""

    def __init__(self, A, mode="exact", cycles=4, spaces=None):
        if mode not in ("exact", "multigrid"):
            raise ValueError("mode must be 'exact' or 'multigrid'")
        self.shape = A.shape
        self.cycles = cycles
        self.degraded = False
        if mode == "multigrid":
            P = (_spaces.vertex_trace_prolongator(spaces)
                 if A.shape[0] > _MIN_MULTIGRID_ROWS else None)
            if P is None or P.shape[1] == 0:
                mode = "exact"
                self.degraded = True
        self.mode = mode
        if mode == "exact":
            self.lu = spd_lu(A)
            self.amg = None
        else:
            self.amg = SmoothedAggregation(A, P, spaces.nbf)

    def apply(self, r):
        if self.mode == "exact":
            return self.lu.solve(r)
        return self.amg.solve(r, cycles=self.cycles)


def _diagonal_solver(M, name):
    """r -> M^-1 r for a mass that `assembly.mass_diagonal` accepts."""
    d = _assembly.mass_diagonal(M, name)
    return lambda r: r / d


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
        return self.rbar.apply(r1.reshape(2, -1).T).T.ravel()

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
    block approximation is built on the scalar block `cs.Abar_scalar`.
    """
    if kind not in KINDS:
        raise ValueError("unknown preconditioner kind %r; expected one of %s"
                         % (kind, ", ".join(KINDS)))
    rbar = OperatorApprox(cs.Abar_scalar, mode=rbar_mode, cycles=cycles,
                          spaces=cs.spaces)

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

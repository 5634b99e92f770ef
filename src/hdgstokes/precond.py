"""Block preconditioners for the condensed saddle-point system.

Four kinds, all symmetric positive definite:

  PM      bdiag(Rbar, M_p, M_s)
  PC      bdiag(Rbar, -C_pp, -C_ss)
  PM-SGS  symmetric block Gauss-Seidel around bdiag(Rbar, M_p, M_s)
  PC-SGS  symmetric block Gauss-Seidel around bdiag(Rbar, -C_pp, -C_ss)

Rbar approximates the inverse of the condensed velocity block.  That
block is two copies of one scalar operator (`condense` checks it), so
Rbar is built on the scalar block `cs.Abar_scalar` alone: an exact
sparse factorization, or `cycles` two-level auxiliary-space cycles
(`amg.AuxiliarySpace`): Chebyshev facet-block Jacobi smoothing around
an exact solve on continuous P1 over the interior mesh vertices,
mapped into the facet basis by `spaces.vertex_trace_prolongator`.
More than one cycle is applied as a Chebyshev polynomial in the cycle,
not as a stationary iteration; its spectrum against the scalar block
stays in (0, 1] and reaches closer to 1 for the same number of
cycles.  The spectral bracket does not move under mesh refinement, so
neither do the iteration counts.  Rbar is applied to
both components at once: the facet velocity is numbered one component
after the other, so r.reshape(2, -1).T is the (n_t/2, 2) block of the
two components, a Fortran-ordered view, the order SuperLU solves in;
the same holds in both sweeps of the SGS kinds.  Every sparse
factorization here is `amg.spd_lu` (diagonal pivots, symmetric
minimum degree), since both factored blocks, the exact scalar velocity
block and -C_ss, are SPD.  -C_pp couples only the pressures of one
cell, so the PC kinds invert its cell blocks
(`cs.pressure_blocks`) and apply it as one batched product.
The modal bases are orthonormal, so the pressure masses of the PM
kinds are diagonal: they are applied as r / d with d the slices of
`cs.mass`, the diagonal that assembly checked once
(`assembly.mass_diagonal`).

The SGS kinds compose (P_L + P_D) P_D^-1 (P_D + P_L^T) with P_L the
strictly lower block triangle of the condensed operator.  The sweep
diagonal P_D takes the positive-definite pressure blocks (M_p, M_s or
-C_pp, -C_ss), so the composed operator is congruent to a positive
definite diagonal, hence symmetric positive definite as MINRES
requires.  The inverse application below never multiplies by Rbar
itself, so the multigrid mode (where only the inverse action exists)
works unchanged.

Only the scalar velocity block and the cell blocks of -C_pp are kept
by `condense`; every other block is sliced from K here, once, when the
preconditioner is built (`CondensedSystem.block`): -C_ss for the PC
kinds to factor, and the six off-diagonal blocks the two sweeps
multiply by for the SGS kinds.  The PM kind reads nothing beyond
`Abar_scalar`.
"""

import numpy as np

from . import spaces as _spaces
from .amg import AuxiliarySpace, spd_lu

KINDS = ("PM", "PC", "PM-SGS", "PC-SGS")
# the benchmark's span hook for the multigrid setup, until it renames it
SmoothedAggregation = AuxiliarySpace


class OperatorApprox:
    """Approximate inverse of the scalar trace block `cs.Abar_scalar`
    on `spaces`: 'exact' (one `spd_lu` factorization) or 'multigrid'
    (`cycles` auxiliary-space cycles per apply as a Chebyshev polynomial,
    `amg.AuxiliarySpace`, with the continuous P1 coarse space of
    `spaces.vertex_trace_prolongator` and Chebyshev facet-block Jacobi
    smoothing).  Multigrid runs on every mesh with an interior vertex;
    a mesh without one has no coarse space, so multigrid degrades to
    the exact mode there, and `degraded` records that.  `apply` takes
    an (n,) or (n, m) right-hand side."""

    def __init__(self, A, spaces, mode="exact", cycles=4):
        if mode not in ("exact", "multigrid"):
            raise ValueError("mode must be 'exact' or 'multigrid'")
        self.cycles = cycles
        P = (_spaces.vertex_trace_prolongator(spaces)
             if mode == "multigrid" else None)
        self.degraded = P is not None and P.shape[1] == 0
        self.mode = "exact" if self.degraded else mode
        self.lu = self.amg = None
        if self.mode == "exact":
            self.lu = spd_lu(A)
        else:
            self.amg = SmoothedAggregation(A, P, spaces.nbf)

    def apply(self, r):
        if self.mode == "exact":
            return self.lu.solve(r)
        return self.amg.solve(r, cycles=self.cycles)


class Preconditioner:
    """One of the four block preconditioners for the condensed system
    `cs`: Rbar is `OperatorApprox` on `cs.Abar_scalar` in `rbar_mode`
    with `cycles`; the PM kinds divide by the pressure mass diagonal
    `cs.mass`, the PC kinds solve with -C_pp and -C_ss.  `apply` maps a
    condensed residual to the preconditioned vector."""

    def __init__(self, cs, kind="PM", rbar_mode="exact", cycles=4):
        if kind not in KINDS:
            raise ValueError("unknown preconditioner kind %r; expected one "
                             "of %s" % (kind, ", ".join(KINDS)))
        self.cs = cs
        self.kind = kind
        self.rbar = OperatorApprox(cs.Abar_scalar, cs.spaces, mode=rbar_mode,
                                   cycles=cycles)
        if kind.startswith("PM"):
            d_p, d_s = cs.mass[:cs.n_p], cs.mass[cs.n_p:]
            self._solve2 = lambda r: r / d_p
            self._solve3 = lambda r: r / d_s
        else:
            # -C_pp is block diagonal by cell: one batched product with
            # the inverses of its cell blocks
            inv = np.linalg.inv(cs.pressure_blocks)
            self._solve2 = lambda r: (
                inv @ r.reshape(*inv.shape[:2], 1)).ravel()
            self._solve3 = spd_lu(-cs.block("s", "s")).solve
        self.is_sgs = kind.endswith("SGS")
        if self.is_sgs:
            # the off-diagonal blocks of K the sweeps read, keyed by
            # (rows, cols) as in `CondensedSystem.block`
            self.blocks = {rc: cs.block(*rc)
                           for rc in ("pt", "st", "sp", "ps", "tp", "ts")}

    def _solve1(self, r1):
        """Rbar on both velocity components as one two-column block."""
        return self.rbar.apply(r1.reshape(2, -1).T).T.ravel()

    def apply(self, r):
        r1, r2, r3 = self.cs.split(r)
        if not self.is_sgs:
            return np.concatenate([self._solve1(r1),
                                   self._solve2(r2),
                                   self._solve3(r3)])
        K = self.blocks
        y1 = self._solve1(r1)
        y2 = self._solve2(r2 - K["pt"] @ y1)
        y3 = self._solve3(r3 - K["st"] @ y1 - K["sp"] @ y2)
        z3 = y3
        z2 = y2 - self._solve2(K["ps"] @ z3)
        z1 = y1 - self._solve1(K["tp"] @ z2 + K["ts"] @ z3)
        return np.concatenate([z1, z2, z3])


# the name the solve stage builds through: the benchmark's span hook
# for the preconditioner setup
build_preconditioner = Preconditioner

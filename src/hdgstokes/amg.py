"""Auxiliary-space two-level method for the scalar trace block, and
the sparse factorization of every SPD matrix the solver factors.

`AuxiliarySpace` follows Xu's auxiliary space method (Computing, 1996)
in the form of Cockburn, Dubois, Gopalakrishnan & Tan ("Multigrid for
an HDG method", IMA J. Numer. Anal., 2014): the trace unknowns are
smoothed by facet-block Jacobi, and the smooth error is removed on an
auxiliary space (continuous P1 on the interior mesh vertices) through
the prolongator P of `spaces.vertex_trace_prolongator`.  One cycle is
a smoothing step, the Galerkin correction P (P^T A P)^-1 P^T and the
same smoothing step again, so a cycle is a symmetric operator.  The
smoothing step is the degree-2 Chebyshev polynomial in S A on [1/4, 1],
with S the facet-block inverse D^-1 scaled by 1/lambda_max(D^-1 A)
(Adams, Brezina, Hu & Tuminaro, J. Comput. Phys. 188, 2003).  Its
error polynomial 1 - c1 t + c2 t^2 has modulus below 1 on
(0, c1/c2) = (0, 1.25), so the cycle stays A-contractive even when the
power iteration underestimates lambda_max: the spectrum of one cycle B
against A lies in (0, 1].  The power iteration starts from a fixed
seed, so the cycle is the same operator from run to run.

The smoothing step from a zero guess is one precomputed matrix,
c1 S - c2 S A S, which has the sparsity of A, since S is block diagonal; it
costs what two damped Jacobi sweeps, (c1, c2) = (2, 1), cost.  A cycle
from a zero guess (`_cycle`) returns z = B r and, unless it is the last
of an apply, the residual r - A z.  It costs two smoother products and
one product with A, plus products with P, A P and P^T and one coarse
solve, and one more product with A for the residual.

`solve` applies m cycles as a polynomial in B A rather than repeating
the cycle as a stationary iteration, whose error (1 - t)^m over the
spectrum [lambda_min, 1] of B A falls slowly at the lower end.  m = 1
is one plain cycle.  An even m = 2j runs the Chebyshev iteration of
degree j on [alpha, 1] with B as preconditioner (Saad, Iterative
Methods for Sparse Linear Systems, 2003, Sec. 12.3) twice, the second
pass restarted from the iterate of the first; an odd m = 2j + 1 runs
one plain cycle first.  With q_j the Chebyshev polynomial of [alpha, 1]
scaled to q_j(0) = 1 and sigma = (1 + alpha) / (1 - alpha), the error
polynomial of the apply is q_j^2, or (1 - t) q_j^2.  On (0, 1] both lie
in [0, 1), whatever alpha is: |q_j| <= 1/T_j(sigma) < 1 on [alpha, 1],
and q_j falls from 1 to 1/T_j(sigma) on [0, alpha].  So the
approximate inverse is symmetric positive definite with its spectrum
against A in (0, 1], as MINRES needs.  The Chebyshev polynomial of
degree m itself changes sign on [alpha, 1], so its bracket would reach
1 + 1/T_m(sigma), above 1.  Each step carries A d beside its direction
d: the residual s = r - A z that the cycle leaves gives A z = r - s.
So an apply costs the products and coarse solves of m stationary
cycles, plus a few vector updates.

The lower end of the spectrum of one cycle varies from 0.35 to 0.91
with the mesh and the degree (triangles at k = 3 with jitter 0.2 to
quadrilaterals at k = 1, 16 x 16), so it is measured once per
`AuxiliarySpace`, by the first apply that needs it: alpha is 0.95
times the smallest Ritz value of 12 plain Lanczos steps on the pencil
(A, B^-1) from a fixed seed (`_pencil_lower_end`), clamped to
[1e-3, 0.999].  A Ritz value is never below the smallest eigenvalue;
the margin covers the gap, and an alpha above it would cost accuracy,
not definiteness.  The estimate costs 13 cycles and 12 products with
A (0.13 to 0.18 s on 128 x 128 triangles at k = 2, a third of the
setup of the cycle), which one cycle per apply does not spend.  On
32 x 32 triangles at k = 2 four cycles have the bracket [0.99955, 1]
against A, where four stationary cycles have [0.9915, 1]: a
worst-case error 19 times smaller.

An (n, m) right-hand side is cycled one column at a time:
scipy's CSR product on one contiguous vector is faster per entry than
on an (n, m) block (two single columns take 0.27 ms against 0.42 ms
for the two-column block on the 9,408-row scalar block of 32 x 32
triangles at k = 2, and 6.8 ms against 8.8 ms on the 148,224 rows of
128 x 128; 2 vCPU).  The solver builds the cycle on the scalar block of
one velocity component and applies it to both components.

`spd_lu` is the sparse factorization of every SPD matrix the solver
factors (the coarse matrix here, the exact velocity block and the
pressure Schur blocks in `precond`): a symmetric minimum-degree
ordering of A^T + A with the pivots taken from the diagonal, which
halves the fill of the column ordering SuperLU uses by default.
"""

import functools

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def spd_lu(A):
    """SuperLU factorization of a symmetric positive definite matrix:
    symmetric minimum-degree ordering, no off-diagonal pivoting."""
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


def _block_jacobi(A, block):
    """Block-diagonal BSR matrix of the inverted diagonal blocks of A,
    one per `block` consecutive rows."""
    nblk = A.shape[0] // block
    C = A.tocoo()
    inside = C.row // block == C.col // block
    D = np.zeros((nblk, block, block))
    D[C.row[inside] // block, C.row[inside] % block,
      C.col[inside] % block] = C.data[inside]
    return sp.bsr_matrix((np.linalg.inv(D), np.arange(nblk),
                          np.arange(nblk + 1)), shape=A.shape)


# degree-2 Chebyshev smoothing on [lambda_max/4, lambda_max]: centre
# theta and half-width delta of the interval, relative to lambda_max.
# With 4 cycles on 32x32 triangles at k = 2 (PM-SGS), MINRES takes 85
# iterations; the lower end lambda_max/10 takes 89, two damped Jacobi
# sweeps 90 (with one cycle: 149, 154 and 185).
_THETA, _DELTA = 5.0 / 8.0, 3.0 / 8.0
_CHEB_C1 = 4.0 * _THETA / (2.0 * _THETA ** 2 - _DELTA ** 2)
_CHEB_C2 = 2.0 / (2.0 * _THETA ** 2 - _DELTA ** 2)
# the Chebyshev interval of `AuxiliarySpace.solve` starts at this
# fraction of the smallest Ritz value of the cycle
_ALPHA_MARGIN = 0.95


def _lambda_max(A, Dinv, iters=20, seed=0):
    """Power-iteration estimate of the largest eigenvalue of Dinv A:
    its Rayleigh quotient in the A inner product at the last iterate,
    which does not exceed the eigenvalue."""
    v = np.random.default_rng(seed).standard_normal(A.shape[0])
    for _ in range(iters):
        w = Dinv @ (A @ v)
        v = w / np.linalg.norm(w)
    Av = A @ v
    return (Av @ (Dinv @ Av)) / (v @ Av)


def _pencil_lower_end(A, cycle, steps=12, seed=0):
    """Smallest Ritz value of `steps` plain Lanczos steps on the pencil
    (A, B^-1) for the SPD action z = cycle(r) = B r, that is on the
    spectrum of B A, from a fixed-seed start vector: the recurrence of
    `spectra._lanczos_extremes`, one product and one cycle per step.
    A Ritz value is never below the smallest eigenvalue."""
    r = np.random.default_rng(seed).standard_normal(A.shape[0])
    w = cycle(r)
    beta = np.sqrt(w @ r)
    a, b, p_old = [], [], 0.0
    for _ in range(steps):
        q, p = w / beta, r / beta
        r = A @ q
        r -= beta * p_old
        a.append(q @ r)
        r -= a[-1] * p
        w = cycle(r)
        beta = np.sqrt(max(w @ r, 0.0))
        b.append(beta)
        p_old = p
    return sla.eigh_tridiagonal(a, b[:-1], eigvals_only=True,
                                select="i", select_range=(0, 0))[0]


class _Level:
    __slots__ = ("A",)

    def __init__(self, A):
        self.A = A


class AuxiliarySpace:
    """Two-level auxiliary-space cycle for an SPD matrix A whose rows
    come in consecutive blocks of `block` (one block per facet), with
    the prolongator P (n, m) from the auxiliary space.  `levels` holds
    the fine and the coarse level; `alpha` is the lower end of the
    interval the Chebyshev polynomial of `solve` is built on."""

    def __init__(self, A, P, block):
        A = A.tocsr()
        S = _block_jacobi(A, block)
        S = (S / _lambda_max(A, S)).tocsr()
        # one Chebyshev smoothing step from a zero guess:
        # x = (c1 S - c2 S A S) r
        self.smoother = (_CHEB_C1 * S - _CHEB_C2 * (S @ A @ S)).tocsr()
        self.P = P.tocsr()
        self.PT = self.P.T.tocsr()
        self.AP = (A @ self.P).tocsr()
        Ac = (self.PT @ self.AP).tocsr()
        Ac = ((Ac + Ac.T) * 0.5).tocsr()
        Ac.eliminate_zeros()
        self.levels = [_Level(A), _Level(Ac)]
        self.coarse = spd_lu(Ac)

    @functools.cached_property
    def alpha(self):
        """Lower end of the Chebyshev interval, measured on first use:
        one cycle per apply needs none."""
        lo = _pencil_lower_end(self.levels[0].A,
                               lambda r: self._cycle(r, False)[0])
        return min(max(_ALPHA_MARGIN * lo, 1e-3), 0.999)

    def _cycle(self, r, residual):
        """One cycle from a zero guess: z = B r, and the residual
        r - A z when `residual` (else None)."""
        A, M = self.levels[0].A, self.smoother
        z = M @ r
        s = r - A @ z
        c = self.coarse.solve(self.PT @ s)
        z += self.P @ c
        s -= self.AP @ c
        y = M @ s
        if residual:
            s -= A @ y
        z += y
        return z, (s if residual else None)

    def _chebyshev(self, x, r, steps, last):
        """`steps` steps of the Chebyshev iteration on [alpha, 1] with
        the cycle as preconditioner (Saad 2003, Algorithm 12.1), from
        the iterate x with residual r, both updated in place; the
        residual after the final step is not formed when `last`."""
        theta, delta = 0.5 * (1.0 + self.alpha), 0.5 * (1.0 - self.alpha)
        sigma = theta / delta
        rho, c1, c2 = 1.0 / sigma, 0.0, 1.0 / theta
        d = Ad = 0.0
        for i in range(steps):
            final = last and i + 1 == steps
            z, s = self._cycle(r, not final)
            # d = c1 d + c2 z, and A d beside it from A z = r - s
            z *= c2
            d *= c1
            d += z
            x += d
            if final:
                break
            np.subtract(r, s, out=s)
            s *= c2
            Ad *= c1
            Ad += s
            r -= Ad
            rho_next = 1.0 / (2.0 * sigma - rho)
            c1, c2, rho = rho_next * rho, 2.0 * rho_next / delta, rho_next

    def solve(self, b, cycles=1):
        """The approximate inverse of `cycles` cycles for an (n,) or
        (n, m) right-hand side b: one plain cycle when `cycles` is odd,
        then the degree-(cycles // 2) Chebyshev polynomial twice."""
        if b.ndim == 2:
            return np.column_stack([self.solve(np.ascontiguousarray(col),
                                               cycles) for col in b.T])
        steps, odd = divmod(cycles, 2)
        if odd:
            x, r = self._cycle(b, steps > 0)
        else:
            x, r = np.zeros_like(b), b.copy()
        if steps:
            self._chebyshev(x, r, steps, False)
            self._chebyshev(x, r, steps, True)
        return x

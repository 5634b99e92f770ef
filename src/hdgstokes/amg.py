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
power iteration underestimates lambda_max, and every cycle count gives
a positive definite approximate inverse whose spectrum against A lies
in (0, 1].  The power iteration starts from a fixed seed, so the cycle
is the same operator from run to run.

The smoothing step from a zero guess is one precomputed matrix,
c1 S - c2 S A S, which has the sparsity of A, since S is block diagonal; it
costs what two damped Jacobi sweeps, (c1, c2) = (2, 1), cost.  A cycle
costs two smoother products and one product with A, plus products with
P, A P and P^T and one coarse solve; the residual is carried from
cycle to cycle, which costs one more product with A when another cycle
follows.  An (n, m) right-hand side is cycled one column at a time:
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

import numpy as np
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
# With 4 cycles on 32x32 triangles at k = 2 (PM-SGS), MINRES takes 94
# iterations; the lower end lambda_max/10 takes 96, two damped Jacobi
# sweeps 107.
_THETA, _DELTA = 5.0 / 8.0, 3.0 / 8.0
_CHEB_C1 = 4.0 * _THETA / (2.0 * _THETA ** 2 - _DELTA ** 2)
_CHEB_C2 = 2.0 / (2.0 * _THETA ** 2 - _DELTA ** 2)


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


class _Level:
    __slots__ = ("A",)

    def __init__(self, A):
        self.A = A


class AuxiliarySpace:
    """Two-level auxiliary-space cycle for an SPD matrix A whose rows
    come in consecutive blocks of `block` (one block per facet), with
    the prolongator P (n, m) from the auxiliary space.  `levels` holds
    the fine and the coarse level."""

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

    def solve(self, b, cycles=1):
        """`cycles` cycles for an (n,) or (n, m) right-hand side b, each
        on the residual the previous ones left."""
        if b.ndim == 2:
            return np.column_stack([self.solve(np.ascontiguousarray(col),
                                               cycles) for col in b.T])
        A, M = self.levels[0].A, self.smoother
        x, r = 0.0, b
        for i in range(cycles):
            y = M @ r
            r = r - A @ y
            c = self.coarse.solve(self.PT @ r)
            y += self.P @ c
            r = r - self.AP @ c
            z = M @ r
            x = x + y + z
            if i + 1 < cycles:
                r = r - A @ z
        return x

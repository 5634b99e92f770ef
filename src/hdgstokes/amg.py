"""Smoothed-aggregation multigrid for symmetric positive definite
matrices.

Plain greedy aggregation on the nonzero adjacency graph, tentative
prolongator from a user-supplied near-nullspace (orthonormalized per
aggregate, rank-deficient blocks handled by dropping columns), Jacobi
smoothing of the prolongator, Galerkin coarse operators and V(1,1)
cycles with one forward Gauss-Seidel sweep before and one backward
sweep after coarse correction, so a cycle is a symmetric operator.

Eliminated identity rows show up as isolated graph nodes with a zero
near-nullspace row; they become smoother-only singleton aggregates,
which the Gauss-Seidel sweep solves exactly.

Cycles take an (n,) or an (n, m) right-hand side: the sparse products,
the triangular Gauss-Seidel solves and the coarse `spd_lu` solve act
on every column at once.  The solver builds its hierarchy on the
scalar block of one velocity component and cycles both components as
one two-column block.

`spd_lu` is the sparse factorization of every SPD matrix the solver
factors (the coarsest level here, the exact velocity block and the
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


def _aggregate(A):
    """Greedy distance-1 aggregation; returns (labels, count)."""
    n = A.shape[0]
    indptr, indices = A.indptr, A.indices
    agg = -np.ones(n, dtype=np.int64)
    cnt = 0
    for i in range(n):
        if agg[i] >= 0:
            continue
        nbrs = indices[indptr[i]:indptr[i + 1]]
        nbrs = nbrs[nbrs != i]
        if nbrs.size == 0:
            agg[i] = cnt
            cnt += 1
        elif np.all(agg[nbrs] < 0):
            agg[i] = cnt
            agg[nbrs] = cnt
            cnt += 1
    for i in range(n):
        if agg[i] >= 0:
            continue
        nbrs = indices[indptr[i]:indptr[i + 1]]
        hit = nbrs[agg[nbrs] >= 0]
        if hit.size:
            agg[i] = agg[hit[0]]
        else:
            agg[i] = cnt
            cnt += 1
    return agg, cnt


def _tentative(agg, nagg, B):
    """Tentative prolongator and coarse near-nullspace.

    Orthonormalizes the near-nullspace block of every aggregate; zero
    columns (constrained rows) are dropped so the prolongator keeps
    full column rank.
    """
    n, k = B.shape
    order = np.argsort(agg, kind="stable")
    bounds = np.searchsorted(agg[order], np.arange(nagg + 1))
    rows, cols, vals = [], [], []
    bc_blocks = []
    col = 0
    for a in range(nagg):
        nodes = order[bounds[a]:bounds[a + 1]]
        Bl = B[nodes]
        norms = np.linalg.norm(Bl, axis=0)
        keep = norms > 1e-12 * max(norms.max(), 1e-300)
        r = int(keep.sum())
        if r == 0:
            bc_blocks.append(np.zeros((0, k)))
            continue
        Q, _ = np.linalg.qr(Bl[:, keep])
        rows.append(np.repeat(nodes, r))
        cols.append(np.tile(col + np.arange(r), len(nodes)))
        vals.append(Q.ravel())
        bc_blocks.append(Q.T @ Bl)
        col += r
    P0 = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, col)).tocsr()
    Bc = np.vstack([b for b in bc_blocks if b.shape[0]]) if col else \
        np.zeros((0, k))
    return P0, Bc


def _rho_dinv_a(A, iters=15, seed=0):
    """Power-iteration estimate of the spectral radius of D^-1 A."""
    rng = np.random.default_rng(seed)
    dinv = 1.0 / A.diagonal()
    v = rng.standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    rho = 1.0
    for _ in range(iters):
        w = dinv * (A @ v)
        rho = np.linalg.norm(w)
        if rho == 0.0:
            return 1.0
        v = w / rho
    return rho


class _Level:
    __slots__ = ("A", "P", "lower_lu", "coarse")

    def __init__(self, A):
        self.A = A
        self.P = None
        self.coarse = None
        lower = sp.tril(A, format="csc")
        self.lower_lu = spla.splu(lower, permc_spec="NATURAL",
                                  diag_pivot_thresh=0.0,
                                  options=dict(SymmetricMode=False))

    def forward_gs(self, b):
        return self.lower_lu.solve(b)

    def backward_gs(self, r):
        return self.lower_lu.solve(r, trans="T")


class SmoothedAggregation:
    """Multigrid hierarchy; `cycle` applies one symmetric V(1,1) cycle
    to an (n,) or (n, m) right-hand side."""

    def __init__(self, A, near_null, coarse_size=60, max_levels=12,
                 omega=4.0 / 3.0):
        A = A.tocsr()
        B = np.atleast_2d(np.asarray(near_null, dtype=float))
        if B.shape[0] != A.shape[0]:
            B = B.T
        self.levels = []
        while True:
            lvl = _Level(A)
            self.levels.append(lvl)
            if A.shape[0] <= coarse_size or len(self.levels) >= max_levels:
                break
            agg, nagg = _aggregate(A)
            P0, Bc = _tentative(agg, nagg, B)
            if P0.shape[1] == 0 or P0.shape[1] >= A.shape[0]:
                break
            rho = _rho_dinv_a(A)
            Dinv = sp.diags(omega / rho / A.diagonal())
            P = (P0 - Dinv @ (A @ P0)).tocsr()
            Ac = (P.T @ (A @ P)).tocsr()
            Ac = ((Ac + Ac.T) * 0.5).tocsr()
            Ac.eliminate_zeros()
            lvl.P = P
            A = Ac
            B = Bc
        self.levels[-1].coarse = spd_lu(self.levels[-1].A)

    def cycle(self, b, lvl=0):
        level = self.levels[lvl]
        if level.coarse is not None:
            return level.coarse.solve(b)
        x = level.forward_gs(b)
        r = b - level.A @ x
        x = x + level.P @ self.cycle(level.P.T @ r, lvl + 1)
        r = b - level.A @ x
        return x + level.backward_gs(r)

    def solve(self, b, cycles=1):
        x = self.cycle(b)
        for _ in range(cycles - 1):
            x = x + self.cycle(b - self.levels[0].A @ x)
        return x

"""Preconditioned Krylov solvers for the condensed saddle-point system.

minres is the Paige-Saunders recurrence with a symmetric (positive or
indefinite) preconditioner applied on the left.  It costs one matvec
per iteration: the unpreconditioned residual b - A x is updated by
recurrence, with A w carried alongside each search direction w and
built from the A v the Lanczos step already computed.  Convergence is
judged on the true residual: it is recomputed once the updated one
reaches tol, and if it is still above tol the recurrence restarts from
it and the iteration goes on.  The preconditioner-norm estimate is
monotone and kept in the report for diagnostics.  The Lanczos
tridiagonal of the preconditioned operator that the recurrence builds
is kept too, as `SolverReport.lanczos`; `ritz_extremes` reads the
extreme eigenvalue estimates off it.

gmres is restarted GMRES with the preconditioner applied on the right,
so its recurrence estimate *is* the true residual norm; it tolerates
indefinite preconditioners by construction.  Each new basis vector is
orthogonalized by `orthogonalize`: two passes of classical
Gram-Schmidt, as orthogonal to working precision as two passes of
modified Gram-Schmidt ("twice is enough"), each pass two dense
products with the basis instead of a Python loop over its vectors.
Each restart cycle forms the true residual b - A x once, at its end;
it is both the convergence test and the start vector of the next
cycle, so a solve costs one matvec per iteration plus one per cycle.

Both solvers optionally project against a one-dimensional kernel (the
constant-pressure representation): the operator is symmetric, so its
range is the Euclidean orthogonal complement of the kernel, and
projecting the residual and every preconditioned vector keeps all
iterates in that complement.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal


class SolverReport:
    """Iteration record of one Krylov solve."""

    def __init__(self, method, preconditioner, iterations, converged,
                 residuals, pc_residuals=None, breakdown=None, tol=0.0,
                 nullspace_residual=0.0):
        self.method = method
        self.preconditioner = preconditioner
        self.iterations = iterations
        self.converged = converged
        self.residuals = residuals
        self.pc_residuals = pc_residuals or []
        self.breakdown = breakdown
        self.tol = tol
        self.nullspace_residual = nullspace_residual

    def to_dict(self):
        return {
            "method": self.method,
            "preconditioner": self.preconditioner,
            "iterations": self.iterations,
            "converged": bool(self.converged),
            "residuals": [float(r) for r in self.residuals],
            "pc_residuals": [float(r) for r in self.pc_residuals],
            "breakdown": self.breakdown,
            "tol": float(self.tol),
            "nullspace_residual": float(self.nullspace_residual),
        }


def ritz_extremes(lanczos):
    """Smallest and largest eigenvalue of the Lanczos tridiagonal
    (alfa, beta) that `minres` records as `SolverReport.lanczos`: the
    extreme Ritz values of the preconditioned operator."""
    alfa, beta = lanczos
    w = eigh_tridiagonal(alfa, beta[:len(alfa) - 1], eigvals_only=True)
    return float(w[0]), float(w[-1])


def _as_matvec(A):
    return A if callable(A) else lambda x: A @ x


def _projector(nullspace):
    if nullspace is None:
        return lambda v: v
    n = nullspace / np.linalg.norm(nullspace)
    return lambda v: v - n * (n @ v)


def orthogonalize(Q, w):
    """Orthogonalize w in place against the orthonormal rows of Q.

    Two passes of classical Gram-Schmidt, w -= Q^T (Q w); returns the
    summed coefficients of both passes, the projection Q w of the
    input.  GMRES and the Lanczos probes of `spectra` both use it."""
    h = np.zeros(len(Q))
    for _ in range(2):
        c = Q @ w
        w -= Q.T @ c
        h += c
    return h


def _report(method, label, x, nullspace, iterations, converged, residuals,
            pc_residuals, breakdown, tol):
    """SolverReport carrying the final iterate as `x`; its
    nullspace_residual is |n . x| / |x| for the unit kernel vector n."""
    nres = 0.0
    if nullspace is not None and np.linalg.norm(x) > 0:
        n = nullspace / np.linalg.norm(nullspace)
        nres = abs(n @ x) / np.linalg.norm(x)
    rep = SolverReport(method, label, iterations, converged, residuals,
                       pc_residuals, breakdown, tol, nres)
    rep.x = x
    return rep


def minres(A, b, pc=None, tol=1e-8, maxiter=1000, nullspace=None,
           label=""):
    """Left-preconditioned MINRES.

    pc applies the inverse of the preconditioner.  Breakdown of the
    Lanczos inner product - (r, pc r) < 0, or = 0 for the first
    residual, possible when pc is indefinite or singular - is reported,
    never silently ignored.  `residuals` holds the relative residual of
    every iteration: the updated one, or the true one where it was
    recomputed (always the last entry of a converged solve).
    `lanczos` holds the recurrence's (alfa, beta): the diagonal of the
    Lanczos tridiagonal and, shifted by one, its off-diagonal.
    """
    matvec = _as_matvec(A)
    apply_pc = pc if pc is not None else (lambda x: x.copy())
    proj = _projector(nullspace)

    b = proj(np.asarray(b, dtype=float))
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
    residuals, pc_residuals = [], []
    alfas, betas = [], []

    def report(itn, conv, breakdown=None):
        rep = _report("minres", label, x, nullspace, itn, conv, residuals,
                      pc_residuals, breakdown, tol)
        rep.lanczos = (np.array(alfas), np.array(betas))
        return rep

    if bnorm == 0.0:
        return report(0, True)

    r1 = b.copy()
    y = proj(apply_pc(r1))
    beta1 = r1 @ y
    if beta1 < 0.0:
        return report(0, False, "indefinite preconditioner: (r, z) < 0")
    if beta1 == 0.0:
        return report(0, False, "singular preconditioner: (r, z) = 0")
    beta1 = np.sqrt(beta1)

    oldb, beta = 0.0, beta1
    dbar = epsln = sn = 0.0
    cs = -1.0
    phibar = beta1
    w = np.zeros_like(b)
    w2 = np.zeros_like(b)
    Aw = np.zeros_like(b)
    Aw2 = np.zeros_like(b)
    r2 = r1
    res = b.copy()

    itn = 0
    converged = False
    breakdown = None
    while itn < maxiter:
        itn += 1
        v = y / beta
        # Av is kept for the A w recurrence, so y is updated out of
        # place (proj returns its argument when there is no nullspace)
        Av = proj(matvec(v))
        y = Av if itn == 1 else Av - (beta / oldb) * r1
        alfa = v @ y
        alfas.append(alfa)
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = proj(apply_pc(r2))
        oldb = beta
        beta = r2 @ y
        if beta < 0.0:
            breakdown = "indefinite preconditioner: (r, z) < 0 at iteration %d" % itn
            break
        beta = np.sqrt(beta)
        betas.append(beta)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.hypot(gbar, beta), np.finfo(float).tiny)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1, Aw1 = w2, Aw2
        w2, Aw2 = w, Aw
        w = (v - oldeps * w1 - delta * w2) / gamma
        Aw = (Av - oldeps * Aw1 - delta * Aw2) / gamma
        x = x + phi * w
        res = res - phi * Aw
        pc_residuals.append(phibar)

        relres = np.linalg.norm(res) / bnorm
        if relres <= tol or beta == 0.0:
            res = b - matvec(x)
            relres = np.linalg.norm(res) / bnorm
        residuals.append(relres)
        if relres <= tol:
            converged = True
            break
        if beta == 0.0:
            breakdown = "Lanczos subspace exhausted at iteration %d" % itn
            break

    x = proj(x)
    return report(itn, converged, breakdown)


def gmres(A, b, pc=None, tol=1e-8, maxiter=1000, restart=50,
          nullspace=None, label=""):
    """Right-preconditioned restarted GMRES.

    The Arnoldi basis is orthogonalized by `orthogonalize` (two-pass
    classical Gram-Schmidt).  A restart cycle ends at `restart`
    iterations, at an estimated residual <= tol or at breakdown; it
    then forms the true residual proj(b - A x) once.  Its norm is the
    convergence test (and replaces the estimate as the last entry of
    `residuals` when it passes); otherwise it starts the next cycle.
    A Hessenberg column that the earlier rotations leave zero (pc
    annihilates the basis vector) is a breakdown: the cycle ends
    before it, and so does the solve."""
    matvec = _as_matvec(A)
    apply_pc = pc if pc is not None else (lambda x: x.copy())
    proj = _projector(nullspace)

    b = proj(np.asarray(b, dtype=float))
    bnorm = np.linalg.norm(b)
    n = len(b)
    x = np.zeros(n)
    residuals = []
    total = 0
    converged = False

    if bnorm == 0.0:
        return _report("gmres", label, x, nullspace, 0, True, residuals, [],
                       None, tol)

    r = b
    breakdown = None
    while total < maxiter and breakdown is None:
        m = min(restart, maxiter - total)
        V = np.zeros((m + 1, n))
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = np.linalg.norm(r)
        V[0] = r / g[0]
        for j in range(m):
            total += 1
            w = proj(matvec(apply_pc(V[j])))
            H[:j + 1, j] = orthogonalize(V[:j + 1], w)
            H[j + 1, j] = np.linalg.norm(w)
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            denom = np.hypot(H[j, j], H[j + 1, j])
            if denom == 0.0:
                breakdown = "singular operator at iteration %d" % total
                residuals.append(abs(g[j]) / bnorm)
                break
            cs[j] = H[j, j] / denom
            sn[j] = H[j + 1, j] / denom
            H[j, j] = denom
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            res = abs(g[j + 1]) / bnorm
            residuals.append(res)
            if H[j + 1, j] == 0.0 or res <= tol:
                break
            V[j + 1] = w / H[j + 1, j]
        k = j if breakdown else j + 1
        y = np.linalg.solve(np.triu(H[:k, :k]), g[:k])
        x = x + apply_pc(V[:k].T @ y)
        r = proj(b - matvec(x))
        relres = np.linalg.norm(r) / bnorm
        if relres <= tol:
            converged, breakdown = True, None
            residuals[-1] = relres
            break

    x = proj(x)
    return _report("gmres", label, x, nullspace, total, converged, residuals,
                   [], breakdown, tol)

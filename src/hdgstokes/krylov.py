"""Preconditioned Krylov solvers for the condensed saddle-point system.

minres is the Paige-Saunders method with a symmetric (positive or
indefinite) preconditioner applied on the left: the QR update, by
Givens rotations, of the tridiagonal that `lanczos` builds on the
pencil (A, pc^-1), one step per iteration.  It costs one matvec and
one preconditioner apply per iteration: the unpreconditioned residual
b - A x is updated by recurrence, with A w carried alongside each
search direction w and built from the A q each Lanczos step yields.
Convergence is judged on the true residual: it is recomputed once the
updated one reaches tol, and if it is still above tol the residual
recurrence (not the Lanczos recurrence) restarts from it and the
iteration goes on.  The preconditioner-norm estimate is monotone and
kept in the report for diagnostics.  The Lanczos tridiagonal is kept
too, as `SolverReport.lanczos`; `ritz_extremes` reads the extreme
eigenvalue estimates off it.

`lanczos` is the package's one Lanczos recurrence, on an operator or
a pencil, with no stored basis: besides minres, the probes of
`spectra` and the multigrid alpha of `amg` read their extreme
eigenvalues off its tridiagonal.

gmres is restarted GMRES with the preconditioner applied on the right,
so its recurrence estimate *is* the true residual norm; it tolerates
indefinite preconditioners by construction.  Each new basis vector is
orthogonalized by `orthogonalize`, which only GMRES uses: two passes
of classical Gram-Schmidt, as orthogonal to working precision as two
passes of modified Gram-Schmidt ("twice is enough"), each pass two
dense products with the basis instead of a Python loop over its
vectors.
Each restart cycle forms the true residual b - A x once, at its end;
it is both the convergence test and the start vector of the next
cycle, so a solve costs one matvec per iteration plus one per cycle.

Both solvers start from `_start` and end in one `SolverReport`.  They
optionally project against a one-dimensional kernel (the
constant-pressure representation): the operator is symmetric, so its
range is the Euclidean orthogonal complement of the kernel, and
projecting the residual and every preconditioned vector keeps all
iterates in that complement.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal


class SolverReport:
    """Iteration record of one Krylov solve.

    Besides the fields `to_dict` serializes it carries the final
    iterate `x`, projected off the kernel, and, for MINRES, `lanczos`:
    the recurrence's (alfa, beta), the diagonal of the Lanczos
    tridiagonal and, shifted by one, its off-diagonal (None for
    GMRES).  `nullspace_residual` is |n . x| / |x| for the unit kernel
    vector n, 0 without a kernel or for x = 0."""

    def __init__(self, method, preconditioner, x, iterations, converged,
                 residuals, pc_residuals=None, breakdown=None, tol=0.0,
                 kernel=None, lanczos=None):
        self.method = method
        self.preconditioner = preconditioner
        self.x = x
        self.iterations = iterations
        self.converged = converged
        self.residuals = residuals
        self.pc_residuals = pc_residuals or []
        self.breakdown = breakdown
        self.tol = tol
        self.lanczos = lanczos
        self.nullspace_residual = 0.0
        if kernel is not None and np.linalg.norm(x) > 0:
            self.nullspace_residual = abs(kernel @ x) / np.linalg.norm(x)

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
    """Smallest and largest eigenvalue, each selected by index, of the
    Lanczos tridiagonal (alfa, beta) that `minres` records as
    `SolverReport.lanczos`, or of the steps of `lanczos`: extreme Ritz
    values."""
    alfa, beta = lanczos
    j = len(alfa) - 1
    lo, hi = (eigh_tridiagonal(alfa, beta[:j], eigvals_only=True,
                               select="i", select_range=(i, i))[0]
              for i in (0, j))
    return float(lo), float(hi)


def lanczos(op, r, solve=None, z=None):
    """Yield each step's (alfa, beta, q, op(q)): the diagonal entry and
    the next off-diagonal entry of the Lanczos tridiagonal of a
    symmetric op, or of the pencil (op, N) when `solve` applies N^-1,
    with the step's Lanczos vector q.  r is the start vector, and z is
    solve(r) when the caller has it already (minres checks it first).

    The arithmetic is Paige and Saunders' MINRES: the residuals
    r = beta N q_next stay unnormalized, q = N^-1 r / beta, and the
    next residual is op(q) - (beta / beta_old) r_old - (alfa / beta) r,
    so a step is one product and one solve, with no N q beside q.
    Only the last two residuals are kept: without reorthogonalization
    the extreme Ritz values still converge, and lost orthogonality only
    repeats converged values (Paige, 1980).  beta is sqrt|(r, N^-1 r)|
    with the sign of that product, so that a negative one (N
    indefinite) stays visible; the caller stops at beta <= 0."""
    if z is None:
        z = r if solve is None else solve(r)
    beta = np.sqrt(r @ z)
    r1, r2, oldb = 0.0, r, beta
    while True:
        q = z / beta
        Aq = op(q)
        # out of place: Aq is yielded (minres builds A w from it)
        y = Aq - (beta / oldb) * r1
        alfa = q @ y
        y -= (alfa / beta) * r2
        r1, r2 = r2, y
        z = y if solve is None else solve(y)
        oldb, s = beta, y @ z
        beta = np.copysign(np.sqrt(abs(s)), s)
        yield alfa, beta, q, Aq


def orthogonalize(Q, w):
    """Orthogonalize w in place against the orthonormal rows of Q.

    Two passes of classical Gram-Schmidt, w -= Q^T (Q w); returns the
    summed coefficients of both passes, the projection Q w of the
    input.  GMRES is its only user: `lanczos` keeps no basis."""
    h = np.zeros(len(Q))
    for _ in range(2):
        c = Q @ w
        w -= Q.T @ c
        h += c
    return h


def _start(A, b, pc, nullspace):
    """What both solvers start from: the operator as a function, the
    preconditioner (a copy when pc is None), the unit kernel vector n
    (None without a kernel), the projector v - n (n . v) off it, and
    b projected, with its norm."""
    matvec = A if callable(A) else lambda x: A @ x
    apply_pc = pc if pc is not None else (lambda x: x.copy())
    kernel = None
    proj = lambda v: v
    if nullspace is not None:
        kernel = nullspace / np.linalg.norm(nullspace)
        proj = lambda v: v - kernel * (kernel @ v)
    b = proj(np.asarray(b, dtype=float))
    return matvec, apply_pc, kernel, proj, b, np.linalg.norm(b)


def minres(A, b, pc=None, tol=1e-8, maxiter=1000, nullspace=None,
           label=""):
    """Left-preconditioned MINRES over the steps of `lanczos`.

    pc applies the inverse of the preconditioner.  (b, pc b) is checked
    before the first step, and pc b starts the recurrence.  Breakdown
    of the Lanczos inner product - (r, pc r) < 0, or = 0 for the first
    residual, possible when pc is indefinite or singular - is reported,
    never silently ignored.  `residuals` holds the relative residual of
    every iteration: the updated one, or the true one where it was
    recomputed (always the last entry of a converged solve).
    """
    matvec, apply_pc, kernel, proj, b, bnorm = _start(A, b, pc, nullspace)
    x = np.zeros_like(b)
    residuals, pc_residuals = [], []
    alfas, betas = [], []

    def report(itn, conv, breakdown=None):
        return SolverReport("minres", label, x, itn, conv, residuals,
                            pc_residuals, breakdown, tol, kernel,
                            (np.array(alfas), np.array(betas)))

    if bnorm == 0.0:
        return report(0, True)

    y = proj(apply_pc(b))
    beta1 = b @ y
    if beta1 < 0.0:
        return report(0, False, "indefinite preconditioner: (r, z) < 0")
    if beta1 == 0.0:
        return report(0, False, "singular preconditioner: (r, z) = 0")
    steps = lanczos(lambda v: proj(matvec(v)), b,
                    lambda r: proj(apply_pc(r)), y)

    dbar = epsln = sn = 0.0
    cs = -1.0
    phibar = np.sqrt(beta1)
    w = w2 = Aw = Aw2 = np.zeros_like(b)
    res = b

    itn = 0
    converged = False
    breakdown = None
    for itn, (alfa, beta, v, Av) in zip(range(1, maxiter + 1), steps):
        alfas.append(alfa)
        if beta < 0.0:
            breakdown = "indefinite preconditioner: (r, z) < 0 at iteration %d" % itn
            break
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
    classical Gram-Schmidt).  A restart cycle ends after min(restart, n)
    iterations, n the dimension, at an estimated residual <= tol or at
    breakdown; it then forms the true residual proj(b - A x) once.  Its
    norm is the convergence test (and replaces the estimate as the last
    entry of `residuals` when it passes); otherwise it starts the next
    cycle.  A Hessenberg column that the earlier rotations leave zero
    (pc annihilates the basis vector) is a breakdown: the cycle ends
    before it, and so does the solve."""
    matvec, apply_pc, kernel, proj, b, bnorm = _start(A, b, pc, nullspace)
    n = len(b)
    x = np.zeros(n)
    residuals = []
    total = 0
    converged = bnorm == 0.0    # b = 0: x = 0, no iteration
    r = b
    breakdown = None
    while not converged and total < maxiter and breakdown is None:
        m = min(restart, maxiter - total, n)
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

    return SolverReport("gmres", label, proj(x), total, converged,
                        residuals, [], breakdown, tol, kernel)

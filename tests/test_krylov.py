import itertools
import json

import numpy as np
import pytest
import scipy.sparse as sp

from hdgstokes import krylov


def _spd(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


def _path_laplacian(n):
    """1D path-graph Laplacian; its kernel is the constants."""
    main = 2.0 * np.ones(n)
    main[0] = main[-1] = 1.0
    return sp.diags([main, -np.ones(n - 1), -np.ones(n - 1)],
                    [0, -1, 1]).tocsr()


def test_minres_solves_spd():
    A = _spd(40, 0)
    b = np.arange(1.0, 41.0)
    rep = krylov.minres(A, b, tol=1e-10, maxiter=200)
    assert rep.converged
    x_ref = np.linalg.solve(A, b)
    assert np.linalg.norm(rep.x - x_ref) < 1e-8 * np.linalg.norm(x_ref)
    assert np.linalg.norm(b - A @ rep.x) <= 1e-10 * np.linalg.norm(b)


def test_minres_solves_symmetric_indefinite():
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((50, 50)))
    lam = np.concatenate([np.linspace(1, 5, 25), -np.linspace(1, 5, 25)])
    A = (Q * lam) @ Q.T
    b = rng.standard_normal(50)
    rep = krylov.minres(A, b, tol=1e-10, maxiter=300)
    assert rep.converged
    assert np.linalg.norm(b - A @ rep.x) <= 1e-10 * np.linalg.norm(b)


def test_minres_exact_preconditioner_one_step():
    A = _spd(30, 2)
    Ainv = np.linalg.inv(A)
    b = np.ones(30)
    rep = krylov.minres(A, b, pc=lambda r: Ainv @ r, tol=1e-12, maxiter=50)
    assert rep.converged and rep.iterations <= 2


def test_minres_reports_indefinite_preconditioner():
    A = _spd(20, 3)
    b = np.ones(20)
    rep = krylov.minres(A, b, pc=lambda r: -r, tol=1e-10, maxiter=50)
    assert not rep.converged
    assert rep.breakdown is not None
    assert "indefinite" in rep.breakdown


# A = diag(1, 2, 3), b = e_1, and a preconditioner r -> (0, r_0, 0):
# (b, pc b) = 0 for b != 0, and pc annihilates pc b
_DIAG3 = np.diag([1.0, 2.0, 3.0])
_E1 = np.array([1.0, 0.0, 0.0])


def _shift_pc(r):
    return np.array([0.0, r[0], 0.0])


def test_minres_reports_zero_first_lanczos_product():
    rep = krylov.minres(_DIAG3, _E1, pc=_shift_pc, tol=1e-10, maxiter=50)
    assert not rep.converged
    assert rep.breakdown is not None and "(r, z) = 0" in rep.breakdown
    assert rep.iterations == 0


def test_gmres_reports_annihilated_column():
    rep = krylov.gmres(_DIAG3, _E1, pc=_shift_pc, tol=1e-10, maxiter=50)
    assert not rep.converged
    assert rep.breakdown is not None and "singular" in rep.breakdown
    assert rep.iterations == len(rep.residuals) == 2
    assert np.all(np.isfinite(rep.x))
    assert rep.to_dict()["breakdown"] == rep.breakdown


def test_minres_preconditioned_residual_monotone():
    A = _spd(60, 4)
    M = np.diag(1.0 / np.diag(A))
    b = np.sin(np.arange(60.0))
    rep = krylov.minres(A, b, pc=lambda r: M @ r, tol=1e-12, maxiter=200)
    hist = np.array(rep.pc_residuals)
    assert np.all(np.diff(hist) <= 1e-12 * hist[0])


def test_minres_nullspace_projection():
    # kernel = constants, rhs in the range
    n = 25
    A = _path_laplacian(n)
    nv = np.ones(n) / np.sqrt(n)
    rng = np.random.default_rng(5)
    b = A @ rng.standard_normal(n)
    rep = krylov.minres(A, b, tol=1e-10, maxiter=200, nullspace=nv)
    assert rep.converged
    assert abs(rep.x @ nv) < 1e-10 * np.linalg.norm(rep.x)
    assert rep.nullspace_residual < 1e-10


@pytest.mark.parametrize("case", ["dense", "nullspace"])
@pytest.mark.parametrize("j", [5, 10, 15])
def test_minres_recorded_residual_is_true_residual(case, j):
    # the residual updated by recurrence must track b - A x_j
    if case == "dense":
        A, nv = _spd(60, 12), None
        b = np.cos(np.arange(60.0))
    else:
        n = 40
        A, nv = _path_laplacian(n), np.ones(n) / np.sqrt(n)
        b = A @ np.random.default_rng(13).standard_normal(n)
    rep = krylov.minres(A, b, tol=1e-14, maxiter=j, nullspace=nv)
    assert rep.iterations == j and len(rep.residuals) == j
    true = np.linalg.norm(b - A @ rep.x) / np.linalg.norm(b)
    assert abs(rep.residuals[j - 1] - true) <= 1e-12


@pytest.mark.parametrize("nullspace", [False, True])
def test_minres_one_matvec_per_iteration(nullspace):
    n = 60
    if nullspace:
        A, nv = _path_laplacian(n), np.ones(n) / np.sqrt(n)
        b = A @ np.sin(np.arange(n, dtype=float))
    else:
        A, nv = _spd(n, 14), None
        b = np.ones(n)
    calls, pc_calls = [], []

    def counted(x):
        calls.append(1)
        return A @ x

    def counted_pc(r):
        pc_calls.append(1)
        return r.copy()

    rep = krylov.minres(counted, b, counted_pc, tol=1e-10, maxiter=500,
                        nullspace=nv)
    assert rep.converged
    assert np.linalg.norm(b - A @ rep.x) <= 1e-10 * np.linalg.norm(b)
    assert len(calls) <= rep.iterations + 2
    assert len(pc_calls) <= rep.iterations + 1


def test_minres_ritz_extremes_known_spectrum():
    A = sp.diags(np.arange(1.0, 11.0)).tocsr()
    b = np.random.default_rng(11).standard_normal(10)
    rep = krylov.minres(A, b, tol=1e-12, maxiter=30)
    alfa, beta = rep.lanczos
    assert len(alfa) == rep.iterations and len(beta) == rep.iterations
    lo, hi = krylov.ritz_extremes(rep.lanczos)
    assert abs(lo - 1.0) < 1e-8
    assert abs(hi - 10.0) < 1e-8


@pytest.mark.parametrize("pencil", [False, True])
def test_lanczos_ritz_extremes_of_a_diagonal_matrix(pencil):
    """n steps of the recurrence on diag(d), or on the pencil
    (diag(d m), diag(m)), find the ends of d."""
    n = 30
    rng = np.random.default_rng(17)
    d = np.linspace(0.5, 4.0, n)
    m = rng.uniform(0.5, 2.0, n) if pencil else np.ones(n)
    steps = krylov.lanczos(lambda x: d * m * x, rng.standard_normal(n),
                           (lambda r: r / m) if pencil else None)
    alfa, beta = np.array([step[:2] for step in itertools.islice(steps, n)]).T
    lo, hi = krylov.ritz_extremes((alfa, beta))
    assert abs(lo - 0.5) < 1e-12 and abs(hi - 4.0) < 1e-12


def test_minres_maxiter_exhaustion():
    A = _spd(50, 6)
    b = np.ones(50)
    rep = krylov.minres(A, b, tol=1e-14, maxiter=3)
    assert not rep.converged
    assert rep.iterations == 3


@pytest.mark.parametrize("solver", [krylov.minres, krylov.gmres])
def test_zero_rhs_returns_zero_solution(solver):
    # the cavity with `kind = zero` has b = 0; the driver reads rep.x
    rep = solver(_spd(10, 11), np.zeros(10), nullspace=np.ones(10))
    assert rep.converged and rep.iterations == 0
    assert np.array_equal(rep.x, np.zeros(10))
    assert rep.nullspace_residual == 0.0


def test_gmres_solves_nonsymmetric():
    # small perturbation keeps the field of values away from zero
    rng = np.random.default_rng(7)
    A = np.eye(40) + 0.05 * rng.standard_normal((40, 40))
    b = rng.standard_normal(40)
    rep = krylov.gmres(A, b, tol=1e-10, maxiter=200, restart=20)
    assert rep.converged
    assert np.linalg.norm(b - A @ rep.x) <= 1e-9 * np.linalg.norm(b)
    assert np.abs(A @ rep.x - b).max() < 1e-9


def test_gmres_right_preconditioning_one_step():
    A = _spd(30, 8)
    Ainv = np.linalg.inv(A)
    b = np.ones(30)
    rep = krylov.gmres(A, b, pc=lambda r: Ainv @ r, tol=1e-12, maxiter=50)
    assert rep.converged and rep.iterations <= 2


def test_gmres_restart_beyond_dimension_is_full_gmres():
    """A cycle holds at most n basis vectors, n the dimension: restart
    and maxiter of 10^9 run as restart n, where a basis of 10^9 + 1
    vectors would not be allocated."""
    rng = np.random.default_rng(13)
    A = np.eye(40) + 0.05 * rng.standard_normal((40, 40))
    b = rng.standard_normal(40)
    runs = [krylov.gmres(A, b, tol=1e-10, maxiter=10**9, restart=restart)
            for restart in (40, 10**9)]
    assert runs[1].converged
    assert np.array_equal(runs[0].x, runs[1].x)
    assert runs[0].residuals == runs[1].residuals


def test_gmres_restart_cycles():
    rng = np.random.default_rng(9)
    A = np.eye(60) + 0.05 * rng.standard_normal((60, 60))
    b = rng.standard_normal(60)
    rep = krylov.gmres(A, b, tol=1e-9, maxiter=400, restart=5)
    assert rep.converged
    assert rep.iterations > 5  # must have crossed a restart boundary
    assert np.linalg.norm(b - A @ rep.x) <= 1e-8 * np.linalg.norm(b)


def test_gmres_one_matvec_per_iteration_and_cycle():
    # the true residual that ends a restart cycle starts the next one
    rng = np.random.default_rng(9)
    A = np.eye(60) + 0.05 * rng.standard_normal((60, 60))
    b = rng.standard_normal(60)
    calls = []

    def counted(x):
        calls.append(1)
        return A @ x

    restart = 5
    rep = krylov.gmres(counted, b, tol=1e-9, maxiter=400, restart=restart)
    assert rep.converged and rep.iterations > restart
    cycles = -(-rep.iterations // restart)
    assert len(calls) == rep.iterations + cycles


def test_orthogonalize_two_pass_gram_schmidt():
    rng = np.random.default_rng(15)
    Q = np.linalg.qr(rng.standard_normal((200, 30)))[0].T
    w0 = rng.standard_normal(200)
    w = w0.copy()
    h = krylov.orthogonalize(Q, w)
    assert np.abs(h - Q @ w0).max() <= 1e-14
    assert np.abs(Q @ w).max() <= 1e-15 * np.linalg.norm(w0)


def test_gmres_nullspace_projection():
    n = 25
    A = _path_laplacian(n)
    nv = np.ones(n) / np.sqrt(n)
    b = A @ np.sin(np.arange(n, dtype=float))
    rep = krylov.gmres(A, b, tol=1e-10, maxiter=200, nullspace=nv)
    assert rep.converged
    assert abs(rep.x @ nv) < 1e-10 * np.linalg.norm(rep.x)


def test_report_serializes():
    A = _spd(10, 10)
    rep = krylov.minres(A, np.ones(10), tol=1e-8, maxiter=50, label="PM")
    d = rep.to_dict()
    text = json.dumps(d)
    back = json.loads(text)
    assert back["method"] == "minres"
    assert back["preconditioner"] == "PM"
    assert back["converged"] is True
    assert isinstance(back["residuals"], list)
    # the Lanczos tridiagonal stays out of the serialized report
    assert "lanczos" not in back

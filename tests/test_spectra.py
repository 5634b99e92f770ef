import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import constant_facet_velocity_fields, dg_penalty
from hdgstokes import amg, assembly, condense, mesh, spaces, spectra


def _complement(vectors, n):
    """Orthonormal basis of the complement of the given columns."""
    C = np.atleast_2d(np.asarray(vectors))
    if C.shape[0] == n:
        C = C.T
    return sla.null_space(C)


@pytest.fixture(scope="module", params=["sys2", "tri_k1", "quad_jitter_k3"])
def oracle_sys(request):
    """Spaces, blocks and condensed system for the dense oracles: the
    two-cell k = 2 system, jittered triangles at k = 1, and jittered
    quads at k = 3 with alpha = 54."""
    if request.param == "sys2":
        return request.getfixturevalue("sys2")
    if request.param == "tri_k1":
        m, prob = request.getfixturevalue("tri_jitter"), \
            spaces.lid_driven_cavity(degree=1)
    else:
        m, prob = request.getfixturevalue("quad_jitter"), \
            spaces.lid_driven_cavity(degree=3, alpha=54.0)
    sp_ = spaces.build_spaces(m, prob.degree)
    bs = assembly.build_block_system(sp_, prob)
    return sp_, bs, condense.condense(bs)


def test_schur_spectrum_matches_dense_oracle(oracle_sys):
    sp_, bs, cs = oracle_sys
    A = bs.velocity_matrix().toarray()
    B = bs.divergence_matrix().toarray()
    M = bs.pressure_mass().toarray()
    S = B @ np.linalg.solve(A, B.T)
    c = sp_.constant_pressure
    Z = _complement(M @ c, len(c))
    w = sla.eigh(Z.T @ S @ Z, Z.T @ M @ Z, eigvals_only=True)
    lo, hi = spectra.schur_spectrum(cs)
    assert abs(lo - w[0]) < 1e-9 * abs(w[0])
    assert abs(hi - w[-1]) < 1e-9 * abs(w[-1])
    assert lo > 0


def test_constant_pressure_rayleigh_quotient_zero(sys2):
    """The constant pressure is in the kernel of the pressure Schur
    complement Bbar Abar^-1 Bbar^T - C, so its Rayleigh quotient is 0."""
    sp_, _, cs = sys2
    Bbar, C = spectra._pressure_rows(cs)
    c = sp_.constant_pressure
    y = amg.spd_lu(cs.Abar).solve(Bbar.T @ c)
    # the scale of each entry is the sum of the magnitudes of its terms
    scale = (abs(Bbar) @ abs(y) + abs(C) @ abs(c)).max()
    assert scale > 0
    assert np.abs(Bbar @ y - C @ c).max() <= 1e-10 * scale


def _dense_schur_identity(bs, cs):
    """The identity residual with both complements formed whole and
    symmetrized, through the same `spd_lu` factorizations."""
    def schur(A, B):
        S = B @ amg.spd_lu(A).solve(B.T.toarray())
        return 0.5 * (S + S.T)
    nt = cs.n_t
    S_full = schur(bs.velocity_matrix(), bs.divergence_matrix().tocsr())
    S_cond = schur(cs.Abar, cs.K[nt:, :nt]) - cs.K[nt:, nt:].toarray()
    return np.abs(S_full - S_cond).max()


@pytest.mark.parametrize("name", ["sys2", "sys4x4"])
def test_condensed_schur_identity_blocked_matches_dense(name, request):
    _, bs, cs = request.getfixturevalue(name)
    res = spectra.condensed_schur_identity(bs, cs)
    assert res < 1e-12
    assert abs(res - _dense_schur_identity(bs, cs)) < 1e-14


def test_condensed_schur_identity_memory_is_blocked(cavity):
    """On a 12x12 base (2,232 pressure unknowns) the probe traces less
    than half the memory of one dense complement; the dense route
    traced 250 MiB there."""
    m = mesh.generate(12, 12)
    sp_ = spaces.build_spaces(m, cavity.degree)
    bs = assembly.build_block_system(sp_, cavity)
    cs = condense.condense(bs)
    n = cs.n_p + cs.n_s
    tracemalloc.start()
    try:
        res = spectra.condensed_schur_identity(bs, cs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res < 1e-12
    assert peak < 0.5 * n * n * 8


def test_element_block_spectrum_matches_dense_oracle(oracle_sys):
    sp_, bs, cs = oracle_sys
    Auu = bs.A_uu.toarray()
    Sp = bs.B_pu.toarray() @ np.linalg.solve(Auu, bs.B_pu.toarray().T)
    Ss = bs.B_su.toarray() @ np.linalg.solve(Auu, bs.B_su.toarray().T)
    wp = sla.eigh(Sp, bs.M_p.toarray(), eigvals_only=True)
    ws = sla.eigh(Ss, bs.M_s.toarray(), eigvals_only=True)
    lo, hi = spectra.element_block_spectrum(cs)
    assert abs(lo - min(wp[0], ws[0])) < 1e-9
    assert abs(hi - max(wp[-1], ws[-1])) < 1e-9
    assert lo > 0
    # the upper bound below 1 is a low-degree property: at k = 3 the
    # top eigenvalue is 1.58 on the jittered quads (1.98 on triangles)
    if sp_.degree < 3:
        assert hi < 1.0


def test_element_block_spectrum_mesh_independent_when_structured(cavity):
    vals = []
    for n in (4, 8):
        m = mesh.generate(n, n)
        sp_ = spaces.build_spaces(m, 2)
        bs = assembly.build_block_system(sp_, cavity)
        cs = condense.condense(bs)
        vals.append(spectra.element_block_spectrum(cs))
    (l0, u0), (l1, u1) = vals
    assert abs(l1 - l0) < 1e-2 * l0
    assert abs(u1 - u0) < 1e-2 * u0


def test_coercivity_matches_dense_oracle(tri2, cavity):
    sp_ = spaces.build_spaces(tri2, 2)
    bs = assembly.build_block_system(sp_, cavity, bcs=False)
    A = bs.velocity_matrix().toarray()
    N = assembly.velocity_blocks(sp_, cavity.alpha,
                                 consistency=False).velocity_matrix().toarray()
    consts = constant_facet_velocity_fields(sp_)
    cols = []
    for d, fn in enumerate([lambda x, y: (np.ones_like(x), 0 * x),
                            lambda x, y: (0 * x, np.ones_like(x))]):
        cols.append(np.concatenate([spaces.project_velocity(sp_, fn),
                                    consts[:, d]]))
    # both forms vanish on the constants, so any complement gives the
    # same restricted extremes
    Z = _complement(np.column_stack(cols), A.shape[0])
    w = sla.eigh(Z.T @ A @ Z, Z.T @ N @ Z, eigvals_only=True)
    lo, hi = spectra.coercivity_bounds(sp_, cavity.alpha)
    assert abs(lo - w[0]) < 1e-8 * max(1.0, abs(w[0]))
    assert abs(hi - w[-1]) < 1e-8 * abs(w[-1])
    assert lo > 0


def test_coercivity_failure_detected_for_weak_stabilization(tri4x4):
    weak = spaces.lid_driven_cavity(degree=2, alpha=0.01)
    lo, _ = spectra.coercivity_bounds(spaces.build_spaces(tri4x4, 2),
                                      weak.alpha)
    assert lo <= 0.0


def test_cell_infsup_positive_and_congruence_invariant(tri4x4, cavity):
    sp_ = spaces.build_spaces(tri4x4, 2)
    betas = spectra.cell_infsup(assembly.build_block_system(sp_, cavity))
    assert betas.shape == (tri4x4.num_cells,)
    assert np.all(betas > 0)
    # all cells of the structured mesh are congruent right triangles
    assert betas.max() - betas.min() < 1e-12


def test_cell_infsup_matches_dense_oracle(sys2):
    sp_, bs, _ = sys2
    alpha = bs.alpha
    S1 = (assembly.scalar_stiffness(sp_.chunk())
          + dg_penalty(sp_, alpha))[0]
    nb = sp_.nb
    N = np.zeros((2 * nb, 2 * nb))
    N[:nb, :nb] = S1
    N[nb:, nb:] = S1
    D = assembly.local_divergence(sp_.chunk())[0]
    S = D @ np.linalg.solve(N, D.T)
    psi, qw = sp_.chunk().psi[0], sp_.cell_qw[0]
    Mloc = psi.T @ (qw[:, None] * psi)
    w = sla.eigh(S, Mloc, eigvals_only=True)
    got = spectra.cell_infsup(bs)[0]
    assert abs(got - np.sqrt(w[0])) < 1e-11


def test_facet_infsup_matches_element_schur(oracle_sys):
    """The facet rows' pencil is (B_su N^-1 B_su^T, M_s) with N the
    cell DG norm; check positivity and the dense reduction."""
    sp_, bs, _ = oracle_sys
    val = spectra.facet_infsup(bs)
    assert val > 0
    S1 = assembly.scalar_stiffness(sp_.chunk()) + dg_penalty(sp_, bs.alpha)
    nc, nb = tuple([sp_.mesh.num_cells, sp_.nb])
    Ssum = np.zeros((sp_.n_pbar, sp_.n_pbar))
    Bsu = bs.B_su.toarray()
    for c in range(nc):
        N = np.zeros((2 * nb, 2 * nb))
        N[:nb, :nb] = S1[c]
        N[nb:, nb:] = S1[c]
        cols = np.arange(c * 2 * nb, (c + 1) * 2 * nb)
        Bc = Bsu[:, cols]
        Ssum += Bc @ np.linalg.solve(N, Bc.T)
    w = sla.eigh(Ssum, bs.M_s.toarray(), eigvals_only=True)
    assert abs(val - np.sqrt(max(w[0], 0.0))) < 1e-10


def test_trace_seminorm_kernel_and_value(tri2):
    sp_ = spaces.build_spaces(tri2, 2)
    T = spectra.trace_seminorm_matrix(sp_)
    consts = constant_facet_velocity_fields(sp_)
    assert np.abs(T @ consts).max() < 1e-12

    # independent evaluation for the trace of (x, 0)
    tbar = spaces.project_facet_velocity(sp_, lambda x, y: (x, 0 * x))
    val = tbar @ (T @ tbar)
    m = tri2
    total = 0.0
    from hdgstokes import quadrature
    pts, w = quadrature.facet_rule(m, 6)
    for c in range(m.num_cells):
        fs = m.cell_facets[c]
        x = pts[fs][..., 0]
        wts = w[fs]
        perim = m.facet_lengths[fs].sum()
        mean = (wts * x).sum() / perim
        total += ((wts * (x - mean) ** 2).sum()) / m.h[c]
    assert abs(val - total) < 1e-12 * max(total, 1.0)


def test_pair_norm_of_matched_traces_is_dirichlet_energy(sys_jitter):
    sp_, _, _ = sys_jitter
    N = assembly.velocity_blocks(sp_, 24.0,
                                 consistency=False).velocity_matrix()
    u = spaces.project_velocity(sp_, lambda x, y: (x ** 2, y ** 2))
    t = spaces.project_facet_velocity(sp_, lambda x, y: (x ** 2, y ** 2))
    z = np.concatenate([u, t])
    assert abs(z @ (N @ z) - 32.0 / 3.0) < 1e-10


def test_trace_form_ratios_reproducible(sys4x4):
    _, _, cs = sys4x4
    r1 = spectra.trace_form_ratios(cs, n_samples=10, seed=3)
    r2 = spectra.trace_form_ratios(cs, n_samples=10, seed=3)
    assert np.array_equal(r1, r2)
    assert r1.shape == (10,)
    assert np.all(np.isfinite(r1)) and np.all(r1 > 0)


def test_field_checks_oracles(sys4x4):
    sp_, _, _ = sys4x4
    swirl = spaces.project_velocity(sp_, lambda x, y: (y, x))
    fc = spectra.field_checks(sp_, swirl)
    assert fc["max_divergence"] < 1e-12
    assert fc["max_normal_jump"] < 1e-12
    # quadrature points sit strictly inside the cells, so the sampled
    # maximum sits a bit below the corner value sqrt(2)
    assert 1.1 < fc["velocity_scale"] <= np.sqrt(2.0) + 1e-12

    expand = spaces.project_velocity(sp_, lambda x, y: (x, y))
    fc = spectra.field_checks(sp_, expand)
    assert abs(fc["max_divergence"] - 2.0) < 1e-11

    rng = np.random.default_rng(0)
    fc = spectra.field_checks(sp_, rng.standard_normal(sp_.n_u))
    assert fc["max_normal_jump"] > 0.1


def _diagonal_in_rotated_basis(lam, seed):
    """Q diag(lam) Q^T for a random orthogonal Q, and Q."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(
        (len(lam), len(lam))))
    return (Q * lam) @ Q.T, Q


def test_lanczos_extremes_restricted_keeps_kernel_out():
    """On the complement of a kernel vector the smallest eigenvalue is
    the next one up, not zero; without the restriction the kernel's
    zero is found, on the scale of the largest eigenvalue."""
    lam = np.concatenate([[0.0], np.linspace(0.01, 3.0, 199)])
    A, Q = _diagonal_in_rotated_basis(lam, 5)
    lo, hi = spectra._lanczos_extremes(
        spectra._restricted(A.__matmul__, Q[:, 0]), len(lam) - 1)
    assert abs(lo - 0.01) < 1e-12 and abs(hi - 3.0) < 1e-12
    lo, hi = spectra._lanczos_extremes(A.__matmul__, len(lam))
    assert abs(lo) < 1e-12 and abs(hi - 3.0) < 1e-12
    (top,) = spectra._lanczos_extremes(A.__matmul__, len(lam), ends=(-1,))
    assert abs(top - 3.0) < 1e-12


def test_lanczos_extremes_step_cap_raises(monkeypatch):
    A, _ = _diagonal_in_rotated_basis(np.linspace(1e-3, 1.0, 300), 6)
    monkeypatch.setattr(spectra, "_LANCZOS_MAX_STEPS", 20)
    with pytest.raises(RuntimeError, match="did not converge in 20 steps"):
        spectra._lanczos_extremes(A.__matmul__, 300)


def test_lanczos_extremes_converges_between_checks():
    """A pencil that converges only at step n, which is not a multiple
    of the check cadence, is caught by the last-step check."""
    n = 2 * spectra._LANCZOS_CHECK + 3
    A, _ = _diagonal_in_rotated_basis(np.linspace(1.0, 2.0, n), 7)
    calls = []

    def op(x):
        calls.append(1)
        return A @ x
    lo, hi = spectra._lanczos_extremes(op, n)
    w = np.linalg.eigvalsh(A)
    assert len(calls) == n and n % spectra._LANCZOS_CHECK
    assert abs(lo - w[0]) < 1e-12 and abs(hi - w[-1]) < 1e-12


def test_lanczos_extremes_pencil_matches_dense_oracle():
    """With `solve` the recurrence runs the pencil (A, N) in the N inner
    product: an indefinite A against an SPD N gives the extremes of
    eigh(A, N)."""
    n = 150
    rng = np.random.default_rng(11)
    A, _ = _diagonal_in_rotated_basis(np.linspace(-1.0, 3.0, n), 12)
    G = rng.standard_normal((n, n))
    N = G @ G.T / n + np.eye(n)
    w = sla.eigh(A, N, eigvals_only=True)
    factor = sla.cho_factor(N)
    solve = lambda y: sla.cho_solve(factor, y)
    scale = np.abs(w).max()
    lo, hi = spectra._lanczos_extremes(A.__matmul__, n, solve=solve)
    assert abs(lo - w[0]) < 1e-12 * scale and abs(hi - w[-1]) < 1e-12 * scale
    (top,) = spectra._lanczos_extremes(A.__matmul__, n, ends=(-1,),
                                       solve=solve)
    assert abs(top - w[-1]) < 1e-12 * scale


def test_lanczos_extremes_keeps_no_basis():
    """A run of over 200 steps at n = 50,000 peaks below 20 vectors:
    the recurrence holds a fixed handful of vectors, not one per
    step."""
    n = 50_000
    d = np.linspace(1.0, 2.0, n)
    d[0], d[-1] = 0.997, 2.003
    calls = []

    def op(x):
        calls.append(1)
        return d * x
    tracemalloc.start()
    try:
        lo, hi = spectra._lanczos_extremes(op, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(calls) > 200
    assert peak < 20 * d.nbytes
    assert abs(lo - d[0]) < 1e-12 and abs(hi - d[-1]) < 1e-12


@pytest.mark.parametrize("shape, nx, k, jitter, seed, alpha", [
    ("triangle", 2, 1, 0.0, 0, None),
    ("triangle", 2, 2, 0.0, 0, None),
    ("triangle", 2, 3, 0.0, 0, None),
    ("quadrilateral", 2, 3, 0.2, 1, None),
    # a thin positive margin (c_a = +0.009) over cells whose own
    # forms are indefinite off their constants
    ("triangle", 6, 3, 0.25, 2, 54.0),
])
def test_coercivity_matches_dense_oracle_over_configurations(
        shape, nx, k, jitter, seed, alpha):
    """The sparse Lanczos pencil against the dense eigensolver on an
    orthonormal complement of the constant fields."""
    m = mesh.generate(nx, nx, shape, jitter=jitter, seed=seed)
    prob = spaces.lid_driven_cavity(degree=k, alpha=alpha)
    sp_ = spaces.build_spaces(m, k)
    A = assembly.build_block_system(sp_, prob, bcs=False) \
        .velocity_matrix().toarray()
    N = assembly.velocity_blocks(sp_, prob.alpha, consistency=False) \
        .velocity_matrix().toarray()
    consts = constant_facet_velocity_fields(sp_)
    cols = [np.concatenate([spaces.project_velocity(sp_, fn), consts[:, d]])
            for d, fn in enumerate([lambda x, y: (np.ones_like(x), 0 * x),
                                    lambda x, y: (0 * x, np.ones_like(x))])]
    Z = _complement(np.column_stack(cols), A.shape[0])
    w = sla.eigh(Z.T @ A @ Z, Z.T @ N @ Z, eigvals_only=True)
    lo, hi = spectra.coercivity_bounds(sp_, prob.alpha)
    assert abs(lo - w[0]) < 1e-8 * max(1.0, abs(w[0]))
    assert abs(hi - w[-1]) < 1e-8 * abs(w[-1])


def test_coercivity_weak_penalty_converges_on_a_larger_verify_base():
    """The alpha = 0.01 probe that verify runs on its base level takes
    1296 Lanczos steps on 16x16 triangles at k = 2; on these congruent
    cells its bounds equal those of 4x4."""
    small, big = (spectra.coercivity_bounds(
        spaces.build_spaces(mesh.generate(n, n), 2), 0.01) for n in (4, 16))
    assert small[0] <= 0.0
    assert np.allclose(big, small, rtol=1e-12, atol=0.0)


def _ratio_system(shape, k, jitter):
    m = mesh.generate(3, 3, shape, jitter=jitter, seed=1)
    sp_ = spaces.build_spaces(m, k)
    prob = spaces.lid_driven_cavity(degree=k)
    return condense.condense(assembly.build_block_system(sp_, prob))


@pytest.mark.parametrize("jitter", [0.0, 0.2])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("shape", ["triangle", "quadrilateral"])
def test_trace_form_ratios_match_per_sample_loop(shape, k, jitter):
    """The stacked ratios equal one lift and one quadrature form per
    sample, drawn from the same stream; 13 samples leave a partial
    stack."""
    cs = _ratio_system(shape, k, jitter)
    sp_ = cs.spaces
    Nh = spectra.trace_seminorm_matrix(sp_)
    rng = np.random.default_rng(3)
    interior = ~sp_.mesh.boundary_mask
    loop = []
    for _ in range(13):
        w = np.zeros(sp_.n_ubar)
        sp_.facet_velocity_coeffs(w)[interior] = rng.standard_normal(
            (interior.sum(), 2, sp_.nbf))
        loop.append(condense.trace_form_value(cs, w, w)
                    / (w @ (Nh @ w)))
    got = spectra.trace_form_ratios(cs, n_samples=13, seed=3)
    assert got.shape == (13,)
    assert np.abs(got - loop).max() <= 1e-13 * np.abs(loop).max()


@pytest.mark.parametrize("shape", ["triangle", "quadrilateral"])
def test_trace_form_value_stack_matches_per_field(shape):
    """A (2, 3) stack of field pairs gives the value of each pair, and
    the lift of a stack is the lift of each field."""
    cs = _ratio_system(shape, 2, 0.2)
    rng = np.random.default_rng(0)
    V = rng.standard_normal((2, 3, cs.n_t))
    W = rng.standard_normal((2, 3, cs.n_t))
    got = condense.trace_form_value(cs, V, W)
    assert got.shape == (2, 3)
    want = np.array([condense.trace_form_value(cs, v, w)
                     for v, w in zip(V.reshape(6, -1), W.reshape(6, -1))])
    assert np.abs(got.ravel() - want).max() <= 1e-13 * np.abs(want).max()
    lifted = condense.lift_traces(cs, V).reshape(6, -1)
    one = np.array([condense.lift_traces(cs, v) for v in V.reshape(6, -1)])
    assert np.abs(lifted - one).max() <= 1e-13 * np.abs(one).max()

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from hdgstokes import amg, assembly, condense, krylov, mesh, precond, spaces


@pytest.fixture(scope="module")
def small(cavity):
    m = mesh.generate(2, 2, jitter=0.1, seed=3)
    sp_ = spaces.build_spaces(m, cavity.degree)
    bs = assembly.build_block_system(sp_, cavity)
    return bs, condense.condense(bs)


def _dense_sweep_operator(bs, cs, kind):
    """(P_L + P_D) P_D^-1 (P_L^T + P_D) composed explicitly."""
    n, nt, np_ = cs.size, cs.n_t, cs.n_p
    K = cs.K.toarray()
    if kind == "PM-SGS":
        D2, D3 = bs.M_p.toarray(), bs.M_s.toarray()
    else:
        D2, D3 = -K[nt:nt + np_, nt:nt + np_], -K[nt + np_:, nt + np_:]
    PD = np.zeros((n, n))
    PD[:nt, :nt] = K[:nt, :nt]
    PD[nt:nt + np_, nt:nt + np_] = D2
    PD[nt + np_:, nt + np_:] = D3
    PL = np.zeros((n, n))
    PL[nt:nt + np_, :nt] = K[nt:nt + np_, :nt]
    PL[nt + np_:, :nt] = K[nt + np_:, :nt]
    PL[nt + np_:, nt:nt + np_] = K[nt + np_:, nt:nt + np_]
    G = PL + PD
    return G @ np.linalg.solve(PD, G.T)


def _bracket(A, apply_inv):
    """Extreme eigenvalues of R A for the SPD action r -> R r, as the
    Ritz values of a MINRES solve with R as preconditioner."""
    b = np.random.default_rng(11).standard_normal(A.shape[0])
    rep = krylov.minres(A, b, apply_inv, tol=1e-12)
    return krylov.ritz_extremes(rep.lanczos)


def test_kinds():
    assert precond.KINDS == ("PM", "PC", "PM-SGS", "PC-SGS")


def test_unknown_kind_rejected(small):
    _, cs = small
    with pytest.raises(ValueError):
        precond.build_preconditioner(cs, "ILU")


def test_block_diagonal_application(small):
    bs, cs = small
    pc = precond.build_preconditioner(cs, "PM")
    rng = np.random.default_rng(0)
    r = rng.standard_normal(cs.size)
    r1, r2, r3 = cs.split(r)
    z = pc.apply(r)
    z1, z2, z3 = cs.split(z)
    assert np.allclose(cs.Abar @ z1, r1, atol=1e-10)
    assert np.allclose(bs.M_p @ z2, r2, atol=1e-12)
    assert np.allclose(bs.M_s @ z3, r3, atol=1e-12)


@pytest.mark.parametrize("shape", ["triangle", "quadrilateral"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_diagonal_mass_apply_matches_sparse_lu(shape, k):
    m = mesh.generate(3, 3, shape, jitter=0.2, seed=5)
    sp_ = spaces.build_spaces(m, k)
    bs = assembly.build_block_system(sp_, spaces.lid_driven_cavity(k))
    cs = condense.condense(bs)
    pc = precond.build_preconditioner(cs, "PM")
    r = np.random.default_rng(6).standard_normal(cs.size)
    _, r2, r3 = cs.split(r)
    _, z2, z3 = cs.split(pc.apply(r))
    for M, rr, z in ((bs.M_p, r2, z2), (bs.M_s, r3, z3)):
        want = spla.splu(M.tocsc()).solve(rr)
        assert np.abs(z - want).max() <= 1e-13 * np.abs(want).max()


def test_pc_pressure_blocks_are_element_schur(small):
    _, cs = small
    pc = precond.build_preconditioner(cs, "PC")
    rng = np.random.default_rng(1)
    r = rng.standard_normal(cs.size)
    _, r2, r3 = cs.split(r)
    _, z2, z3 = cs.split(pc.apply(r))
    nt, np_ = cs.n_t, cs.n_p
    assert np.allclose(-cs.K[nt:nt + np_, nt:nt + np_] @ z2, r2, atol=1e-10)
    assert np.allclose(-cs.K[nt + np_:, nt + np_:] @ z3, r3, atol=1e-10)


@pytest.mark.parametrize("shape", ["triangle", "quadrilateral"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_pc_cell_pressure_solve_matches_sparse_lu(shape, k):
    """The PC kinds apply (-C_pp)^-1 cell by cell, with the inverses of
    `cs.pressure_blocks`; it is the sparse solve with -C_pp."""
    m = mesh.generate(3, 3, shape, jitter=0.2, seed=5)
    sp_ = spaces.build_spaces(m, k)
    bs = assembly.build_block_system(sp_, spaces.lid_driven_cavity(k, 108.0))
    cs = condense.condense(bs)
    pc = precond.build_preconditioner(cs, "PC")
    r = np.random.default_rng(7).standard_normal(cs.size)
    _, r2, _ = cs.split(r)
    _, z2, _ = cs.split(pc.apply(r))
    want = amg.spd_lu(-cs.block("p", "p")).solve(r2)
    assert np.abs(z2 - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("kind", ["PM-SGS", "PC-SGS"])
def test_sgs_sweep_matches_composition(small, kind):
    bs, cs = small
    pc = precond.build_preconditioner(cs, kind)
    P = _dense_sweep_operator(bs, cs, kind)
    Pinv = np.linalg.inv(P)
    rng = np.random.default_rng(2)
    for _ in range(4):
        r = rng.standard_normal(cs.size)
        want = Pinv @ r
        got = pc.apply(r)
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kind", ["PM-SGS", "PC-SGS"])
def test_sgs_operator_positive_definite(small, kind):
    bs, cs = small
    P = _dense_sweep_operator(bs, cs, kind)
    w = np.linalg.eigvalsh(0.5 * (P + P.T))
    assert w[0] > 0.0


@pytest.mark.parametrize("kind", precond.KINDS)
def test_application_symmetric_and_linear(small, kind):
    _, cs = small
    pc = precond.build_preconditioner(cs, kind)
    rng = np.random.default_rng(3)
    v, w = rng.standard_normal((2, cs.size))
    sym = v @ pc.apply(w) - w @ pc.apply(v)
    assert abs(sym) < 1e-9 * np.abs(v @ pc.apply(w))
    lin = pc.apply(2.0 * v - 3.0 * w) - (2.0 * pc.apply(v)
                                         - 3.0 * pc.apply(w))
    assert np.abs(lin).max() < 1e-11 * np.abs(pc.apply(v)).max()


def test_cell_pressure_schur_is_cell_block_diagonal(small):
    bs, cs = small
    np_cell = cs.spaces.np_cell
    nt, np_ = cs.n_t, cs.n_p
    C = cs.K[nt:nt + np_, nt:nt + np_].tocoo()
    assert np.all(C.row // np_cell == C.col // np_cell)


def test_operator_approx_exact_and_degraded(small):
    """On the 2x2 mesh (a 48-row block, one interior vertex) multigrid
    builds the cycle, whose bracket against the block lies in (0, 1]."""
    bs, cs = small
    A = cs.Abar_scalar
    exact = precond.OperatorApprox(A, cs.spaces, mode="exact")
    rng = np.random.default_rng(4)
    r = rng.standard_normal(A.shape[0])
    assert np.allclose(A @ exact.apply(r), r, atol=1e-9)
    assert not exact.degraded
    for cycles in (1, 4):
        mg = precond.OperatorApprox(A, cs.spaces, mode="multigrid",
                                    cycles=cycles)
        assert mg.mode == "multigrid" and not mg.degraded
        assert mg.amg.P.shape == (48, 1)
        lo, hi = _bracket(A, mg.apply)
        assert 0.0 < lo <= hi <= 1.0 + 1e-9


@pytest.mark.parametrize("nx, ny, domain, degraded", [
    (1, 1, (-1.0, -1.0, 1.0, 1.0), True),
    (2, 1, (-1.0, -1.0, 1.0, 1.0), True),
    (1, 24, (0.0, 0.0, 0.1, 2.4), True),
    (2, 2, (-1.0, -1.0, 1.0, 1.0), False)])
def test_multigrid_without_interior_vertex_degraded(cavity, nx, ny, domain,
                                                    degraded):
    """Multigrid degrades to the exact mode exactly on a mesh without an
    interior vertex (no P1 coarse space), whatever the block's size."""
    m = mesh.generate(nx, ny, domain=domain)
    sp_ = spaces.build_spaces(m, cavity.degree)
    cs = condense.condense(assembly.build_block_system(sp_, cavity))
    rbar = precond.OperatorApprox(cs.Abar_scalar, mode="multigrid",
                                  spaces=sp_)
    assert rbar.degraded == degraded
    assert rbar.mode == ("exact" if degraded else "multigrid")
    if degraded:
        A = cs.Abar_scalar
        r = np.random.default_rng(4).standard_normal(A.shape[0])
        assert np.allclose(A @ rbar.apply(r), r, atol=1e-9)


def test_exact_velocity_block_fill(cavity):
    # symmetric minimum degree 2.78; natural order 3.52, COLAMD 4.68
    m = mesh.generate(16, 16)
    sp_ = spaces.build_spaces(m, cavity.degree)
    cs = condense.condense(assembly.build_block_system(sp_, cavity))
    exact = precond.OperatorApprox(cs.Abar_scalar, sp_, mode="exact")
    assert exact.lu.nnz / cs.Abar_scalar.nnz <= 4.0


@pytest.mark.parametrize("shape", ["triangle", "quadrilateral"])
def test_ordered_lu_solves_like_minimum_degree(shape):
    """spd_lu solves (n,) and both memory orders of (n, 2) right-hand
    sides like one solve per column, on the scalar block and on the
    two-component one."""
    m = mesh.generate(6, 5, shape, jitter=0.2, seed=4)
    sp_ = spaces.build_spaces(m, 2)
    bs = assembly.build_block_system(sp_, spaces.lid_driven_cavity(2, 108.0))
    cs = condense.condense(bs)
    rng = np.random.default_rng(6)
    for A in (cs.Abar_scalar, cs.Abar):
        lu = amg.spd_lu(A)
        assert isinstance(lu.nnz, int) and lu.nnz >= A.nnz
        B = rng.standard_normal((A.shape[0], 2))
        W = np.column_stack([lu.solve(B[:, j].copy()) for j in range(2)])
        assert np.abs(A @ W - B).max() <= 1e-10 * np.abs(B).max()
        for b, want in ((B[:, 0].copy(), W[:, 0]), (np.asfortranarray(B), W),
                        (np.ascontiguousarray(B), W)):
            got = lu.solve(b)
            assert got.shape == b.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# LU entries of the scalar velocity block (seed 1, alpha 108 on jittered
# triangles), by (shape, k, n): in minimum degree on the mesh's
# nested-dissection numbering, by jitter, and in minimum degree on the
# first-appearance numbering the mesh used before.
_VELOCITY_LU_NNZ = {
    ("triangle", 1, 32): ({0.0: 203936, 0.2: 205152}, 289704),
    ("triangle", 2, 32): ({0.0: 453960, 0.2: 456696}, 646938),
    ("triangle", 3, 32): ({0.0: 802688, 0.2: 807552}, 1145760),
    ("quadrilateral", 1, 32): ({0.0: 245672, 0.2: 247624}, 273808),
    ("quadrilateral", 2, 32): ({0.0: 549402, 0.2: 553794}, 612708),
    ("quadrilateral", 3, 32): ({0.0: 973728, 0.2: 981536}, 1086272),
    ("triangle", 1, 64): ({0.0: 1026160}, 1533864),
    ("triangle", 2, 64): ({0.0: 2289852}, 3432186),
    ("quadrilateral", 1, 64): ({0.2: 1251048}, 1529728),
    ("quadrilateral", 2, 64): ({0.2: 2801994}, 3429024),
}


def _velocity_block(n, shape, k, jitter):
    m = mesh.generate(n, n, shape, jitter=jitter, seed=1)
    sp_ = spaces.build_spaces(m, k)
    alpha = 108.0 if shape == "triangle" and jitter else None
    bs = assembly.build_block_system(sp_, spaces.lid_driven_cavity(k, alpha))
    return sp_, condense.condense(bs).Abar_scalar


def _velocity_lu_nnz(n, shape, k, jitter):
    return amg.spd_lu(_velocity_block(n, shape, k, jitter)[1]).nnz


@pytest.mark.parametrize("shape", ["triangle", "quadrilateral"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("jitter", [0.0, 0.2])
def test_nested_dissection_fill_at_most_minimum_degree(shape, k, jitter):
    """LU fill of the scalar velocity block on 32 x 32 meshes, pinned:
    about 30% (triangles) and 10% (quadrilaterals) below minimum degree
    on the first-appearance numbering."""
    pins, first = _VELOCITY_LU_NNZ[shape, k, 32]
    assert _velocity_lu_nnz(32, shape, k, jitter) == pins[jitter] < first


@pytest.mark.parametrize("case", [("triangle", 0.0), ("quadrilateral", 0.2)])
@pytest.mark.parametrize("k", [1, 2])
def test_velocity_lu_fill_on_64x64(case, k):
    """The same pin on 64 x 64 meshes: 33% (triangles) and 18%
    (jittered quadrilaterals) below minimum degree on the
    first-appearance numbering."""
    shape, jitter = case
    pins, first = _VELOCITY_LU_NNZ[shape, k, 64]
    assert _velocity_lu_nnz(64, shape, k, jitter) == pins[jitter] < first


@pytest.mark.parametrize("k", [1, 2])
def test_nested_dissection_numbering_beats_lexicographic(k):
    """Minimum degree leaves fewer LU entries on the velocity block of
    32 x 32 triangles from the mesh's nested-dissection numbering than
    from the facets sorted by their midpoints (203,936 against 289,600
    at k = 1, 453,960 against 646,704 at k = 2).  On quadrilaterals the
    two are level."""
    sp_, A = _velocity_block(32, "triangle", k, 0.0)
    mid = sp_.mesh.facet_midpoints
    facets = np.lexsort((mid[:, 1], mid[:, 0]))
    perm = (facets[:, None] * sp_.nbf + np.arange(sp_.nbf)).ravel()
    assert amg.spd_lu(A).nnz < amg.spd_lu(A[perm][:, perm]).nnz


@pytest.mark.parametrize("shape", ["triangle", "quadrilateral"])
def test_velocity_apply_matches_full_block_lu(shape):
    k = 3 if shape == "quadrilateral" else 2
    m = mesh.generate(4, 3, shape, jitter=0.2, seed=9)
    sp_ = spaces.build_spaces(m, k)
    bs = assembly.build_block_system(sp_, spaces.lid_driven_cavity(k))
    cs = condense.condense(bs)
    pc = precond.build_preconditioner(cs, "PM")
    r = np.random.default_rng(7).standard_normal(cs.size)
    r1, _, _ = cs.split(r)
    z1, _, _ = cs.split(pc.apply(r))
    want = amg.spd_lu(cs.Abar).solve(r1)
    assert np.abs(z1 - want).max() <= 1e-10 * np.abs(want).max()


def test_scalar_block_halves_fill(cavity):
    m = mesh.generate(16, 16)
    sp_ = spaces.build_spaces(m, cavity.degree)
    bs = assembly.build_block_system(sp_, cavity)
    cs = condense.condense(bs)
    pc = precond.build_preconditioner(cs, "PM")
    assert cs.Abar_scalar.shape[0] * 2 == cs.n_t
    assert 2 * pc.rbar.lu.nnz == amg.spd_lu(cs.Abar).nnz


def test_multigrid_two_column_apply_matches_columns(cavity):
    m = mesh.generate(12, 12)
    sp_ = spaces.build_spaces(m, cavity.degree)
    bs = assembly.build_block_system(sp_, cavity)
    cs = condense.condense(bs)
    pc = precond.build_preconditioner(cs, "PM", rbar_mode="multigrid",
                                      cycles=2)
    assert pc.rbar.mode == "multigrid"
    R = np.random.default_rng(8).standard_normal((cs.n_t // 2, 2))
    Z = pc.rbar.apply(R)
    assert Z.shape == R.shape
    for j in range(2):
        z = pc.rbar.apply(R[:, j].copy())
        assert np.abs(Z[:, j] - z).max() <= 1e-12 * np.abs(z).max()


def test_multigrid_certificate_and_solve(cavity):
    m = mesh.generate(12, 12)
    sp_ = spaces.build_spaces(m, cavity.degree)
    bs = assembly.build_block_system(sp_, cavity)
    cs = condense.condense(bs)
    pc = precond.build_preconditioner(cs, "PM", rbar_mode="multigrid",
                                      cycles=4)
    assert not pc.rbar.degraded
    # Rbar acts on one velocity component; Abar is two copies of that
    # block, so the scalar pair has the spectrum of the full pair
    lo, hi = _bracket(cs.Abar_scalar, pc.rbar.apply)
    assert 0.2 < lo <= hi < 1.0 + 1e-6
    rep = krylov.minres(cs.K, cs.rhs, pc.apply, tol=1e-8,
                        maxiter=900, nullspace=cs.nullspace_vector())
    assert rep.converged


def _multigrid_setup(n, shape="triangle", k=2, jitter=0.0, alpha=None,
                     cycles=4):
    m = mesh.generate(n, n, shape, jitter=jitter, seed=2)
    sp_ = spaces.build_spaces(m, k)
    bs = assembly.build_block_system(sp_,
                                     spaces.lid_driven_cavity(k, alpha))
    cs = condense.condense(bs)
    pc = precond.build_preconditioner(cs, "PM-SGS", rbar_mode="multigrid",
                                      cycles=cycles)
    assert pc.rbar.mode == "multigrid"
    return cs, pc


def _multigrid_minres(n, **kw):
    cs, pc = _multigrid_setup(n, **kw)
    return krylov.minres(cs.K, cs.rhs, pc.apply, tol=1e-8,
                         maxiter=400, nullspace=cs.nullspace_vector())


def test_multigrid_bracket_mesh_independent():
    """One auxiliary-space cycle against the scalar block has the same
    spectral bracket on 12x12 and 24x24 triangles."""
    brackets = []
    for n in (12, 24):
        cs, pc = _multigrid_setup(n, cycles=1)
        brackets.append(_bracket(cs.Abar_scalar, pc.rbar.apply))
    (lo1, hi1), (lo2, hi2) = brackets
    assert abs(lo1 - lo2) <= 0.05 and abs(hi1 - hi2) <= 0.05
    assert 0.0 < min(lo1, lo2) and max(hi1, hi2) < 1.0 + 1e-6
    # Chebyshev smoothing on [lambda_max/4, lambda_max]; two damped
    # Jacobi sweeps gave 0.52
    assert lo1 >= 0.65


@pytest.mark.parametrize("shape", ["triangle", "quadrilateral"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_multigrid_one_cycle_bracket_at_most_one(shape, k):
    """One cycle is A-contractive on jittered meshes at every degree:
    its bracket against the scalar block stays in (0, 1], and so does
    the bracket of every cycle count, whose error polynomial is
    q^2 >= 0 or (1 - t) q^2.  The Chebyshev interval starts at or
    below the lower end of one cycle."""
    cs, pc = _multigrid_setup(12, shape=shape, k=k, jitter=0.25,
                              alpha=60.0 * k, cycles=1)
    mg = pc.rbar.amg
    for cycles in (1, 2, 3, 4):
        lo, hi = _bracket(cs.Abar_scalar,
                          lambda r: mg.solve(r, cycles=cycles))
        assert 0.0 < lo and hi < 1.0 + 1e-6, cycles
        if cycles == 1:
            assert mg.alpha <= lo


def _plain_cycle(mg, r):
    """One auxiliary-space cycle from a zero guess, from its parts."""
    A, M = mg.levels[0].A, mg.smoother
    y = M @ r
    s = r - A @ y
    c = mg.coarse.solve(mg.PT @ s)
    y += mg.P @ c
    s = s - mg.AP @ c
    return y + M @ s


def _stationary(mg, b, cycles):
    """`cycles` plain cycles, each on the residual of the previous."""
    A = mg.levels[0].A
    x = _plain_cycle(mg, b)
    for _ in range(cycles - 1):
        x += _plain_cycle(mg, b - A @ x)
    return x


def _pencil_lower_end(A, cycle, steps=12, seed=0):
    """Smallest Ritz value of `steps` plain Lanczos steps on the pencil
    (A, B^-1) for z = cycle(r) = B r, from a fixed-seed start vector,
    in the arithmetic of MINRES: unnormalized residuals r, combined
    with the ratios beta / beta_old and alfa / beta."""
    r = np.random.default_rng(seed).standard_normal(A.shape[0])
    z = cycle(r)
    beta = np.sqrt(r @ z)
    a, b, r_old, beta_old = [], [], 0.0, beta
    for _ in range(steps):
        q = z / beta
        y = A @ q - (beta / beta_old) * r_old
        a.append(q @ y)
        y -= (a[-1] / beta) * r
        r_old, r = r, y
        z = cycle(r)
        beta_old, beta = beta, np.sqrt(max(r @ z, 0.0))
        b.append(beta)
    return sla.eigh_tridiagonal(a, b[:-1], eigvals_only=True,
                                select="i", select_range=(0, 0))[0]


@pytest.mark.parametrize("shape", ["triangle", "quadrilateral"])
def test_multigrid_alpha_is_the_pencil_recurrence(shape):
    """alpha, bit for bit: 0.95 times the smallest Ritz value of 12
    Lanczos steps on the cycle, clamped to [1e-3, 0.999]."""
    _, pc = _multigrid_setup(12, shape=shape)
    mg = pc.rbar.amg
    ref = _pencil_lower_end(mg.levels[0].A, lambda r: _plain_cycle(mg, r))
    assert mg.alpha == min(max(0.95 * ref, 1e-3), 0.999)


@pytest.mark.parametrize("shape", ["triangle", "quadrilateral"])
def test_multigrid_alpha_is_read_off_minres(shape):
    """MINRES steps through the recurrence alpha is measured with: 12
    iterations on (A, cycle) from alpha's start vector record the
    tridiagonal whose smallest Ritz value gives alpha, bit for bit."""
    _, pc = _multigrid_setup(12, shape=shape)
    mg = pc.rbar.amg
    A = mg.levels[0].A
    r = np.random.default_rng(0).standard_normal(A.shape[0])
    rep = krylov.minres(A, r, lambda x: _plain_cycle(mg, x), tol=0.0,
                        maxiter=12)
    assert rep.iterations == 12
    lo, _ = krylov.ritz_extremes(rep.lanczos)
    assert mg.alpha == min(max(0.95 * lo, 1e-3), 0.999)


def test_multigrid_one_cycle_is_the_plain_cycle():
    cs, pc = _multigrid_setup(12, cycles=1)
    mg = pc.rbar.amg
    b = np.random.default_rng(3).standard_normal(cs.Abar_scalar.shape[0])
    assert np.array_equal(mg.solve(b, cycles=1), _plain_cycle(mg, b))
    assert np.array_equal(pc.rbar.apply(b), _plain_cycle(mg, b))


def test_multigrid_chebyshev_cycles_beat_stationary_cycles():
    """Four cycles as a Chebyshev polynomial in the cycle against four
    stationary cycles, on 32 x 32 triangles at k = 2: the A-norm error
    for a random load, and the worst case over the spectrum, 1 - lo
    of the bracket (5.1x and 19x when this was written)."""
    cs, pc = _multigrid_setup(32, cycles=4)
    mg, A = pc.rbar.amg, cs.Abar_scalar
    b = np.random.default_rng(5).standard_normal(A.shape[0])
    x = amg.spd_lu(A).solve(b)

    def energy(e):
        return np.sqrt(e @ (A @ e))
    assert 5.0 * energy(x - pc.rbar.apply(b)) <= energy(
        x - _stationary(mg, b, 4))
    lo_one, _ = _bracket(A, lambda r: mg.solve(r, cycles=1))
    lo_cheb, _ = _bracket(A, pc.rbar.apply)
    lo_stat, _ = _bracket(A, lambda r: _stationary(mg, r, 4))
    assert mg.alpha <= lo_one
    assert 10.0 * (1.0 - lo_cheb) <= 1.0 - lo_stat


def test_multigrid_minres_iterations_mesh_independent():
    its = []
    for n in (8, 16, 32):
        rep = _multigrid_minres(n)
        assert rep.converged
        its.append(rep.iterations)
    assert max(its) <= 130
    assert max(its) <= 1.1 * min(its)


@pytest.mark.parametrize("shape, k, jitter, alpha",
                         [("quadrilateral", 3, 0.2, 54.0),
                          ("triangle", 1, 0.0, None)])
def test_multigrid_converges_on_quads_and_k1(shape, k, jitter, alpha):
    rep = _multigrid_minres(12, shape=shape, k=k, jitter=jitter,
                            alpha=alpha)
    assert rep.converged

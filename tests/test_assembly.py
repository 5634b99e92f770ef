import numpy as np
import pytest
import scipy.sparse as sp

from conftest import constant_facet_velocity_fields, dg_penalty
from hdgstokes import assembly, mesh, spaces

SQ = np.sqrt(2.0)


@pytest.fixture(scope="module")
def raw_jitter(tri_jitter, cavity):
    """Unconstrained blocks: the bilinear forms themselves."""
    sp_ = spaces.build_spaces(tri_jitter, 2)
    return sp_, assembly.build_block_system(sp_, cavity, bcs=False)


# every element type and degree, for checks of the global blocks
# derived from the per-cell blocks
ELEMENTS = [(m, k) for m in ("tri_jitter", "quad_jitter") for k in (1, 2, 3)]


def _raw_system(request, mesh_name, k, cavity):
    sp_ = spaces.build_spaces(request.getfixturevalue(mesh_name), k)
    return sp_, assembly.build_block_system(sp_, cavity, bcs=False)


def _trace_matched(sp_, fn):
    u = spaces.project_velocity(sp_, fn)
    t = spaces.project_facet_velocity(sp_, fn)
    return u, t


@pytest.mark.parametrize("keep_zeros", [True, False])
def test_scatter_sums_duplicates_like_dense_accumulation(keep_zeros):
    """Every entry gets more than two contributions; integer values
    make every sum exact, whatever its order, and many of them zero.
    Rows 6 and 7 get none."""
    rng = np.random.default_rng(5)
    m, shape = 40, (8, 7)
    rows = np.array([rng.choice(6, 3, replace=False) for _ in range(m)])
    cols = np.array([rng.choice(7, 4, replace=False) for _ in range(m)])
    vals = rng.integers(-2, 3, size=(m, 3, 4)).astype(float)
    i = np.broadcast_to(rows[:, :, None], vals.shape).ravel()
    j = np.broadcast_to(cols[:, None, :], vals.shape).ravel()
    hits = np.zeros(shape, dtype=int)
    np.add.at(hits, (i, j), 1)
    assert hits[:6].min() > 2
    dense = np.zeros(shape)
    np.add.at(dense, (i, j), vals.ravel())
    assert (dense[:6] == 0.0).any()

    out = assembly._scatter(rows, cols, vals, shape, keep_zeros)
    assert out.format == "csr" and out.shape == shape
    assert out.has_canonical_format and out.indices.dtype == np.int32
    assert np.array_equal(out.toarray(), dense)
    stored = (hits > 0) if keep_zeros else (dense != 0.0)
    assert out.nnz == stored.sum()
    pattern = np.zeros(shape, dtype=bool)
    pattern[np.repeat(np.arange(shape[0]), np.diff(out.indptr)),
            out.indices] = True
    assert np.array_equal(pattern, stored)


def test_velocity_matrix_exactly_symmetric(sys_jitter):
    _, bs, _ = sys_jitter
    A = bs.velocity_matrix()
    assert abs(A - A.T).max() == 0.0
    S = bs.saddle_matrix()
    assert abs(S - S.T).max() == 0.0


@pytest.mark.parametrize("mesh_name,k", ELEMENTS)
def test_a_form_matches_matrix(request, mesh_name, k, cavity):
    sp_, bs = _raw_system(request, mesh_name, k, cavity)
    A = bs.velocity_matrix()
    rng = np.random.default_rng(0)
    for _ in range(4):
        u1, t1 = rng.standard_normal(sp_.n_u), rng.standard_normal(sp_.n_ubar)
        u2, t2 = rng.standard_normal(sp_.n_u), rng.standard_normal(sp_.n_ubar)
        z1 = np.concatenate([u1, t1])
        z2 = np.concatenate([u2, t2])
        form = assembly.a_form_value(sp_, bs.alpha, u1, t1, u2, t2)
        mat = z1 @ (A @ z2)
        assert abs(form - mat) < 1e-11 * max(1.0, abs(mat))


def test_a_form_on_matched_traces_is_dirichlet_energy(raw_jitter):
    """With vbar = trace(v) every stabilization and consistency term
    vanishes, leaving the plain gradient inner product."""
    sp_, bs = raw_jitter
    u, t = _trace_matched(sp_, lambda x, y: (x ** 2, y ** 2))
    val = assembly.a_form_value(sp_, bs.alpha, u, t, u, t)
    # int_{[-1,1]^2} (4x^2 + 4y^2) = 32/3
    assert abs(val - 32.0 / 3.0) < 1e-11
    z = np.concatenate([u, t])
    A = bs.velocity_matrix()
    assert abs(z @ (A @ z) - 32.0 / 3.0) < 1e-11


def test_constant_pair_in_kernel(raw_jitter):
    sp_, bs = raw_jitter
    A = bs.velocity_matrix()
    consts = constant_facet_velocity_fields(sp_)
    for d, fn in enumerate([lambda x, y: (np.ones_like(x), 0 * x),
                            lambda x, y: (0 * x, np.ones_like(x))]):
        z = np.concatenate([spaces.project_velocity(sp_, fn), consts[:, d]])
        assert np.abs(A @ z).max() < 1e-12 * abs(A).max()


def test_b_form_cell_part(raw_jitter):
    sp_, _ = raw_jitter
    p = spaces.project_pressure(sp_, lambda x, y: x)
    u = spaces.project_velocity(sp_, lambda x, y: (x ** 2, 0 * x))
    s = np.zeros(sp_.n_pbar)
    # -int x * d/dx(x^2) = -2 int x^2 = -8/3
    val = assembly.b_form_value(sp_, p, s, u)
    assert abs(val - (-8.0 / 3.0)) < 1e-12


def test_b_form_skeleton_constant_sees_boundary_flux(raw_jitter):
    sp_, _ = raw_jitter
    s = spaces.project_facet_pressure(sp_, lambda x, y: np.ones_like(x))
    u = spaces.project_velocity(sp_, lambda x, y: (x, 0 * x))
    p = spaces.project_pressure(sp_, lambda x, y: x)
    # cell part: -int x * 1 = 0; facet part telescopes to the domain
    # boundary: oint (x,0).n = int div = |Omega| = 4
    val = assembly.b_form_value(sp_, p, s, u)
    assert abs(val - 4.0) < 1e-12


@pytest.mark.parametrize("mesh_name,k", ELEMENTS)
def test_divergence_matrix_applies_b_form(request, mesh_name, k, cavity):
    sp_, bs = _raw_system(request, mesh_name, k, cavity)
    B = bs.divergence_matrix()
    rng = np.random.default_rng(3)
    u = rng.standard_normal(sp_.n_u)
    t = rng.standard_normal(sp_.n_ubar)
    p = rng.standard_normal(sp_.n_p)
    s = rng.standard_normal(sp_.n_pbar)
    got = np.concatenate([p, s]) @ (B @ np.concatenate([u, t]))
    want = assembly.b_form_value(sp_, p, s, u)
    assert abs(got - want) < 1e-11 * max(1.0, abs(want))


def test_facet_velocity_columns_structurally_zero(raw_jitter):
    sp_, bs = raw_jitter
    B = bs.divergence_matrix().tocsc()
    assert B[:, sp_.n_u:].nnz == 0


def test_pressure_mass_is_identity_for_cells(sys_jitter):
    _, bs, _ = sys_jitter
    n = bs.M_p.shape[0]
    assert abs(bs.M_p - np.eye(n)).max() < 1e-13


def test_pressure_mass_diagonal_checked_in_assembly(quad_jitter, cavity):
    """Assembly stores the diagonal of both pressure masses, which
    `mass_diagonal` checks: a coupled or a negative mass is refused."""
    def system(m):
        sp_ = spaces.build_spaces(m, cavity.degree)
        return assembly.build_block_system(sp_, cavity)

    tri = system(mesh.generate(2, 2, jitter=0.1, seed=3))
    for bs in (tri, system(quad_jitter)):
        assert np.array_equal(bs.mass, np.concatenate([bs.M_p.diagonal(),
                                                       bs.M_s.diagonal()]))
    n = tri.M_p.shape[0]
    coupled = (tri.M_p + 1e-3 * sp.eye(n, k=1)
               + 1e-3 * sp.eye(n, k=-1)).tocsr()
    with pytest.raises(ValueError, match="not positive diagonal"):
        assembly.mass_diagonal(coupled, "cell pressure mass")
    with pytest.raises(ValueError, match="not positive diagonal"):
        assembly.mass_diagonal(-tri.M_s, "facet pressure mass")


def test_facet_mass_weights_two_cell(tri2):
    w = assembly.facet_mass_weights(tri2)
    expect = np.where(tri2.boundary_mask, 2.0 * SQ, 4.0 * SQ)
    assert np.allclose(w, expect)


def test_facet_mass_constant_form_two_cell(sys2):
    sp_, bs, _ = sys2
    s = spaces.project_facet_pressure(sp_, lambda x, y: np.ones_like(x))
    val = s @ (bs.M_s @ s)
    # sum_f weight_f * length_f = 4*(2sqrt2*2) + 4sqrt2*2sqrt2
    assert abs(val - (16.0 + 16.0 * SQ)) < 1e-12


def test_body_force_vector(tri_jitter):
    prob = spaces.ProblemSpec(degree=2, alpha=24.0,
                              body_force=lambda x, y: (np.ones_like(x),
                                                       2.0 * np.ones_like(x)))
    sp_ = spaces.build_spaces(tri_jitter, 2)
    bs = assembly.build_block_system(sp_, prob, bcs=False)
    c = spaces.project_velocity(sp_, lambda x, y: (np.ones_like(x), 0 * x))
    assert abs(bs.L_u @ c - 4.0) < 1e-12       # int f . (1,0)
    c = spaces.project_velocity(sp_, lambda x, y: (0 * x, np.ones_like(x)))
    assert abs(bs.L_u @ c - 8.0) < 1e-12       # int f . (0,1)


def test_dirichlet_rows(sys4x4):
    sp_, bs, _ = sys4x4
    c = bs.constrained
    Att = bs.A_tt.tocsr()
    for dof in c[:20]:
        row = Att.getrow(dof)
        assert row.nnz == 1 and row[0, dof] == 1.0
    assert abs(bs.A_tu[c, :]).max() == 0.0
    assert np.array_equal(bs.L_t[c], bs.g_values[c])


def test_eliminated_datum_satisfies_no_penetration(sys4x4, cavity):
    sp_, bs, _ = sys4x4
    flux = assembly.boundary_flux_per_facet(sp_, bs.g_values)
    assert np.abs(flux).max() < 1e-12
    # a leaky datum is detected
    bad = spaces.interpolate_boundary(sp_, lambda x, y: (x, y))
    assert np.abs(assembly.boundary_flux_per_facet(sp_, bad)).max() > 0.1


def test_local_kernels_positive_semidefinite(raw_jitter):
    sp_, _ = raw_jitter
    for batch in (dg_penalty(sp_, 24.0),
                  assembly.scalar_stiffness(sp_)):
        w = np.linalg.eigvalsh(batch)
        assert w.min() > -1e-11 * w.max()


@pytest.mark.parametrize("mesh_name", ["tri_jitter", "quad_jitter"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_local_velocity_form_affine_in_alpha(request, mesh_name, k):
    """L(alpha) = L(0) + alpha (L(1) - L(0)); the constant pair c does
    not depend on alpha or the consistency terms, and L annihilates
    it."""
    sp_ = spaces.build_spaces(request.getfixturevalue(mesh_name), k)
    L0, c = assembly.local_velocity_form(sp_, 0.0)
    L1, _ = assembly.local_velocity_form(sp_, 1.0)
    for alpha in (24.0, 54.0):
        for consistency in (True, False):
            L, c_a = assembly.local_velocity_form(sp_, alpha, consistency)
            assert np.array_equal(c_a, c)
            if consistency:
                expect = L0 + alpha * (L1 - L0)
                assert np.abs(L - expect).max() <= 1e-13 * np.abs(L).max()
            assert np.abs(np.einsum("cij,cj->ci", L, c)).max() \
                <= 1e-12 * np.abs(L).max()


@pytest.mark.parametrize("shape", ["triangle", "quadrilateral"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("jitter", [0.0, 0.2])
def test_velocity_blocks_are_slices_of_local_form(shape, k, jitter):
    """local_auu_scalar, the facet-velocity rows of the per-cell stack
    and facet_att are the slices and per-facet sums of the local forms,
    bit for bit."""
    m = mesh.generate(3, 3, shape, jitter=jitter, seed=5)
    sp_ = spaces.build_spaces(m, k)
    alpha = spaces.default_alpha(k)
    bs = assembly.velocity_blocks(sp_, alpha)
    L, _ = assembly.local_velocity_form(sp_, alpha)
    nb, nbf = sp_.nb, sp_.nbf
    assert np.array_equal(bs.local_auu_scalar, L[:, :nb, :nb])
    att = np.zeros((m.num_facets, nbf, nbf))
    for e in range(sp_.nsides):
        s = slice(nb + e * nbf, nb + (e + 1) * nbf)
        np.add.at(att, m.cell_facets[:, e], L[:, s, s])
        for comp in range(2):
            rows = bs.local_coupling[:, (2 * e + comp) * nbf:
                                     (2 * e + comp + 1) * nbf]
            assert np.array_equal(rows[:, :, comp * nb:(comp + 1) * nb],
                                  L[:, s, :nb])
            assert not rows[:, :, (1 - comp) * nb:(2 - comp) * nb].any()
    for comp in range(2):
        c = slice(comp * nbf, (comp + 1) * nbf)
        assert np.array_equal(bs.facet_att[:, c, c], att)
        other = slice((1 - comp) * nbf, (2 - comp) * nbf)
        assert not bs.facet_att[:, c, other].any()

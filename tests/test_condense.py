import numpy as np
import pytest
import scipy.sparse as sp

from hdgstokes import assembly, condense, mesh, spaces, spectra


def _component_dofs(sp_, comp):
    """Facet-velocity dofs of one component, in facet order."""
    n = sp_.mesh.num_facets * sp_.nbf
    return comp * n + np.arange(n)


def test_sizes(sys4x4):
    sp_, _, cs = sys4x4
    assert (cs.n_t, cs.n_p, cs.n_s) == (336, 96, 168)
    assert cs.size == 600
    assert cs.K.shape == (600, 600)


def test_condensed_operator_exactly_symmetric(sys_jitter):
    _, _, cs = sys_jitter
    K = cs.K
    assert abs(K - K.T).max() == 0.0


def test_kernel_and_compatibility(sys4x4):
    _, _, cs = sys4x4
    K = cs.K
    nv = cs.nullspace_vector()
    scale = abs(K).max()
    assert np.abs(K @ nv).max() < 1e-13 * scale * np.abs(nv).max()
    assert abs(cs.rhs @ nv) < 1e-12 * np.linalg.norm(cs.rhs) + 1e-14


def test_blocks_and_split_follow_the_block_layout(sys_jitter):
    """block(rows, cols) is the slice of K at the offsets of
    `BlockSystem.layout`, for all nine pairs, and split cuts a vector
    at the same offsets."""
    _, bs, cs = sys_jitter
    K = cs.K.toarray()
    ranges = {key: slice(offset, offset + n)
              for key, (_, offset, n) in bs.layout.items()}
    for rows in "tps":
        for cols in "tps":
            B = cs.block(rows, cols)
            assert sp.issparse(B)
            assert np.array_equal(B.toarray(), K[ranges[rows], ranges[cols]])
    x = np.arange(cs.size, dtype=float)
    for part, key in zip(cs.split(x), "tps"):
        assert np.array_equal(part, x[ranges[key]])


def test_condensed_system_holds_only_K_and_scalar_block(sys_jitter):
    _, _, cs = sys_jitter
    held = sorted(name for name, value in vars(cs).items()
                  if sp.issparse(value))
    assert held == ["Abar_scalar", "K"]


def test_constrained_rows_identity(sys4x4):
    _, bs, cs = sys4x4
    K = cs.K.tocsr()
    for dof in bs.constrained[:12]:
        row = K.getrow(dof)
        assert row.nnz == 1 and row[0, dof] == 1.0
        assert cs.rhs[dof] == bs.g_values[dof]


def test_schur_identity_small(sys2, sys_jitter, quad_jitter):
    sp_ = spaces.build_spaces(quad_jitter, 3)
    bs = assembly.build_block_system(sp_, spaces.lid_driven_cavity(3, 54.0))
    quad3 = (sp_, bs, condense.condense(bs))
    for _, bs, cs in (sys2, sys_jitter, quad3):
        assert spectra.condensed_schur_identity(bs, cs) < 1e-12


def test_condensed_solve_matches_dense(sys2):
    """Eliminating the cell velocity must not change the solution."""
    sp_, bs, cs = sys2
    S = bs.saddle_matrix().toarray()
    rhs = bs.full_rhs()
    x_ref = np.linalg.lstsq(S, rhs, rcond=None)[0]

    nv = cs.nullspace_vector()
    pinned = cs.K.toarray() + np.outer(nv, nv)
    x = np.linalg.solve(pinned, cs.rhs)
    x -= (x @ nv) * nv
    ubar, p, pbar = cs.split(x)
    u = condense.recover_velocity(cs, ubar, p, pbar)

    got = np.concatenate([u, ubar, p, pbar])
    # lstsq returns the minimum-norm solution, which is orthogonal to
    # the constant-pressure kernel, as is the pinned condensed solve
    err = np.linalg.norm(got - x_ref) / np.linalg.norm(x_ref)
    assert err < 1e-10


def test_lift_reproduces_harmonic_polynomials(sys_jitter, cavity):
    """The local solver is the discrete harmonic extension: exact on
    componentwise-harmonic fields whose traces it is given.

    The trace is nonzero on the boundary, so the system must keep the
    constrained rows (bcs=False)."""
    sp_, _, _ = sys_jitter
    bs = assembly.build_block_system(sp_, cavity, bcs=False)
    cs = condense.condense(bs)

    def w(x, y):
        return x ** 2 - y ** 2, 2.0 * x * y

    tbar = spaces.project_facet_velocity(sp_, w)
    u = condense.lift_traces(cs, tbar)
    u_ref = spaces.project_velocity(sp_, w)
    assert np.abs(u - u_ref).max() < 1e-10


def test_trace_form_value_mesh_independent(cavity):
    """a-form of the lifted harmonic field equals its Dirichlet energy
    int |grad w|^2 = 64/3 on every mesh of the square."""
    meshes = [mesh.generate(1, 1),
              mesh.generate(3, 2, jitter=0.15, seed=5),
              mesh.generate(2, 2, "quadrilateral", jitter=0.1, seed=2)]

    def w(x, y):
        return x ** 2 - y ** 2, 2.0 * x * y

    for m in meshes:
        sp_ = spaces.build_spaces(m, 2)
        bs = assembly.build_block_system(sp_, cavity, bcs=False)
        cs = condense.condense(bs)
        tbar = spaces.project_facet_velocity(sp_, w)
        val = condense.trace_form_value(cs, tbar, tbar)
        assert abs(val - 64.0 / 3.0) < 1e-9 * 64.0


def test_trace_form_symmetric_bilinear(sys_jitter):
    _, _, cs = sys_jitter
    rng = np.random.default_rng(12)
    a = rng.standard_normal(cs.n_t)
    b = rng.standard_normal(cs.n_t)
    vab = condense.trace_form_value(cs, a, b)
    vba = condense.trace_form_value(cs, b, a)
    assert abs(vab - vba) < 1e-10 * max(1.0, abs(vab))
    v2 = condense.trace_form_value(cs, 2.0 * a, b)
    assert abs(v2 - 2.0 * vab) < 1e-10 * max(1.0, abs(vab))


def test_recovery_solves_local_problems(sys4x4):
    """Momentum residual of the recovered velocity vanishes row-wise:
    A_uu u + A_tu^T ubar + B^T (p, pbar) = L_u."""
    sp_, bs, cs = sys4x4
    nv = cs.nullspace_vector()
    x = np.linalg.solve(cs.K.toarray() + np.outer(nv, nv), cs.rhs)
    ubar, p, pbar = cs.split(x)
    u = condense.recover_velocity(cs, ubar, p, pbar)
    res = (bs.A_uu @ u + bs.A_tu.T @ ubar
           + bs.B_pu.T @ p + bs.B_su.T @ pbar - bs.L_u)
    assert np.abs(res).max() < 1e-10 * max(np.abs(bs.L_u).max(), 1.0)


@pytest.mark.parametrize("jitter", [0.0, 0.2])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("shape", ["triangle", "quadrilateral"])
def test_velocity_block_is_two_copies_of_scalar_block(shape, k, jitter):
    m = mesh.generate(3, 3, shape, jitter=jitter, seed=8)
    sp_ = spaces.build_spaces(m, k)
    cs = condense.condense(
        assembly.build_block_system(sp_, spaces.lid_driven_cavity(k)))
    i0, i1 = _component_dofs(sp_, 0), _component_dofs(sp_, 1)
    A = cs.Abar.tocsr()
    assert A[i0][:, i1].count_nonzero() == 0
    assert A[i1][:, i0].count_nonzero() == 0
    A00, A11 = A[i0][:, i0], A[i1][:, i1]
    assert abs(A11 - A00).max() <= 1e-12 * abs(A00).max()
    assert abs(cs.Abar_scalar - A00).max() == 0.0
    x = np.random.default_rng(1).standard_normal(cs.n_t)
    X = x.reshape(2, -1).T
    assert np.array_equal(X, np.column_stack([x[i0], x[i1]]))
    y = (cs.Abar_scalar @ X).T.ravel()
    assert np.abs(y - A @ x).max() <= 1e-12 * np.abs(A @ x).max()


def _perturbed_condense(bs, f, a, b, value):
    """condense after adding `value` at (a, b) and (b, a) of facet f's
    block of A_tt, two distinct velocity dofs of that facet."""
    assert a != b
    bs.facet_att[f, a, b] += value
    bs.facet_att[f, b, a] += value
    return condense.condense(bs)


def test_coupled_or_unequal_components_refused(tri_jitter, cavity):
    sp_ = spaces.build_spaces(tri_jitter, cavity.degree)
    f = np.flatnonzero(~tri_jitter.boundary_mask)[0]
    a = 0                               # component 0, mode 0
    b = sp_.nbf                         # component 1, mode 0
    bs = assembly.build_block_system(sp_, cavity)
    scale = abs(bs.A_tt).max()
    with pytest.raises(ValueError, match="coupled"):
        _perturbed_condense(bs, f, a, b + 1, 1e-3 * scale)
    bs = assembly.build_block_system(sp_, cavity)
    with pytest.raises(ValueError, match="differ"):
        _perturbed_condense(bs, f, b, b + 1, 1e-9 * scale)
    # a difference at rounding level is accepted
    bs = assembly.build_block_system(sp_, cavity)
    _perturbed_condense(bs, f, b, b + 1, 1e-15 * scale)


def _full_block_oracle(bs, y, f):
    """Dense K, rhs and recovered velocity from the inverse of the
    whole (2nb)^2 cell block local_auu, both components at once."""
    sp_ = bs.spaces
    nt = sp_.n_ubar
    N = nt + sp_.n_p + sp_.n_pbar
    Ainv = np.linalg.inv(bs.local_auu)
    R = bs.local_coupling
    rows = bs.local_rows
    K = np.zeros((N, N))
    K[:nt, :nt] = bs.A_tt.toarray()
    np.add.at(K, (rows[:, :, None], rows[:, None, :]),
              -(R @ Ainv @ R.transpose(0, 2, 1)))
    rhs = np.concatenate([bs.L_t, np.zeros(N - nt)])
    np.add.at(rhs, rows, -(R @ Ainv @ f[..., None])[..., 0])
    u = Ainv @ (f - np.einsum("cmn,cm->cn", R, y[rows]))[..., None]
    return K, rhs, u.ravel()


@pytest.mark.parametrize("jitter", [0.0, 0.2])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("shape", ["triangle", "quadrilateral"])
def test_condense_matches_full_block_oracle(shape, k, jitter):
    m = mesh.generate(3, 3, shape, jitter=jitter, seed=8)
    sp_ = spaces.build_spaces(m, k)
    bs = assembly.build_block_system(sp_, spaces.lid_driven_cavity(k))
    cs = condense.condense(bs)
    nc = m.num_cells
    rng = np.random.default_rng(3)
    y = rng.standard_normal(cs.size)
    K, rhs, u = _full_block_oracle(bs, y, bs.L_u.reshape(nc, -1))
    tol = 1e-13 * np.abs(K).max()
    assert np.abs(cs.K.toarray() - K).max() <= tol
    assert np.abs(cs.rhs - rhs).max() <= tol
    got = condense.recover_velocity(cs, *cs.split(y))
    assert np.abs(got - u).max() <= 1e-13 * np.abs(u).max()
    t = y[:cs.n_t]
    _, _, lift = _full_block_oracle(bs, np.concatenate(
        [t, np.zeros(cs.size - cs.n_t)]), np.zeros((nc, 2 * sp_.nb)))
    got = condense.lift_traces(cs, t)
    assert np.abs(got - lift).max() <= 1e-13 * np.abs(lift).max()
    # no stored entries, not even zeros, between the two components
    i0, i1 = _component_dofs(sp_, 0), _component_dofs(sp_, 1)
    assert cs.K[i0][:, i1].nnz == 0 and cs.K[i1][:, i0].nnz == 0


def test_unequal_cell_velocity_components_refused(tri_jitter, cavity):
    """Condensation solves one component's cell block for both; a
    coupling that treats the two components differently is refused."""
    sp_ = spaces.build_spaces(tri_jitter, cavity.degree)
    nb, nbf = sp_.nb, sp_.nbf
    cell = tri_jitter.facet_cells[~tri_jitter.boundary_mask][0, 0]
    side = 2 * nbf * list(tri_jitter.cell_facets[cell]).index(
        np.flatnonzero(~tri_jitter.boundary_mask)[0])
    bs = assembly.build_block_system(sp_, cavity)
    # facet-velocity row of component 1, its own columns
    bs.local_coupling[cell, side + nbf, nb:] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="differ"):
        condense.condense(bs)
    bs = assembly.build_block_system(sp_, cavity)
    # facet-velocity row of component 0, columns of component 1
    bs.local_coupling[cell, side, nb:] = bs.local_coupling[cell, side, :nb]
    with pytest.raises(ValueError, match="coupled"):
        condense.condense(bs)

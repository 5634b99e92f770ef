import numpy as np
import pytest

from conftest import constant_facet_velocity_fields
from hdgstokes import mesh, quadrature, spaces


def test_dof_counts_triangle():
    m = mesh.generate(4, 4)  # 32 cells, 56 facets
    expected = {
        1: (192, 32, 224, 112),
        2: (384, 96, 336, 168),
        3: (640, 192, 448, 224),
    }
    for k, (nu, np_, nub, npb) in expected.items():
        s = spaces.build_spaces(m, k)
        assert (s.n_u, s.n_p, s.n_ubar, s.n_pbar) == (nu, np_, nub, npb)


def test_dof_counts_quadrilateral(quad2x2):
    s = spaces.build_spaces(quad2x2, 2)  # 4 cells, 12 facets
    assert s.nb == 9 and s.np_cell == 4 and s.nbf == 3
    assert (s.n_u, s.n_p, s.n_ubar, s.n_pbar) == (72, 16, 72, 36)


def test_degree_validation(tri2):
    with pytest.raises(ValueError):
        spaces.build_spaces(tri2, 4)
    with pytest.raises(ValueError):
        spaces.build_spaces(tri2, 0)


def test_bases_orthonormal_independent_rule(tri_jitter):
    """Gram matrices recomputed on a finer, independent quadrature."""
    s = spaces.build_spaces(tri_jitter, 2)
    pts, w = quadrature.cell_rule(tri_jitter, 8)
    phi, _, _ = s.cell_basis_at(pts)
    G = np.einsum("cqi,cq,cqj->cij", phi, w, phi)
    eye = np.eye(s.nb)
    assert np.abs(G - eye).max() < 1e-12
    psi = s.pressure_basis_at(pts)
    Gp = np.einsum("cqi,cq,cqj->cij", psi, w, psi)
    assert np.abs(Gp - np.eye(s.np_cell)).max() < 1e-12
    fpts, fw = quadrature.facet_rule(tri_jitter, 6)
    psib = s.facet_basis_at(fpts, np.arange(tri_jitter.num_facets))
    Gf = np.einsum("fqi,fq,fqj->fij", psib, fw, psib)
    assert np.abs(Gf - np.eye(s.nbf)).max() < 1e-12


def test_constant_representation(tri2):
    s = spaces.build_spaces(tri2, 2)
    p = spaces.project_pressure(s, lambda x, y: np.ones_like(x))
    coeffs = p.reshape(s.mesh.num_cells, s.np_cell)
    # first basis function is the normalized constant
    assert np.allclose(coeffs[:, 0], np.sqrt(s.mesh.areas))
    assert np.abs(coeffs[:, 1:]).max() < 1e-14
    # the stored constant pressure is that projection, to the bit
    pbar = spaces.project_facet_pressure(s, lambda x, y: np.ones_like(x))
    assert np.array_equal(s.constant_pressure, np.concatenate([p, pbar]))


def test_velocity_projection_reproduces_polynomials(tri_jitter):
    s = spaces.build_spaces(tri_jitter, 2)

    def w(x, y):
        return x ** 2 - y ** 2, x * y

    u = spaces.project_velocity(s, w)
    x, y = s.cell_qp[..., 0], s.cell_qp[..., 1]
    vals = s.chunk().velocity(u)
    assert np.abs(vals[..., 0] - (x ** 2 - y ** 2)).max() < 1e-12
    assert np.abs(vals[..., 1] - x * y).max() < 1e-12
    grads = s.chunk().velocity_grad(u)   # (nc, nq, comp, deriv)
    assert np.abs(grads[..., 0, 0] - 2 * x).max() < 1e-11
    assert np.abs(grads[..., 0, 1] + 2 * y).max() < 1e-11
    assert np.abs(grads[..., 1, 0] - y).max() < 1e-11
    assert np.abs(grads[..., 1, 1] - x).max() < 1e-11


def test_quad_space_reproduces_tensor_monomials(quad_jitter):
    s = spaces.build_spaces(quad_jitter, 2)
    u = spaces.project_velocity(
        s, lambda x, y: (x ** 2 * y ** 2, x * y ** 2))
    x, y = s.cell_qp[..., 0], s.cell_qp[..., 1]
    vals = s.chunk().velocity(u)
    assert np.abs(vals[..., 0] - x ** 2 * y ** 2).max() < 1e-12
    assert np.abs(vals[..., 1] - x * y ** 2).max() < 1e-12


def test_facet_projection_reproduces_traces(tri_jitter):
    s = spaces.build_spaces(tri_jitter, 2)
    fn = lambda x, y: x + 2.0 * y
    sbar = spaces.project_facet_pressure(s, fn)
    coeffs = sbar.reshape(s.mesh.num_facets, s.nbf)
    vals = np.einsum("fqi,fi->fq", s.psibar, coeffs)
    x, y = s.facet_qp[..., 0], s.facet_qp[..., 1]
    assert np.abs(vals - fn(x, y)).max() < 1e-13


def test_constant_facet_velocity_fields(tri4x4):
    s = spaces.build_spaces(tri4x4, 2)
    fields = constant_facet_velocity_fields(s)
    assert fields.shape == (s.n_ubar, 2)
    for d in range(2):
        c = fields[:, d].reshape(2, s.mesh.num_facets, s.nbf) \
            .transpose(1, 0, 2)
        vals = np.einsum("fqi,fdi->fqd", s.psibar, c)
        expect = np.zeros(2)
        expect[d] = 1.0
        assert np.abs(vals - expect).max() < 1e-13


def test_constrained_dofs(tri4x4):
    s = spaces.build_spaces(tri4x4, 2)
    nb = tri4x4.boundary_mask.sum()
    dofs = s.constrained_facet_velocity_dofs
    assert len(dofs) == 2 * s.nbf * nb
    facets = dofs % (tri4x4.num_facets * s.nbf) // s.nbf
    assert np.all(tri4x4.boundary_mask[facets])


def test_interpolate_boundary_linear_data(tri4x4):
    s = spaces.build_spaces(tri4x4, 2)
    g = lambda x, y: (y, -x)
    vec = spaces.interpolate_boundary(s, g)
    interior = ~tri4x4.boundary_mask
    c = vec.reshape(2, tri4x4.num_facets, s.nbf).transpose(1, 0, 2)
    assert np.abs(c[interior]).max() == 0.0
    bf = np.flatnonzero(tri4x4.boundary_mask)
    vals = np.einsum("fqi,fdi->fqd", s.psibar[bf], c[bf])
    x, y = s.facet_qp[bf, :, 0], s.facet_qp[bf, :, 1]
    assert np.abs(vals[..., 0] - y).max() < 1e-12
    assert np.abs(vals[..., 1] + x).max() < 1e-12


def test_interpolate_boundary_matches_dense_projection(tri4x4, cavity):
    """The lid profile is quartic; facet quadratics only see its L2
    shadow.  Check against a per-facet normal-equation solve."""
    s = spaces.build_spaces(tri4x4, 2)
    vec = spaces.interpolate_boundary(s, cavity.boundary_velocity)
    bf = np.flatnonzero(tri4x4.boundary_mask)
    pts, w = quadrature.facet_rule(tri4x4, 9)
    psib = s.facet_basis_at(pts[bf], bf)
    gx, gy = cavity.boundary_velocity(pts[bf, :, 0], pts[bf, :, 1])
    c = vec.reshape(2, tri4x4.num_facets, s.nbf).transpose(1, 0, 2)
    for i, f in enumerate(bf):
        G = psib[i].T * w[bf][i] @ psib[i]
        for d, data in ((0, gx[i]), (1, gy[i])):
            rhs = psib[i].T @ (w[bf][i] * data)
            ref = np.linalg.solve(G, rhs)
            assert np.abs(c[f, d] - ref).max() < 1e-11


def test_cavity_datum(cavity):
    g = cavity.boundary_velocity
    x = np.linspace(-1, 1, 7)
    lidx, lidy = g(x, np.ones_like(x))
    assert np.allclose(lidx, 1.0 - x ** 4)
    assert np.allclose(lidy, 0.0)
    wx, wy = g(x, -np.ones_like(x))
    assert np.allclose(wx, 0.0) and np.allclose(wy, 0.0)
    assert cavity.alpha == 24.0 and cavity.degree == 2


def _power_monomials(x, y, ex, ey):
    """The per-monomial power formula the tables replace."""
    return x[..., None] ** ex * y[..., None] ** ey


def _power_monomial_grads(x, y, ex, ey):
    dx = np.where(ex > 0, ex * x[..., None] ** np.maximum(ex - 1, 0)
                  * y[..., None] ** ey, 0.0)
    dy = np.where(ey > 0, ey * y[..., None] ** np.maximum(ey - 1, 0)
                  * x[..., None] ** ex, 0.0)
    return dx, dy


def _reference_tables(s):
    """Coefficients and evaluation tables of `s`, rebuilt from the
    per-monomial power formula on the first cell of each shape class
    and gathered to every cell, as `SpaceSet` and `CellChunk` do."""
    r = s.mesh.first_of_class

    def local(pts):
        xl = s._local_coords(pts, r)
        return xl[..., 0], xl[..., 1]

    x, y = local(s.cell_qp[r])
    ref = {"coeff_v": spaces._orthonormalize(
               _power_monomials(x, y, s.ex_v, s.ey_v), s.cell_qw[r]),
           "coeff_p": spaces._orthonormalize(
               _power_monomials(x, y, s.ex_p, s.ey_p), s.cell_qw[r])}
    h = s.mesh.h[r, None, None]

    def basis(pts):
        x, y = local(pts)
        dx, dy = _power_monomial_grads(x, y, s.ex_v, s.ey_v)
        return (_power_monomials(x, y, s.ex_v, s.ey_v) @ ref["coeff_v"],
                (dx @ ref["coeff_v"]) / h, (dy @ ref["coeff_v"]) / h)

    ref["phi"], ref["gx"], ref["gy"] = basis(s.cell_qp[r])
    ref["psi"] = _power_monomials(x, y, s.ex_p, s.ey_p) @ ref["coeff_p"]
    sides = [basis(s.facet_qp[s.mesh.cell_facets[r, e]])
             for e in range(s.nsides)]
    ref["phi_f"] = np.stack([ph for ph, _, _ in sides], axis=1)
    # the outward normal derivative, by the expression of `CellChunk`
    ref["dn_f"] = np.stack(
        [gx * n[:, None, 0, None] + gy * n[:, None, 1, None]
         for (_, gx, gy), n in zip(sides, s.normal[r].transpose(1, 0, 2))],
        axis=1)
    return {name: table[s.mesh.shape_class] for name, table in ref.items()}


@pytest.mark.parametrize("jitter", [0.0, 0.2])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("shape", ["triangle", "quadrilateral"])
def test_power_tables_match_power_formula(shape, k, jitter):
    """The power-table bases are the same bytes as the per-monomial
    formula; that needs C-ordered monomial arrays, because the Gram
    sums of the orthonormalization follow the memory order."""
    s = spaces.build_spaces(mesh.generate(3, 3, shape, jitter=jitter,
                                          seed=8), k)
    tables = s.chunk()
    for name, table in _reference_tables(s).items():
        source = s if name.startswith("coeff") else tables
        assert np.array_equal(getattr(source, name), table), name
    P = s._powers(s.cell_qp)
    for arr in (spaces._mono(*P, s.ex_v, s.ey_v),
                spaces._mono(*P, s.ex_p, s.ey_p),
                *spaces._mono_grad(*P, s.ex_v, s.ey_v)):
        assert arr.flags.c_contiguous


@pytest.mark.parametrize("jitter", [0.0, 0.2])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("shape", ["triangle", "quadrilateral"])
def test_vertex_trace_prolongator_projects_interpolant(shape, k, jitter):
    """Pi applied to interior-vertex values is the facet projection of
    their interpolant, linear along each facet and zero at boundary
    vertices; Pi has no entry on a boundary facet."""
    m = mesh.generate(4, 3, shape, jitter=jitter, seed=6)
    s = spaces.build_spaces(m, k)
    Pi = spaces.vertex_trace_prolongator(s)
    interior = np.ones(m.num_vertices, dtype=bool)
    interior[m.facets[m.boundary_mask].ravel()] = False
    assert Pi.shape == (s.n_ubar // 2, interior.sum())
    v = np.zeros(m.num_vertices)
    v[interior] = np.random.default_rng(k).standard_normal(Pi.shape[1])
    a = m.vertices[m.facets[:, 0]][:, None, :]

    def interpolant(x, y):
        # at facet_qp (nf, nqf): t is the distance from the first end
        t = np.sqrt(((np.stack([x, y], -1) - a) ** 2).sum(-1)) \
            / m.facet_lengths[:, None]
        u = (1.0 - t) * v[m.facets[:, 0], None] + t * v[m.facets[:, 1], None]
        return u, np.zeros_like(u)

    want = spaces.project_facet_velocity(s, interpolant)
    want = s.facet_velocity_coeffs(want)[:, 0].ravel()
    got = Pi @ v[interior]
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    rows = Pi.tocoo().row // s.nbf
    assert not m.boundary_mask[rows].any()

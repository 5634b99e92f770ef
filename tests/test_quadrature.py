import math

import numpy as np
import pytest

from hdgstokes import mesh, quadrature


def _tri_monomial(a, b):
    # exact integral of x^a y^b over the unit reference triangle
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def test_gauss01_exactness():
    for n in range(1, 9):
        pts, w = quadrature.gauss01(n)
        assert len(pts) == n
        for k in range(2 * n):
            got = np.sum(w * pts ** k)
            assert abs(got - 1.0 / (k + 1)) < 1e-14, (n, k)


def test_triangle_rule_monomials():
    for deg in range(1, 9):
        pts, w = quadrature.triangle_rule(deg)
        assert np.all(w > 0)
        assert abs(w.sum() - 0.5) < 1e-14
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                got = np.sum(w * pts[:, 0] ** a * pts[:, 1] ** b)
                assert abs(got - _tri_monomial(a, b)) < 1e-14, (deg, a, b)


def test_cell_rule_integrates_areas(tri_jitter):
    pts, w = quadrature.cell_rule(tri_jitter, 2)
    assert pts.shape[:2] == w.shape
    assert np.allclose(w.sum(axis=1), tri_jitter.areas)


@pytest.mark.parametrize("shape,jitter", [("triangle", 0.2),
                                          ("quadrilateral", 0.15)])
def test_cell_rule_polynomial_exactness(shape, jitter):
    """Global polynomials integrate exactly over the square, cell by
    cell, on distorted meshes (quads carry a tensor Gauss rule through
    their bilinear map, whose Jacobian is affine, so straight-sided
    distortion is harmless)."""
    m = mesh.generate(3, 3, shape, jitter=jitter, seed=2)
    pts, w = quadrature.cell_rule(m, 4)
    x, y = pts[..., 0], pts[..., 1]
    # int over [-1,1]^2: x^2 y^2 -> 4/9, x^3 y -> 0, x^4 -> 4/5
    assert abs(np.sum(w * x ** 2 * y ** 2) - 4.0 / 9.0) < 1e-13
    assert abs(np.sum(w * x ** 3 * y)) < 1e-13
    assert abs(np.sum(w * x ** 4) - 4.0 / 5.0) < 1e-13


@pytest.mark.parametrize("degree", [4, 8, 12])
def test_quadrilateral_rule_matches_two_triangle_split(degree):
    """On jittered quadrilaterals the tensor rule integrates every
    monomial x^a y^b with a + b <= degree, cell by cell, as the split
    into two affine triangles does (the reference, exact by
    construction), with ((degree + 3) // 2)^2 positive weights per
    cell summing to the cell area."""
    m = mesh.generate(4, 4, "quadrilateral", jitter=0.25, seed=3)
    pts, w = quadrature.cell_rule(m, degree)
    assert pts.shape == (m.num_cells, ((degree + 3) // 2) ** 2, 2)
    assert w.shape == pts.shape[:2]
    assert np.all(w > 0)
    assert np.allclose(w.sum(axis=1), m.areas, rtol=0, atol=1e-15)

    ref_pts, ref_w = quadrature.triangle_rule(degree)
    verts = m.vertices[m.cells]
    halves = [quadrature._map_triangles(verts[:, t], ref_pts, ref_w)
              for t in ([0, 1, 2], [0, 2, 3])]
    tri_pts = np.concatenate([h[0] for h in halves], axis=1)
    tri_w = np.concatenate([h[1] for h in halves], axis=1)
    x, y = pts[..., 0], pts[..., 1]
    tx, ty = tri_pts[..., 0], tri_pts[..., 1]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = np.sum(w * x ** a * y ** b, axis=1)
            ref = np.sum(tri_w * tx ** a * ty ** b, axis=1)
            assert np.abs(got - ref).max() < 1e-14, (a, b)


def test_facet_rule_lengths_and_moments(tri2):
    pts, w = quadrature.facet_rule(tri2, 3)
    assert np.allclose(w.sum(axis=1), tri2.facet_lengths)
    # first moment reproduces midpoint * length
    mid = np.einsum("fq,fqd->fd", w, pts) / tri2.facet_lengths[:, None]
    assert np.allclose(mid, tri2.facet_midpoints)


def test_facet_rule_polynomial_exactness():
    m = mesh.generate(2, 2, jitter=0.2, seed=9)
    n = 4  # exact through degree 2n-1 = 7
    pts, w = quadrature.facet_rule(m, n)
    x, y = pts[..., 0], pts[..., 1]
    # integral of x^2 along each facet, computed from the endpoints:
    # for a segment a->b, int x^2 ds = L*(ax^2 + ax*bx + bx^2)/3
    a = m.vertices[m.facets[:, 0], 0]
    b = m.vertices[m.facets[:, 1], 0]
    exact = m.facet_lengths * (a * a + a * b + b * b) / 3.0
    assert np.allclose(np.sum(w * x ** 2, axis=1), exact)
    assert np.all(w > 0)

"""Gauss quadrature on segments, triangles and quadrilaterals, batched
over a mesh.

Triangle rules come from a Duffy-type collapse of a tensor Gauss rule:
with x = u, y = v(1-u) the integral over the unit triangle becomes
int_0^1 int_0^1 f(u, v(1-u)) (1-u) du dv.  A monomial x^a y^b of total
degree d maps to a polynomial of degree d+1 in u and d in v, so the
point counts below give exactness for all polynomials up to `degree`.

Quadrilateral cells are integrated by an n x n tensor Gauss rule on
the unit square, pushed through the bilinear map of the cell's four
corners, n = (degree + 3) // 2.  Each physical coordinate is bilinear
in the reference coordinates (u, v), so a polynomial of total degree d
in x, y has degree <= d in u and in v, and the Jacobian determinant is
affine: the pulled-back integrand has degree <= d + 1 in each
coordinate, within the 2n - 1 of the rule.  That is the exactness of
the triangle rules with half the points of a two-triangle split (the
mesh module keeps every corner counter-clockwise, so the determinant
is positive).
"""

import numpy as np


def segment_rule(n):
    """n-point Gauss rule on the reference segment [-1/2, 1/2], exact
    through degree 2n-1: nodes xi and weights summing to 1."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * x, 0.5 * w


def gauss01(n):
    """n-point Gauss rule on [0, 1], exact through degree 2n-1."""
    xi, w = segment_rule(n)
    return xi + 0.5, w


def triangle_rule(degree):
    """Points and weights on the reference triangle (0,0),(1,0),(0,1),
    exact for polynomials of total degree <= degree."""
    nu = (degree + 3) // 2
    nv = (degree + 2) // 2
    xu, wu = gauss01(nu)
    xv, wv = gauss01(nv)
    U, V = np.meshgrid(xu, xv, indexing="ij")
    W = np.outer(wu, wv) * (1.0 - U)
    pts = np.column_stack([U.ravel(), (V * (1.0 - U)).ravel()])
    return pts, W.ravel()


def _map_triangles(tri_verts, ref_pts, ref_w):
    """Push a reference rule to a batch of straight triangles.

    tri_verts : (m, 3, 2); returns qp (m, nq, 2), qw (m, nq).
    """
    v0 = tri_verts[:, 0]
    e1 = tri_verts[:, 1] - v0
    e2 = tri_verts[:, 2] - v0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    qp = (v0[:, None, :]
          + ref_pts[None, :, 0, None] * e1[:, None, :]
          + ref_pts[None, :, 1, None] * e2[:, None, :])
    qw = det[:, None] * ref_w[None, :]
    return qp, qw


def _map_quadrilaterals(quad_verts, degree):
    """Push the n x n Gauss rule of the unit square to a batch of
    bilinear quadrilaterals, exact for integrands of total degree
    `degree` (module docstring).

    quad_verts : (m, 4, 2), corners in the order (0,0), (1,0), (1,1),
    (0,1) of the unit square; returns qp (m, n*n, 2), qw (m, n*n).
    """
    x, w = gauss01((degree + 3) // 2)
    U, V = np.meshgrid(x, x, indexing="ij")
    u, v = U.ravel(), V.ravel()
    # bilinear corner functions and their u- and v-derivatives, (nq, 4)
    N = np.stack([(1 - u) * (1 - v), u * (1 - v), u * v, (1 - u) * v], 1)
    Nu = np.stack([v - 1, 1 - v, v, -v], 1)
    Nv = np.stack([u - 1, -u, u, 1 - u], 1)
    qp = np.einsum("qi,cid->cqd", N, quad_verts)
    Ju = np.einsum("qi,cid->cqd", Nu, quad_verts)
    Jv = np.einsum("qi,cid->cqd", Nv, quad_verts)
    det = Ju[..., 0] * Jv[..., 1] - Ju[..., 1] * Jv[..., 0]
    return qp, det * np.outer(w, w).ravel()


def cell_rule(mesh, degree):
    """Batched physical-cell rule exact through total degree `degree`.

    Returns qp (nc, nq, 2) and qw (nc, nq); weights include the
    physical measure, so qw.sum(axis=1) equals the cell areas.
    """
    verts = mesh.vertices[mesh.cells]
    if mesh.cell_type == "triangle":
        return _map_triangles(verts, *triangle_rule(degree))
    return _map_quadrilaterals(verts, degree)


def facet_rule(mesh, n):
    """The n-point `segment_rule` on every facet from a to b: node xi
    at (a + b) / 2 + xi (b - a), weight |F| w.

    Returns qp (nf, n, 2) and arc-length weights qw (nf, n).  Points
    follow the stored facet orientation, so both adjacent cells see
    the same physical points in the same order.
    """
    xi, w = segment_rule(n)
    a = mesh.vertices[mesh.facets[:, 0]]
    b = mesh.vertices[mesh.facets[:, 1]]
    qp = (0.5 * (a + b))[:, None, :] + xi[None, :, None] * (b - a)[:, None, :]
    qw = mesh.facet_lengths[:, None] * w[None, :]
    return qp, qw

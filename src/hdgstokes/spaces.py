"""Discrete spaces for the hybridized Stokes discretization.

Cell velocities are vector polynomials of degree k (full P_k on
triangles, tensor Q_k on quadrilaterals, in physical coordinates),
cell pressures one degree lower, and both facet fields (velocity
trace and pressure trace) are degree-k polynomials per facet.

Every space carries a modal basis that is L2-orthonormal per cell or
facet: centered and diameter-scaled monomials are orthonormalized
against the exact local Gram matrix (Cholesky), with the constant as
the first mode.  Cell mass matrices therefore come out as identities
and facet masses as scaled identities, which the preconditioner
relies on.  The representation of the constant function 1 is
sqrt(|K|) (resp. sqrt(|F|)) in the first mode, not an all-ones
vector.

The monomials at a set of points are gathered from two power tables,
x^0..x^k and y^0..y^k of the local coordinates, built once per point
set and shared by the velocity and pressure bases and the gradients.
Each power is the same `**` as one evaluated per monomial, and the
gathered arrays are C-ordered, so the bases are the same bytes as with
per-monomial powers.

Degree-of-freedom layout (all block-major):
  cell velocity   dof(c, comp, i) = c*2*nb + comp*nb + i
  cell pressure   dof(c, i)       = c*np + i
  facet velocity  dof(f, comp, i) = f*2*nbf + comp*nbf + i
  facet pressure  dof(f, i)       = f*nbf + i
"""

import numpy as np
import scipy.sparse as sp

from . import quadrature


def _cell_exponents(cell_type, k):
    if cell_type == "triangle":
        pairs = [(a, b) for a in range(k + 1) for b in range(k + 1 - a)]
    else:
        pairs = [(a, b) for a in range(k + 1) for b in range(k + 1)]
    pairs.sort(key=lambda ab: (ab[0] + ab[1], ab[1]))
    ex = np.array([p[0] for p in pairs])
    ey = np.array([p[1] for p in pairs])
    return ex, ey


def _power_tables(xl, k):
    """Tables x^0..x^k and y^0..y^k of local coordinates xl (..., 2),
    along a new last axis."""
    e = np.arange(k + 1)
    return xl[..., 0, None] ** e, xl[..., 1, None] ** e


def _gather(table, ex):
    # np.take returns a C-ordered array; table[..., ex] does not, and
    # the Gram sums of _orthonormalize depend on the memory order
    return np.take(table, ex, axis=-1)


def _mono(Px, Py, ex, ey):
    return _gather(Px, ex) * _gather(Py, ey)


def _mono_grad(Px, Py, ex, ey):
    dx = np.where(ex > 0, ex * _gather(Px, np.maximum(ex - 1, 0))
                  * _gather(Py, ey), 0.0)
    dy = np.where(ey > 0, ey * _gather(Py, np.maximum(ey - 1, 0))
                  * _gather(Px, ex), 0.0)
    return dx, dy


def _orthonormalize(vals, weights):
    """Coefficient matrices C with (vals @ C) orthonormal per batch entry.

    vals : (n, nq, m) monomial values at quadrature points,
    weights : (n, nq).  Returns C (n, m, m), upper triangular, so the
    first basis function is the normalized constant whenever the first
    monomial is 1.
    """
    gram = np.einsum("nqi,nq,nqj->nij", vals, weights, vals, optimize=True)
    L = np.linalg.cholesky(gram)
    eye = np.eye(vals.shape[2])
    return np.linalg.solve(np.transpose(L, (0, 2, 1)), eye)


class SpaceSet:
    """Bases, quadrature and DOF bookkeeping for one mesh and degree.

    Most attributes are precomputed evaluation tables used by the
    assembly kernels:

    phi, gx, gy : (nc, nq, nb) cell velocity basis / gradients at
        cell quadrature points; psi likewise for the pressure.
    phi_f, gx_f, gy_f : (nc, nsides, nqf, nb) traces of the cell
        basis at the quadrature points of each side's facet, in facet
        point order (both adjacent cells see identical points).
    psibar : (nf, nqf, nbf) scalar facet basis at facet points;
        shared by facet velocity components and facet pressure.
    normal : (nc, nsides, 2) outward unit normal per cell side.
    """

    def __init__(self, mesh, degree):
        if degree not in (1, 2, 3):
            raise ValueError("polynomial degree must be 1, 2 or 3")
        self.mesh = mesh
        self.degree = degree
        k = degree
        quad_cells = mesh.cell_type == "quadrilateral"

        self.ex_v, self.ey_v = _cell_exponents(mesh.cell_type, k)
        self.ex_p, self.ey_p = _cell_exponents(mesh.cell_type, k - 1)
        self.nb = len(self.ex_v)
        self.np_cell = len(self.ex_p)
        self.nbf = k + 1
        self.nsides = mesh.nodes_per_cell

        nc, nf = mesh.num_cells, mesh.num_facets
        self.n_u = nc * 2 * self.nb
        self.n_p = nc * self.np_cell
        self.n_ubar = nf * 2 * self.nbf
        self.n_pbar = nf * self.nbf

        # quadrature: product-type bases on physical quads need the
        # doubled degree, affine triangles do not
        cell_deg = 4 * k if quad_cells else 2 * k
        nqf = 2 * k + 1 if quad_cells else k + 1
        self.cell_qp, self.cell_qw = quadrature.cell_rule(mesh, cell_deg)
        self.facet_qp, self.facet_qw = quadrature.facet_rule(mesh, nqf)

        # cell bases, orthonormalized against the exact Gram matrix
        P = self._powers(self.cell_qp)
        self.coeff_v = _orthonormalize(_mono(*P, self.ex_v, self.ey_v),
                                       self.cell_qw)
        self.coeff_p = _orthonormalize(_mono(*P, self.ex_p, self.ey_p),
                                       self.cell_qw)

        # facet basis in the arc-length coordinate
        xi = self._facet_coords(self.facet_qp, np.arange(nf))
        Vf = xi[..., None] ** np.arange(self.nbf)
        self.coeff_f = _orthonormalize(Vf, self.facet_qw)

        # evaluation tables at cell points
        self.phi, self.gx, self.gy = self._cell_basis(P)
        self.psi = self._pressure_basis(P)

        # traces at facet points, per cell side
        self.phi_f = np.empty((nc, self.nsides, nqf, self.nb))
        self.gx_f = np.empty_like(self.phi_f)
        self.gy_f = np.empty_like(self.phi_f)
        self.normal = np.empty((nc, self.nsides, 2))
        for e in range(self.nsides):
            f = mesh.cell_facets[:, e]
            pts = self.facet_qp[f]
            ph, gx, gy = self.cell_basis_at(pts)
            self.phi_f[:, e] = ph
            self.gx_f[:, e] = gx
            self.gy_f[:, e] = gy
            self.normal[:, e] = (mesh.facet_normals[f]
                                 * mesh.cell_facet_sign[:, e, None])
        self.psibar = np.einsum("fqm,fmi->fqi",
                                Vf, self.coeff_f, optimize=True)

        bset = np.flatnonzero(mesh.boundary_mask)
        dofs = (bset[:, None] * 2 * self.nbf
                + np.arange(2 * self.nbf)[None, :])
        self.constrained_facet_velocity_dofs = np.sort(dofs.ravel())

    # -- basis evaluation ---------------------------------------------

    def _local_coords(self, pts):
        m = self.mesh
        return ((pts - m.cell_centroids[:, None, :])
                / m.h[:, None, None])

    def _facet_coords(self, pts, facets):
        m = self.mesh
        a = m.vertices[m.facets[facets, 0]]
        b = m.vertices[m.facets[facets, 1]]
        L = m.facet_lengths[facets]
        that = (b - a) / L[:, None]
        rel = pts - 0.5 * (a + b)[:, None, :]
        return np.einsum("fqd,fd->fq", rel, that) / L[:, None]

    def _powers(self, pts):
        """Power tables of the local coordinates of pts (nc, m, 2), up
        to degree k; shared by the velocity and pressure bases and the
        gradients."""
        return _power_tables(self._local_coords(pts), self.degree)

    def _cell_basis(self, P):
        V = _mono(*P, self.ex_v, self.ey_v)
        Dx, Dy = _mono_grad(*P, self.ex_v, self.ey_v)
        h = self.mesh.h[:, None, None]
        phi = V @ self.coeff_v
        return phi, (Dx @ self.coeff_v) / h, (Dy @ self.coeff_v) / h

    def _pressure_basis(self, P):
        return _mono(*P, self.ex_p, self.ey_p) @ self.coeff_p

    def cell_basis_at(self, pts):
        """Velocity scalar basis and physical gradients at physical
        points, batched per cell: pts (nc, m, 2)."""
        return self._cell_basis(self._powers(pts))

    def pressure_basis_at(self, pts):
        return self._pressure_basis(self._powers(pts))

    def facet_basis_at(self, pts, facets):
        """Scalar facet basis at physical points on the given facets;
        pts (len(facets), m, 2)."""
        xi = self._facet_coords(pts, facets)
        V = xi[..., None] ** np.arange(self.nbf)
        return np.einsum("fqm,fmi->fqi", V, self.coeff_f[facets],
                         optimize=True)

    # -- views of coefficient vectors ----------------------------------

    def velocity_coeffs(self, u):
        """(nc, 2, nb) view of a cell-velocity vector."""
        return u.reshape(self.mesh.num_cells, 2, self.nb)

    def facet_velocity_coeffs(self, ubar):
        return ubar.reshape(self.mesh.num_facets, 2, self.nbf)

    def velocity_at_cell_qp(self, u):
        c = self.velocity_coeffs(u)
        return np.einsum("cqi,cdi->cqd", self.phi, c, optimize=True)

    def velocity_grad_at_cell_qp(self, u):
        """(nc, nq, 2, 2) array of d u_d / d x_j."""
        c = self.velocity_coeffs(u)
        gxx = np.einsum("cqi,cdi->cqd", self.gx, c, optimize=True)
        gyy = np.einsum("cqi,cdi->cqd", self.gy, c, optimize=True)
        return np.stack([gxx, gyy], axis=-1)

    def velocity_trace_at_facet_qp(self, u, side):
        c = self.velocity_coeffs(u)
        return np.einsum("cqi,cdi->cqd", self.phi_f[:, side], c,
                         optimize=True)


def build_spaces(mesh, degree):
    """Build the discrete spaces and all evaluation tables."""
    return SpaceSet(mesh, degree)


# -- projections ------------------------------------------------------

def _eval_vector(fn, pts):
    fx, fy = fn(pts[..., 0], pts[..., 1])
    out = np.empty(pts.shape)
    out[..., 0] = fx
    out[..., 1] = fy
    return out


def project_velocity(spaces, fn):
    """Cellwise L2 projection of a vector field; fn(x, y) -> (fx, fy)
    with array arguments."""
    F = _eval_vector(fn, spaces.cell_qp)
    c = np.einsum("cq,cqd,cqi->cdi", spaces.cell_qw, F, spaces.phi,
                  optimize=True)
    return c.ravel()


def project_pressure(spaces, fn):
    F = fn(spaces.cell_qp[..., 0], spaces.cell_qp[..., 1])
    F = np.broadcast_to(F, spaces.cell_qw.shape)
    c = np.einsum("cq,cq,cqi->ci", spaces.cell_qw, F, spaces.psi,
                  optimize=True)
    return c.ravel()


def project_facet_velocity(spaces, fn):
    F = _eval_vector(fn, spaces.facet_qp)
    c = np.einsum("fq,fqd,fqi->fdi", spaces.facet_qw, F, spaces.psibar,
                  optimize=True)
    return c.ravel()


def project_facet_pressure(spaces, fn):
    F = fn(spaces.facet_qp[..., 0], spaces.facet_qp[..., 1])
    F = np.broadcast_to(F, spaces.facet_qw.shape)
    c = np.einsum("fq,fq,fqi->fi", spaces.facet_qw, F, spaces.psibar,
                  optimize=True)
    return c.ravel()


def constant_pressure_vector(spaces):
    """Representation of the constant pressure 1 in (p, pbar) slots;
    spans the kernel of the saddle-point operator."""
    one = lambda x, y: np.ones_like(x)
    return np.concatenate([project_pressure(spaces, one),
                           project_facet_pressure(spaces, one)])


def constant_facet_velocity_fields(spaces):
    """(n_ubar, 2) representations of the two constant trace fields;
    near-nullspace of the condensed velocity operator."""
    e0 = project_facet_velocity(spaces, lambda x, y: (np.ones_like(x),
                                                      np.zeros_like(x)))
    e1 = project_facet_velocity(spaces, lambda x, y: (np.zeros_like(x),
                                                      np.ones_like(x)))
    return np.column_stack([e0, e1])


def vertex_trace_prolongator(spaces):
    """Continuous P1 on the interior mesh vertices, in the scalar facet
    basis: a (n_ubar/2, interior vertices) CSR matrix, rows in facet
    order.  Column j is the facet-wise L2 projection of the hat
    function of interior vertex j, which is linear along every facet
    (on quadrilaterals too), so it is zero on boundary facets."""
    mesh = spaces.mesh
    nf, nbf = mesh.num_facets, spaces.nbf
    # along a facet the hats of its end vertices are 1/2 -+ xi; facet
    # modes from the third on are orthogonal to linears
    xi = spaces._facet_coords(spaces.facet_qp, np.arange(nf))
    hats = np.stack([0.5 - xi, 0.5 + xi], axis=1)
    vals = hats @ (spaces.facet_qw[..., None] * spaces.psibar[..., :2])
    interior = np.ones(mesh.num_vertices, dtype=bool)
    interior[mesh.facets[mesh.boundary_mask]] = False
    column = np.cumsum(interior) - 1
    keep = np.broadcast_to(interior[mesh.facets][..., None], vals.shape)
    cols = np.broadcast_to(column[mesh.facets][..., None], vals.shape)
    rows = np.broadcast_to(np.arange(nf)[:, None, None] * nbf
                           + np.arange(2), vals.shape)
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                         shape=(nf * nbf, int(interior.sum())))


def interpolate_boundary(spaces, g):
    """Facet-wise L2 projection of boundary data onto the constrained
    facet-velocity DOFs; zero on interior facets.

    Uses a dedicated high-order facet rule so polynomial data up to
    degree 4 (the cavity lid profile) is projected exactly for every
    supported k.  Boundary elimination later requires g.n = 0
    facet-wise; that check lives with the caller.
    """
    mesh = spaces.mesh
    bf = np.flatnonzero(mesh.boundary_mask)
    qp, qw = quadrature.facet_rule(mesh, spaces.degree + 4)
    qp, qw = qp[bf], qw[bf]
    psib = spaces.facet_basis_at(qp, bf)
    G = _eval_vector(g, qp)
    c = np.einsum("fq,fqd,fqi->fdi", qw, G, psib, optimize=True)
    vec = np.zeros(spaces.n_ubar)
    cols = (bf[:, None] * 2 * spaces.nbf
            + np.arange(2 * spaces.nbf)[None, :])
    vec[cols.ravel()] = c.reshape(len(bf), -1).ravel()
    return vec


def default_alpha(degree):
    """Interior-penalty parameter used when none is given:
    max(24, 6 k^2), i.e. 24, 24, 54 for k = 1, 2, 3.  Neither term
    alone keeps the velocity form coercive: 24 fails on triangles at
    k = 3, and 6 k^2 = 6 fails at k = 1."""
    return max(24.0, 6.0 * degree ** 2)


class ProblemSpec:
    """Viscosity-normalized problem data.

    body_force, boundary_velocity : callables (x, y) -> (fx, fy) taking
    array arguments; alpha is the interior-penalty stabilization,
    `default_alpha(degree)` when None.
    """

    def __init__(self, degree=2, alpha=None, body_force=None,
                 boundary_velocity=None):
        zero = lambda x, y: (np.zeros_like(x), np.zeros_like(x))
        self.degree = degree
        self.alpha = float(default_alpha(degree) if alpha is None
                           else alpha)
        self.body_force = body_force or zero
        self.boundary_velocity = boundary_velocity or zero


def lid_driven_cavity(degree=2, alpha=None):
    """Cavity on [-1,1]^2: lid velocity (1 - x^4, 0), walls at rest.

    The lid profile vanishes at the corners, so the datum is continuous
    and has zero normal component on every wall.
    """
    def g(x, y):
        lid = y >= 1.0 - 1e-12
        return np.where(lid, 1.0 - x ** 4, 0.0), np.zeros_like(x)

    return ProblemSpec(degree=degree, alpha=alpha, boundary_velocity=g)

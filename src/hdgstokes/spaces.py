"""Discrete spaces for the hybridized Stokes discretization.

Cell velocities are vector polynomials of degree k (full P_k on
triangles, tensor Q_k on quadrilaterals, in physical coordinates),
cell pressures one degree lower, and both facet fields (velocity
trace and pressure trace) are degree-k polynomials per facet.

Every space carries a modal basis that is L2-orthonormal per cell or
facet: monomials (on cells centered and diameter-scaled) are
orthonormalized against the exact Gram matrix (Cholesky), with the
constant as the first mode.  A facet's arc-length map is affine, so all
facets share the basis of the reference segment [-1/2, 1/2],
orthonormalized once at the nodes of `quadrature.segment_rule`, times
|F|^-1/2.  Cell mass matrices therefore come out as identities and
facet masses as scaled identities, which the preconditioner relies on.
The representation of the constant function 1 is sqrt(|K|) (resp.
sqrt(|F|)) in the first mode, not an all-ones vector.

The monomials at a set of points are gathered from two power tables,
x^0..x^k and y^0..y^k of the local coordinates, built once per point
set and shared by the velocity and pressure bases and the gradients.
Each power is the same value as one evaluated per monomial by `**`,
and the gathered arrays are C-ordered, so the bases are the same bytes
as with per-monomial powers.

The per-cell evaluation tables (bases and gradients at the cell
quadrature points, traces and normal derivatives at the facet points
of each side) are never formed for every cell at once.  `CellChunk`
holds them for a slice of at most `_CHUNK` consecutive cells, and
every reader, here, in `assembly`, `condense` and `spectra`, walks the
cells in those slices (`cell_chunks`).

Where each quantity is evaluated.  Translated cells fall into one
shape class (`mesh.shape_classes`; on an unjittered mesh a handful of
classes, on a jittered one a class per cell).  What does not depend on
the position is evaluated on `CellChunk.shapes`, the first cell of
each class present in a chunk, and gathered to the chunk's cells: the
basis coefficients (Gram matrix and Cholesky factor) and the cell part
of the constant pressure here, the chunk tables, and the element blocks
of `assembly` (`SpaceSet.shape_blocks`).  Consecutive chunks of the
same classes share those evaluations.  What depends on the position is
evaluated per cell or per facet: the quadrature rules, the |F|^-1/2 of
the facet basis, loads and projections of given functions.  Each table
entry is computed by the same operations whatever the slice, and the
first cell of a class is fixed by the mesh, so no number depends on the
chunk size; on a jittered mesh the gathers are the identity.

Degree-of-freedom layout:
  cell velocity   dof(c, comp, i) = c*2*nb + comp*nb + i
  cell pressure   dof(c, i)       = c*np + i
  facet velocity  dof(f, comp, i) = comp*nf*nbf + f*nbf + i
  facet pressure  dof(f, i)       = f*nbf + i

The facet velocity is numbered one component after the other, so each
component is one contiguous half of a facet-velocity vector (and of
the condensed velocity block), numbered like the facet pressure; the
solver slices those halves.  `facet_velocity_coeffs` is the one
statement of the layout in code: every per-facet index map is derived
from its (nf, 2, nbf) view.
"""

from functools import cached_property, wraps

import numpy as np
import scipy.sparse as sp

from . import quadrature

# Cells evaluated, assembled and condensed at a time.  The process peak
# of `condense` on 64x64 triangles at k = 2 (8,192 cells), measured
# while the basis tables of every cell were still held: 251 MiB with
# chunks of 64 to 256 cells, 259 with 512, 269 with 1,024, 287 with one
# stack of every cell.  On 32x32 (2,048 cells) it grows with the chunk
# from 112 MiB (64) to 116 (256) and 124 (1,024), above the 121 of one
# stack.  A chunk's tables take at most a few MiB (1.5 MiB each at
# k = 3 on quadrilaterals).
_CHUNK = 256


def cell_chunks(num_cells):
    """Slices of at most `_CHUNK` consecutive cells, in order, covering
    range(num_cells)."""
    return [slice(start, min(start + _CHUNK, num_cells))
            for start in range(0, num_cells, _CHUNK)]


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
    along a new last axis.  The power 0 is written as 1, the value `**`
    returns for it; the others are taken by `**` with the exponents as
    an array along the last axis, as one `**` over all k + 1 would:
    numpy may round a power differently when the exponent is a
    broadcast scalar."""
    def powers(x):
        out = np.empty(x.shape + (k + 1,))
        out[..., 0] = 1.0
        out[..., 1:] = x[..., None] ** np.arange(1, k + 1)
        return out
    return powers(xl[..., 0]), powers(xl[..., 1])


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

    Only what is small or per facet is kept; the per-cell evaluation
    tables are evaluated a slice of cells at a time by `CellChunk`
    (`chunks`), on the shape classes of the slice.

    coeff_v, coeff_p : (nc, m, m) per-cell coefficients of the
        orthonormal velocity and pressure bases in the local monomials,
        orthonormalized once per shape class of a chunk and gathered to
        its cells.  The facet basis has one (nbf, nbf) coefficient
        matrix, of the reference segment (`facet_basis`).
    cell_qp, cell_qw : (nc, nq, 2), (nc, nq) the cell quadrature rule;
        facet_qp, facet_qw : (nf, nqf, 2), (nf, nqf) the facet rule.
    psibar : (nf, nqf, nbf) scalar facet basis at facet points,
        `facet_basis` at the facet rule; shared by facet velocity
        components and facet pressure.
    normal : (nc, nsides, 2) outward unit normal per cell side.
    constant_pressure : (n_p + n_pbar,) read-only, the L2 projection
        of the constant pressure 1 in the (p, pbar) slots; it spans the
        kernel of the saddle-point operator.
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
        # doubled degree, affine triangles do not; on quads that is a
        # tensor Gauss rule of (2k + 1)^2 points (9 / 25 / 49)
        cell_deg = 4 * k if quad_cells else 2 * k
        nqf = 2 * k + 1 if quad_cells else k + 1
        self.cell_qp, self.cell_qw = quadrature.cell_rule(mesh, cell_deg)
        self.facet_qp, self.facet_qw = quadrature.facet_rule(mesh, nqf)

        # cell bases, orthonormalized against the exact Gram matrix, and
        # the cell part of the constant pressure, from the same powers,
        # once per shape class of a chunk (`shape_blocks`)
        def coefficients(shapes):
            P, qw = shapes._powers, shapes.qw
            cv = _orthonormalize(_mono(*P, self.ex_v, self.ey_v), qw)
            mono_p = _mono(*P, self.ex_p, self.ey_p)
            cp = _orthonormalize(mono_p, qw)
            return cv, cp, _cell_projection(_one, self.cell_qp[shapes.cells],
                                            qw, mono_p @ cp)

        self.coeff_v = np.empty((nc, self.nb, self.nb))
        self.coeff_p = np.empty((nc, self.np_cell, self.np_cell))
        const = np.empty((nc, self.np_cell))
        for ch, blocks in self.shape_blocks(coefficients):
            for out, block in zip((self.coeff_v, self.coeff_p, const), blocks):
                out[ch.cells] = ch.gather(block)

        # the facet basis of the reference segment, on its own rule
        xi, w = quadrature.segment_rule(nqf)
        V = xi[:, None] ** np.arange(self.nbf)
        self._facet_coeff = _orthonormalize(V[None], w[None])[0]
        self.psibar = self.facet_basis(nqf)

        self.normal = (mesh.facet_normals[mesh.cell_facets]
                       * mesh.cell_facet_sign[..., None])
        self.constant_pressure = np.concatenate(
            [const.ravel(), project_facet_pressure(self, _one)])
        self.constant_pressure.flags.writeable = False

        dofs = self.facet_velocity_coeffs(np.arange(self.n_ubar))
        self.constrained_facet_velocity_dofs = np.sort(
            dofs[mesh.boundary_mask].ravel())

    # -- basis evaluation ---------------------------------------------

    def _local_coords(self, pts, cells=slice(None)):
        m = self.mesh
        return ((pts - m.cell_centroids[cells, None, :])
                / m.h[cells, None, None])

    def _powers(self, pts, cells=slice(None)):
        """Power tables of the local coordinates of pts (n, m, 2) on
        the cells `cells`, up to degree k; shared by the velocity and
        pressure bases and the gradients."""
        return _power_tables(self._local_coords(pts, cells), self.degree)

    def _cell_values(self, P, cells):
        return _mono(*P, self.ex_v, self.ey_v) @ self.coeff_v[cells]

    def _cell_gradients(self, P, cells):
        Dx, Dy = _mono_grad(*P, self.ex_v, self.ey_v)
        h = self.mesh.h[cells, None, None]
        coeff = self.coeff_v[cells]
        return (Dx @ coeff) / h, (Dy @ coeff) / h

    def _pressure_basis(self, P, cells):
        return _mono(*P, self.ex_p, self.ey_p) @ self.coeff_p[cells]

    def cell_basis_at(self, pts):
        """Velocity scalar basis and physical gradients at physical
        points, batched per cell: pts (nc, m, 2)."""
        P, cells = self._powers(pts), slice(None)
        return (self._cell_values(P, cells), *self._cell_gradients(P, cells))

    def pressure_basis_at(self, pts):
        return self._pressure_basis(self._powers(pts), slice(None))

    def facet_basis(self, n):
        """Scalar facet basis at the points of the n-point
        `quadrature.facet_rule`, (nf, n, nbf): the reference table
        scaled by |F|^-1/2."""
        xi, _ = quadrature.segment_rule(n)
        scale = self.mesh.facet_lengths[:, None, None] ** -0.5
        return (xi[:, None] ** np.arange(self.nbf) @ self._facet_coeff) * scale

    def chunk(self, cells=slice(None)):
        """The evaluation tables of the cells `cells`, a slice."""
        return CellChunk(self, cells)

    def chunks(self):
        """`CellChunk`s of the slices of `cell_chunks`, in order.  A
        chunk whose cells fall into the same shape classes as those of
        the chunk before shares its `shapes`, evaluated tables
        included."""
        shapes = None
        for c in cell_chunks(self.mesh.num_cells):
            ch = CellChunk(self, c, shapes)
            # a chunk that is its own `shapes` is not held past its turn
            shapes = ch._shapes
            yield ch

    def shape_blocks(self, evaluate):
        """(chunk, evaluate(chunk.shapes)) for each of `chunks`:
        position-independent blocks of the chunk's shape classes, for
        the chunk to `gather`.  evaluate is called once for each
        distinct `shapes`, so once for a run of chunks of the same
        classes, and on a jittered mesh once per chunk."""
        shapes = blocks = None
        for ch in self.chunks():
            if ch.shapes is not shapes:
                shapes, blocks = ch._shapes, evaluate(ch.shapes)
            yield ch, blocks

    # -- views of coefficient vectors ----------------------------------

    # The vector views take one vector or a stack of them along leading
    # axes, (..., n); the results carry the same leading axes.

    def velocity_coeffs(self, u):
        """(..., nc, 2, nb) view of a cell-velocity vector."""
        return u.reshape(*u.shape[:-1], self.mesh.num_cells, 2, self.nb)

    def facet_velocity_coeffs(self, ubar):
        """(..., nf, 2, nbf) view of a facet-velocity vector, numbered
        one component after the other; writes go through to ubar."""
        return ubar.reshape(*ubar.shape[:-1], 2, self.mesh.num_facets,
                            self.nbf).swapaxes(-3, -2)


def _per_shape(evaluate):
    """A table of the cells of a chunk, evaluated when the chunk is
    its own `shapes` and gathered from the table of `shapes`
    otherwise; cached with the chunk."""
    @wraps(evaluate)
    def table(self):
        if self._shapes is None:
            return evaluate(self)
        return self.gather(getattr(self._shapes, evaluate.__name__))
    return cached_property(table)


class CellChunk:
    """Evaluation tables of the cells `cells`, a slice of consecutive
    cells or an index array, each evaluated when it is first read and
    dropped with the chunk.  n is the number of cells.

    Translated cells have equal tables (`mesh.shape_classes`), so the
    tables are evaluated on `shapes` alone, the chunk of the first cell
    of each shape class present here (in the mesh, whatever the
    chunk), and `gather` copies a stack of its results to the chunk's
    cells.  The element kernels of `assembly` run on `shapes` and
    gather their blocks; the tables below, on the chunk's cells, are
    gathered the same way, for what depends on the position (loads,
    projections) or on a coefficient vector per cell.  When every cell
    is the first of its class, as on a jittered mesh, `shapes` is the
    chunk itself and `gather` the identity.

    phi, gx, gy : (n, nq, nb) cell velocity basis and its physical
        gradients at the cell quadrature points; psi likewise for the
        pressure.
    phi_f : (n, nsides, nqf, nb) trace of the cell basis at the
        quadrature points of each side's facet, in facet point order
        (both adjacent cells see identical points).
    dn_f : (n, nsides, nqf, nb) outward normal derivative of the cell
        basis at the same points, gx n_x + gy n_y; the one statement of
        it, read by the side kernels of `assembly`.
    qw : (n, nq) the cell quadrature weights of the cells.

    The evaluations below take one vector or a stack of them along
    leading axes, (..., n_u), and return the values on the chunk's
    cells, with the same leading axes.
    """

    def __init__(self, spaces, cells, previous=None):
        self.spaces = spaces
        self.cells = cells
        self.qw = spaces.cell_qw[cells]
        mesh = spaces.mesh
        ids = np.arange(mesh.num_cells)
        first = mesh.first_of_class[mesh.shape_class[cells]]
        # no reference from a chunk to itself: a cycle would keep its
        # tables until the garbage collector runs
        self._shapes = self._index = None
        if np.array_equal(first, ids[cells]):
            return
        reps, self._index = np.unique(first, return_inverse=True)
        # the `shapes` of the chunk before, when it has the same cells
        if previous is not None and np.array_equal(ids[previous.cells], reps):
            self._shapes = previous
        else:
            self._shapes = CellChunk(spaces, reps)

    @property
    def shapes(self):
        """The chunk of the first cell of each shape class present
        here; the chunk itself when every cell is the first of its
        class."""
        return self if self._shapes is None else self._shapes

    def gather(self, blocks):
        """The stack of the chunk's cells from a stack (along the first
        axis) of the cells of `shapes`."""
        return blocks if self._index is None else blocks[self._index]

    @cached_property
    def _powers(self):
        sp_ = self.spaces
        return sp_._powers(sp_.cell_qp[self.cells], self.cells)

    @_per_shape
    def phi(self):
        return self.spaces._cell_values(self._powers, self.cells)

    @cached_property
    def _gradients(self):
        return self.spaces._cell_gradients(self._powers, self.cells)

    @_per_shape
    def gx(self):
        return self._gradients[0]

    @_per_shape
    def gy(self):
        return self._gradients[1]

    @_per_shape
    def psi(self):
        return self.spaces._pressure_basis(self._powers, self.cells)

    @cached_property
    def _side_powers(self):
        sp_, c = self.spaces, self.cells
        return [sp_._powers(sp_.facet_qp[f], c)
                for f in sp_.mesh.cell_facets[c].T]

    def _side_table(self):
        sp_ = self.spaces
        return np.empty((len(self.qw), sp_.nsides, sp_.facet_qp.shape[1],
                         sp_.nb))

    @_per_shape
    def phi_f(self):
        sp_, c = self.spaces, self.cells
        out = self._side_table()
        for e, P in enumerate(self._side_powers):
            out[:, e] = sp_._cell_values(P, c)
        return out

    @_per_shape
    def dn_f(self):
        sp_, c = self.spaces, self.cells
        out = self._side_table()
        for e, P in enumerate(self._side_powers):
            gx, gy = sp_._cell_gradients(P, c)
            n = sp_.normal[c, e]
            out[:, e] = gx * n[:, None, 0, None] + gy * n[:, None, 1, None]
        return out

    def _coeffs(self, u):
        return self.spaces.velocity_coeffs(u)[..., self.cells, :, :]

    def velocity(self, u):
        """(..., n, nq, 2) velocity at the cell quadrature points."""
        return np.einsum("cqi,...cdi->...cqd", self.phi, self._coeffs(u),
                         optimize=True)

    def velocity_grad(self, u):
        """(..., n, nq, 2, 2) array of d u_d / d x_j."""
        c = self._coeffs(u)
        gxx = np.einsum("cqi,...cdi->...cqd", self.gx, c, optimize=True)
        gyy = np.einsum("cqi,...cdi->...cqd", self.gy, c, optimize=True)
        return np.stack([gxx, gyy], axis=-1)

    def velocity_trace(self, u, side):
        """(..., n, nqf, 2) velocity at the facet points of `side`."""
        return np.einsum("cqi,...cdi->...cqd", self.phi_f[:, side],
                         self._coeffs(u), optimize=True)


def build_spaces(mesh, degree):
    """Build the discrete spaces: bases, quadrature and DOF maps."""
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
    c = np.empty((spaces.mesh.num_cells, 2, spaces.nb))
    for ch in spaces.chunks():
        F = _eval_vector(fn, spaces.cell_qp[ch.cells])
        c[ch.cells] = np.einsum("cq,cqd,cqi->cdi", ch.qw, F, ch.phi,
                                optimize=True)
    return c.ravel()


def _one(x, y):
    return np.ones_like(x)


def _cell_projection(fn, qp, qw, basis):
    """Moments of the scalar fn(x, y) against an orthonormal cell
    basis at the points qp with weights qw of a slice of cells: the
    coefficients of its L2 projection."""
    F = np.broadcast_to(fn(qp[..., 0], qp[..., 1]), qw.shape)
    return np.einsum("cq,cq,cqi->ci", qw, F, basis, optimize=True)


def project_pressure(spaces, fn):
    c = np.empty((spaces.mesh.num_cells, spaces.np_cell))
    for ch in spaces.chunks():
        c[ch.cells] = _cell_projection(fn, spaces.cell_qp[ch.cells], ch.qw,
                                       ch.psi)
    return c.ravel()


def project_facet_velocity(spaces, fn):
    F = _eval_vector(fn, spaces.facet_qp)
    c = np.einsum("fq,fqd,fqi->dfi", spaces.facet_qw, F, spaces.psibar,
                  optimize=True)
    return c.ravel()


def project_facet_pressure(spaces, fn):
    F = fn(spaces.facet_qp[..., 0], spaces.facet_qp[..., 1])
    F = np.broadcast_to(F, spaces.facet_qw.shape)
    c = np.einsum("fq,fq,fqi->fi", spaces.facet_qw, F, spaces.psibar,
                  optimize=True)
    return c.ravel()


def vertex_trace_prolongator(spaces):
    """Continuous P1 on the interior mesh vertices, in the scalar facet
    basis: a (n_ubar/2, interior vertices) CSR matrix, rows numbered
    like one component of the facet velocity.  Column j is the
    facet-wise L2 projection of the hat function of interior vertex j,
    which is linear along every facet (on quadrilaterals too), so it is
    zero on boundary facets.  The hats are evaluated at the reference
    nodes of the facet rule, where psibar is the facet basis."""
    mesh = spaces.mesh
    nf, nbf = mesh.num_facets, spaces.nbf
    # along a facet the hats of its end vertices are 1/2 -+ xi; facet
    # modes from the third on are orthogonal to linears
    xi, _ = quadrature.segment_rule(spaces.facet_qp.shape[1])
    hats = np.stack([0.5 - xi, 0.5 + xi])
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
    n = spaces.degree + 4
    qp, qw = quadrature.facet_rule(mesh, n)
    vec = np.zeros(spaces.n_ubar)
    spaces.facet_velocity_coeffs(vec)[bf] = np.einsum(
        "fq,fqd,fqi->fdi", qw[bf], _eval_vector(g, qp[bf]),
        spaces.facet_basis(n)[bf], optimize=True)
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


def lid_driven_cavity(degree=2, alpha=None, domain=(-1.0, -1.0, 1.0, 1.0)):
    """Cavity on the rectangle domain = (x0, y0, x1, y1): lid velocity
    (1 - xi^4, 0) on the top wall y = y1, xi = (2x - x0 - x1) / (x1 - x0)
    running from -1 to 1 along it, the other walls at rest.

    The lid profile vanishes at the corners, so the datum is continuous
    and has zero normal component on every wall.  On [-1, 1]^2, xi = x
    to the bit.
    """
    x0, y0, x1, y1 = domain

    def g(x, y):
        lid = y >= y1 - 1e-12 * (y1 - y0)
        xi = (2.0 * x - (x0 + x1)) / (x1 - x0)
        return np.where(lid, 1.0 - xi ** 4, 0.0), np.zeros_like(x)

    return ProblemSpec(degree=degree, alpha=alpha, boundary_velocity=g)

"""Structured 2D meshes with explicit facet topology.

Cells are triangles or quadrilaterals with counter-clockwise vertex
ordering.  Every facet (edge) is stored once; a facet knows its one or
two adjacent cells and carries the unit normal that points out of the
first of them.  The second cell sees the negated normal.  Facets are
numbered in a nested-dissection order of the cells
(`nested_dissection`), the numbering from which the minimum-degree
ordering of every facet-block factorization (`amg.spd_lu`) starts.
"""

import numpy as np

# largest relative vertex perturbation of `generate` that keeps every
# cell convex
MAX_JITTER = 0.25

# `nested_dissection` splits no part of at most this many cells.  The
# minimum-degree LU of the velocity block barely depends on it: leaves
# of 1, 2, 4 and 8 cells give 453,960 / 453,960 / 453,960 / 453,618
# entries (32 x 32 triangles, k = 2); any other value renumbers every
# facet.
_ND_LEAF = 2


class Mesh:
    """Conforming mesh of triangles or quadrilaterals.

    Parameters
    ----------
    vertices : (nv, 2) float array
    cells : (nc, 3) or (nc, 4) int array
        Counter-clockwise vertex indices per cell.
    cell_type : str
        'triangle' or 'quadrilateral'.

    Facet topology, diameters, areas and normals are derived on
    construction.  Local edge i of a cell joins its vertices i and
    i+1 (cyclic), so `cell_facets[c, i]` is the global facet sitting
    on that edge and `cell_facet_sign[c, i]` is +1 when the stored
    facet normal already points out of cell c.  `shape_class` and
    `first_of_class` group the cells into translates
    (`shape_classes`).
    """

    def __init__(self, vertices, cells, cell_type):
        if cell_type not in ("triangle", "quadrilateral"):
            raise ValueError("cell_type must be 'triangle' or 'quadrilateral'")
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=np.int64)
        self.cell_type = cell_type
        self.nodes_per_cell = 3 if cell_type == "triangle" else 4
        if self.cells.shape[1] != self.nodes_per_cell:
            raise ValueError("cell array width does not match cell_type")
        self.cell_centroids = self.vertices[self.cells].mean(axis=1)
        self._build_facets()
        self._build_geometry()
        self.shape_class, self.first_of_class = shape_classes(self)

    # -- topology ----------------------------------------------------

    def _build_facets(self):
        """Facets numbered in the nested-dissection order of the cells
        (`nested_dissection`), ties in order of first appearance in
        cell-major edge order; each keeps the orientation of the first
        cell that has it."""
        nc, npc = self.cells.shape
        a = self.cells.ravel()
        b = np.roll(self.cells, -1, axis=1).ravel()
        key = np.minimum(a, b) * (self.cells.max() + 1) + np.maximum(a, b)
        _, first, inverse, count = np.unique(
            key, return_index=True, return_inverse=True, return_counts=True)
        if np.any(count > 2):
            raise ValueError("facet shared by more than two cells")
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        edge_facet = rank[inverse]
        owner = first[inverse] == np.arange(nc * npc)
        head = np.sort(first)
        self.facet_cells = np.full((len(head), 2), -1, dtype=np.int64)
        self.facet_cells[:, 0] = head // npc
        self.facet_cells[edge_facet[~owner], 1] = np.flatnonzero(~owner) // npc
        # renumber in nested-dissection order, the one facet numbering
        order = nested_dissection(self)
        head = head[order]
        self.facets = np.column_stack([a[head], b[head]])
        self.facet_cells = self.facet_cells[order]
        self.cell_facets = np.argsort(order)[edge_facet].reshape(nc, npc)
        self.cell_facet_sign = np.where(owner, 1, -1).reshape(nc, npc)
        self.boundary_mask = self.facet_cells[:, 1] < 0

    def _build_geometry(self):
        v = self.vertices
        xc = v[self.cells]                      # (nc, npc, 2)
        x, y = xc[..., 0], xc[..., 1]
        xs, ys = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
        e = np.roll(xc, -1, axis=1) - xc        # edge i: vertex i to i+1
        en = np.roll(e, -1, axis=1)
        # a product that overflows, or a NaN vertex, fails the turn test
        # below, so neither needs a warning
        with np.errstate(over="ignore", invalid="ignore"):
            # shoelace area; positive iff counter-clockwise
            self.areas = 0.5 * np.sum(x * ys - xs * y, axis=1)
            turn = e[..., 0] * en[..., 1] - e[..., 1] * en[..., 0]
        # every corner turns counter-clockwise: the cell is convex with
        # positive area, and the bilinear map of a quadrilateral is
        # invertible; a turn that under- or overflows fails the test
        if not np.all((turn > 0) & (turn < np.inf)):
            raise ValueError("degenerate, clockwise, non-convex or "
                             "non-finite cell (check jitter and domain)")
        # diameter = max pairwise vertex distance
        d = xc[:, :, None, :] - xc[:, None, :, :]
        self.h = np.sqrt((d ** 2).sum(-1)).max(axis=(1, 2))
        # facet geometry; normal points out of the first adjacent cell
        a = v[self.facets[:, 0]]
        b = v[self.facets[:, 1]]
        t = b - a
        self.facet_lengths = np.sqrt((t ** 2).sum(-1))
        self.facet_midpoints = 0.5 * (a + b)
        tn = t / self.facet_lengths[:, None]
        self.facet_normals = np.column_stack([tn[:, 1], -tn[:, 0]])

    # -- queries -----------------------------------------------------

    @property
    def num_cells(self):
        return self.cells.shape[0]

    @property
    def num_facets(self):
        return self.facets.shape[0]

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def mesh_ratio(self):
        """Quasi-uniformity ratio h_min / h_max."""
        return self.h.min() / self.h.max()


def shape_classes(mesh):
    """The shape class of every cell, (nc,), and the first cell of
    each class, (number of classes,); classes are numbered in order of
    first appearance.

    Two cells share a class when their edge vectors v_i - v_0 have the
    same float64 bits and each of their sides stores its facet in the
    same direction, with the same normal sign.  They are then
    translates whose facet points run alike, so everything expressed
    in their centred, h-scaled local coordinates (bases, quadrature
    weights, element forms) is equal in exact arithmetic.  On a
    jittered mesh each cell is, in practice, a class of its own."""
    nc, npc = mesh.cells.shape
    xc = mesh.vertices[mesh.cells]
    edges = np.ascontiguousarray(xc[:, 1:] - xc[:, :1]).reshape(nc, -1)
    along = mesh.facets[mesh.cell_facets, 0] == mesh.cells
    key = np.column_stack([edges.view(np.int64), along,
                           mesh.cell_facet_sign])
    # one opaque row per cell: a far quicker sort than unique on axis 0
    rows = key.view(np.dtype((np.void, key.itemsize * key.shape[1])))
    _, first, inverse = np.unique(rows.ravel(), return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int64)
    rank[order] = np.arange(len(first))
    return rank[inverse.ravel()], first[order]


def generate(nx, ny, cell_type="triangle", domain=(-1.0, -1.0, 1.0, 1.0),
             jitter=0.0, seed=0):
    """Structured mesh of an axis-aligned rectangle.

    Parameters
    ----------
    nx, ny : int
        Number of squares per direction; each square becomes two
        triangles (diagonal alternating with the square's parity) or
        one quadrilateral.
    domain : (x0, y0, x1, y1)
    jitter : float
        Relative interior-vertex perturbation in [0, 0.25]; boundary
        vertices never move.  Seeded, hence reproducible.  On a square
        of side h a corner lies h / sqrt(2) from the opposite diagonal,
        and moving each vertex by up to jitter * h per direction brings
        them up to 2 sqrt(2) jitter h closer; so beyond 1/4 a triangle
        can invert and a quadrilateral corner turn clockwise.
    """
    if nx < 1 or ny < 1:
        raise ValueError("need at least one cell per direction")
    if not 0.0 <= jitter <= MAX_JITTER:
        raise ValueError("jitter must lie in [0, %g]" % MAX_JITTER)
    x0, y0, x1, y1 = domain
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    if jitter > 0.0:
        rng = np.random.default_rng(seed)
        dx, dy = (x1 - x0) / nx, (y1 - y0) / ny
        interior = np.zeros(len(verts), dtype=bool)
        idx = np.arange(len(verts)).reshape(nx + 1, ny + 1)
        interior[idx[1:-1, 1:-1].ravel()] = True
        shift = rng.uniform(-jitter, jitter, size=(interior.sum(), 2))
        verts[interior] += shift * np.array([dx, dy])

    def vid(i, j):
        return i * (ny + 1) + j

    cells = []
    if cell_type == "triangle":
        for i in range(nx):
            for j in range(ny):
                v00, v10 = vid(i, j), vid(i + 1, j)
                v11, v01 = vid(i + 1, j + 1), vid(i, j + 1)
                if (i + j) % 2 == 0:
                    cells.append((v00, v10, v11))
                    cells.append((v00, v11, v01))
                else:
                    cells.append((v00, v10, v01))
                    cells.append((v10, v11, v01))
    elif cell_type == "quadrilateral":
        for i in range(nx):
            for j in range(ny):
                cells.append((vid(i, j), vid(i + 1, j),
                              vid(i + 1, j + 1), vid(i, j + 1)))
    else:
        raise ValueError("cell_type must be 'triangle' or 'quadrilateral'")
    return Mesh(verts, np.array(cells), cell_type)


def nested_dissection(mesh):
    """The facets in a nested-dissection order of the cells.

    Starting from all cells, every part of more than `_ND_LEAF` cells
    is split at the median of its cell centroids along the longer
    extent of their bounding box; all parts of one level are split at
    once.  Parts are numbered as a heap: part p splits into 2p (the
    lower half) and 2p + 1.  A facet whose two cells fall in the two
    halves of a part is that part's separator: its part is the lowest
    common ancestor of the leaves of its cells.  Boundary facets, and
    facets inside a leaf, go with their leaf.  The facets come in
    post-order of their parts, both halves of a part before its
    separator, the separators of the coarsest splits last (George,
    SIAM J. Numer. Anal. 10, 1973).  Ties are broken by
    stable sorts, by cell and by facet index, so the order does not
    depend on anything but the mesh.  `Mesh` numbers its facets in
    this order, so on a built mesh it is the identity."""
    nc = mesh.num_cells
    x = mesh.cell_centroids
    # each cell's place along each axis, ties by cell index: sorting a
    # part by it is one integer sort, with no ties left
    rank = np.empty((nc, 2), dtype=np.int64)
    for axis in (0, 1):
        rank[np.argsort(x[:, axis], kind="stable"), axis] = np.arange(nc)
    # the cells grouped by part: the parts `part` (heap numbers) hold
    # `size` consecutive cells each
    cells = np.arange(nc)
    part = np.ones(1, dtype=np.int64)
    size = np.array([nc])
    while (size > _ND_LEAF).any():
        start = np.cumsum(size) - size
        xs = x[cells]
        extent = (np.maximum.reduceat(xs, start)
                  - np.minimum.reduceat(xs, start))
        group = np.repeat(np.arange(len(size)), size)
        key = rank[cells, np.argmax(extent, axis=1)[group]]
        cells = cells[np.argsort(group * nc + key)]
        split = size > _ND_LEAF
        lower = np.where(split, size // 2, size)
        size = np.column_stack([lower, size - lower]).ravel()
        part = np.column_stack([np.where(split, 2 * part, part),
                                2 * part + 1]).ravel()
        part, size = part[size > 0], size[size > 0]
    leaf = np.empty(nc, dtype=np.int64)
    leaf[cells] = np.repeat(part, size)

    def bits(p):
        """Bit length of heap numbers: the depth of a part, plus one."""
        return np.frexp(p)[1]

    first, second = mesh.facet_cells.T
    a = leaf[first]
    b = np.where(second < 0, a, leaf[second])
    # the lowest common ancestor of the two leaves: both brought to the
    # depth of the shallower, then up past the highest differing bit
    la, lb = bits(a), bits(b)
    a >>= np.maximum(la - lb, 0)
    b >>= np.maximum(lb - la, 0)
    node = a >> bits(a ^ b)
    # post-order rank: pad each part's heap path to the deepest level
    # with ones, so both halves of a part sort no later than the part
    # itself, and the deeper of two equal keys first
    d = bits(node)
    pad = bits(part).max() - d
    return np.lexsort((-d, ((node + 1) << pad) - 1))


def write_mesh(mesh, path):
    """Plain-text node/element dump."""
    with open(path, "w") as fh:
        fh.write(f"# vertices {mesh.num_vertices}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g}\n")
        fh.write(f"# cells {mesh.num_cells} {mesh.cell_type}\n")
        for row in mesh.cells:
            fh.write(" ".join(str(i) for i in row) + "\n")
        fh.write(f"# boundary_facets {int(mesh.boundary_mask.sum())}\n")
        for f in np.flatnonzero(mesh.boundary_mask):
            a, b = mesh.facets[f]
            fh.write(f"{a} {b}\n")

"""Assembly of the hybridized Stokes saddle-point system.

Velocity block (per cell K, both components identically):

    a(w, v) = (grad w, grad v)_K
            + alpha/h_K <w - wbar, v - vbar>_dK
            - <w - wbar, dn v>_dK - <dn w, v - vbar>_dK

Divergence coupling:

    b((q, qbar), v) = -(q, div v)_K + <v.n, qbar>_dK

so the facet-velocity column of B is structurally zero.  Blocks are
indexed u (cell velocity), t (facet velocity trace), p (cell
pressure), s (facet pressure):

    A = [[A_uu, A_tu^T], [A_tu, A_tt]],   B = [[B_pu, 0], [B_su, 0]]

The form of each cell vanishes on the constant pair v = vbar = 1;
the coercivity guard of `build_block_system`, like
`spectra.coercivity_bounds`, removes it by dropping a constant mode.

Everything coupled to the cell velocity is stored per cell, as static
condensation consumes it; A_uu, A_tu, B_pu and B_su are scattered from
those blocks on access (probes, export, tests).  The element kernels
are defined here once, for the norms of the spectra module as well.
Each reads the basis tables of one `spaces.CellChunk`, and every
function here that covers the mesh walks the cells chunk by chunk, so
no table of every cell is formed; no block depends on the chunk size.
The kernels run once per shape class of a chunk (translated cells,
`mesh.shape_classes`) and their blocks are gathered to its cells
(kernel section below).

Pressure masses: M_p is the plain cell mass (identity in the modal
basis); M_s carries the facet weight h_K+ + h_K- (interior) or h_K
(boundary).  Both are diagonal because the modal bases are
orthonormal; `build_block_system` checks that once, with
`mass_diagonal`, and stores the diagonal (`BlockSystem.mass`) that the
preconditioners and the spectral probes read.

Dirichlet data on the facet velocity is eliminated symmetrically:
constrained rows/columns of A are cleared, the diagonal is set to one,
and the coupling moves to the right-hand side.  Pressure rows never
see the boundary datum, which is consistent only for data with zero
normal flux per facet.
"""

import numpy as np
import scipy.sparse as sp

from . import spaces as _spaces


def _sym(batch):
    """Round a batch of symmetric-by-definition blocks to exact
    symmetry; the unsymmetrized einsum differs by rounding only."""
    return 0.5 * (batch + batch.transpose(0, 2, 1))


def _kernel(a, w, b):
    """(m, i, j) batch of quadrature sums over q of a_qi w_q b_qj."""
    return np.einsum("cqi,cq,cqj->cij", a, w, b, optimize=True)


def _row_order(rows, cols, n_rows):
    """The row order of a scatter, which depends on the indices alone.

    rows (m, r), cols (m, c).  Returns (pos, indices, indptr): pos
    (m r,), the place of each block row in the unsummed CSR buffer,
    its rows stably sorted by row; the int32 column indices of that
    buffer, (m r, c); and its row pointer."""
    m, r = rows.shape
    c = cols.shape[1]
    order = np.argsort(rows.ravel(), kind="stable")
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows.ravel(), minlength=n_rows) * c,
              out=indptr[1:])
    indices = cols.astype(np.int32)[order // r]
    pos = np.empty_like(order)
    pos[order] = np.arange(m * r)
    return pos, indices, indptr


def _scatter(rows, cols, vals, shape):
    """Accumulate batched dense blocks into CSR; every scatter of
    element blocks goes through here, so no assembled matrix stores an
    exact zero.

    rows (m, r), cols (m, c), vals (m, r, c), or an iterable of
    consecutive pieces of it along m, each written to its place as it
    comes, so that the stack is never held whole; duplicate index
    pairs are summed, then exact zeros dropped.  The m r block rows go
    straight into CSR, stably sorted by row (`_row_order`): the same
    unsorted rows, in the same order, as a COO-to-CSR conversion of
    the expanded triplets, so every sum is the same to the bit, with no
    expanded row index array.  Column indices are int32.
    """
    c = cols.shape[1]
    pos, indices, indptr = _row_order(rows, cols, shape[0])
    data = np.empty((len(pos), c))
    start = 0
    for piece in [vals] if isinstance(vals, np.ndarray) else vals:
        stop = start + piece.shape[0] * piece.shape[1]
        data[pos[start:stop]] = piece.reshape(-1, c)
        start = stop
    out = sp.csr_matrix((data.ravel(), indices.ravel(), indptr), shape=shape)
    # no other reference to the unsummed buffers, so that the sums
    # below free them as soon as they copy the summed entries out
    del data, indices
    out.sum_duplicates()
    out.eliminate_zeros()
    # The sums copy the entries out only when fewer than half of them
    # are left; otherwise copy them here, the indices first: with the
    # smaller buffer freed first, the peak is the data buffer and both
    # summed arrays.
    if out.indices.base is not None:
        out.indices = out.indices.copy()
        out.data = out.data.copy()
    return out


def _dof_maps(sp_):
    """Global dofs per cell ('p') and per facet ('s'; 't', (nf, 2, nbf),
    the facet velocity by component)."""
    nbf, npc = sp_.nbf, sp_.np_cell
    cells = np.arange(sp_.mesh.num_cells)[:, None]
    facets = np.arange(sp_.mesh.num_facets)[:, None]
    return {"p": cells * npc + np.arange(npc),
            "s": facets * nbf + np.arange(nbf),
            "t": sp_.facet_velocity_coeffs(np.arange(sp_.n_ubar))}


# -- batched element kernels (scalar, shared by both components) ------
#
# Each kernel takes a `spaces.CellChunk` and returns the blocks of its
# cells, (n, rows, cols).  The functions below that cover the mesh walk
# the cells chunk by chunk and run the kernels on the chunk's shape
# classes only, `CellChunk.shapes` (through `SpaceSet.shape_blocks`),
# gathering the blocks to the cells: the velocity form and its
# coercivity guard, `Side.normal_flux`, `local_divergence` and
# `cell_pressure_mass`.  The body force, the boundary datum and its
# elimination depend on the position and stay per cell or per facet.

def scalar_stiffness(ch):
    """(n, nb, nb) cell gradient products."""
    return _sym(_kernel(ch.gx, ch.qw, ch.gx) + _kernel(ch.gy, ch.qw, ch.gy))


def _side_weights(sp_, cells, e):
    return sp_.facet_qw[sp_.mesh.cell_facets[cells, e]]


class Side:
    """Side e of every cell of a chunk: quadrature data and the
    per-side kernels, each an (n, rows, cols) batch.  w are the side's
    quadrature weights, wpen = alpha/h_K w, phi the cell basis and dn
    its outward normal derivative (views of the chunk's `phi_f` and
    `dn_f`), psibar the facet basis."""

    def __init__(self, ch, e, alpha):
        sp_, cells = ch.spaces, ch.cells
        self.facets = sp_.mesh.cell_facets[cells, e]
        self.normal = sp_.normal[cells, e]
        self.w = _side_weights(sp_, cells, e)
        self.wpen = self.w * (alpha / sp_.mesh.h[cells])[:, None]
        self.phi = ch.phi_f[:, e]
        self.psibar = sp_.psibar[self.facets]
        self.dn = ch.dn_f[:, e]

    def penalty(self):
        """alpha/h <phi, phi>, before symmetrization."""
        return _kernel(self.phi, self.wpen, self.phi)

    def consistency(self):
        """<dn phi, phi>."""
        return _kernel(self.dn, self.w, self.phi)

    def facet_cell(self, consistency=True):
        """Facet row, cell column of a: <dn w, vbar> - alpha/h <w, vbar>,
        or only its penalty part."""
        pen = _kernel(self.psibar, self.wpen, self.phi)
        if not consistency:
            return -pen
        return _kernel(self.psibar, self.w, self.dn) - pen

    def facet_facet(self):
        """alpha/h <psibar, psibar>."""
        return _sym(_kernel(self.psibar, self.wpen, self.psibar))

    def normal_flux(self):
        """(n, nbf, 2 nb) facet-pressure rows <v.n, sbar>."""
        return np.concatenate(
            [np.einsum("cqi,cq,cqj,c->cij", self.psibar, self.w, self.phi,
                       self.normal[:, d], optimize=True) for d in (0, 1)],
            axis=2)


def local_divergence(ch):
    """(n, np_cell, 2*nb) blocks of -(q, div v)_K."""
    return -np.concatenate([_kernel(ch.psi, ch.qw, ch.gx),
                            _kernel(ch.psi, ch.qw, ch.gy)], axis=2)


def cell_pressure_mass(ch):
    """(n, np_cell, np_cell) cell masses (q, q)_K."""
    return _sym(_kernel(ch.psi, ch.qw, ch.psi))


def facet_mass(sp_, weights):
    """(nf, nbf, nbf) facet masses <qbar, qbar>_f times a facet weight."""
    return _sym(_kernel(sp_.psibar, sp_.facet_qw * weights[:, None],
                        sp_.psibar))


def facet_integrals(sp_):
    """(nf, nbf) integrals of the facet basis over each facet."""
    return np.einsum("fq,fqi->fi", sp_.facet_qw, sp_.psibar, optimize=True)


def mass_diagonal(M, name):
    """Diagonal of a mass matrix that is diagonal up to roundoff.

    Raises ValueError when a row's off-diagonal absolute sum exceeds
    1e-12 of its (positive) diagonal entry."""
    M = sp.csr_matrix(M)
    d = M.diagonal()
    off = np.abs(M - sp.diags(d)).sum(axis=1).A1
    if not np.all(d > 0.0) or np.any(off > 1e-12 * d):
        raise ValueError("%s matrix is not positive diagonal" % name)
    return d


def facet_mass_weights(mesh):
    """Facet weight h_K+ + h_K- (interior) or h_K (boundary)."""
    fc = mesh.facet_cells
    w = mesh.h[fc[:, 0]].copy()
    inner = fc[:, 1] >= 0
    w[inner] += mesh.h[fc[inner, 1]]
    return w


class BlockSystem:
    """Assembled system plus constraint bookkeeping.

    Per cell: local_auu_scalar, the nb^2 block of one cell-velocity
    component (the form acts on both components alike, so it is stored
    once and scattered once per component), and
    local_coupling, every row coupled to the cell velocity, with its
    indices local_rows in the condensed t, p, s numbering.  Per facet:
    facet_att, the (2nbf)^2 block of A_tt on the facet's velocity dofs
    (A_tt couples no two facets), rows and columns by component, then
    mode, as in `_t`.  Global: the CSR blocks M_p, M_s and mass, their
    diagonal (n_p + n_s,) as `mass_diagonal` checked it; the right-hand
    sides L_u, L_t; g_values, the eliminated boundary datum; coercive,
    the cell-wise coercivity guard of `build_block_system`.
    A_uu, A_tu, A_tt, B_pu and B_su are scattered from the per-cell and
    per-facet blocks on every access, through `_scatter`, so none of
    them stores an exact zero.
    """

    def __init__(self, sp_, alpha):
        self.spaces = sp_
        self.alpha = alpha
        self.constrained = sp_.constrained_facet_velocity_dofs
        self.g_values = np.zeros(sp_.n_ubar)
        nc = sp_.mesh.num_cells
        self._u = np.arange(sp_.n_u).reshape(nc, -1)
        # facet velocity dofs per facet, component-major as in facet_att
        self._t = _dof_maps(sp_)["t"].reshape(sp_.mesh.num_facets, -1)
        # stack rows, offset in the condensed numbering and size of each
        # block: facet velocity per side (component-major), cell
        # pressure, facet pressure per side
        nt = sp_.nsides * 2 * sp_.nbf
        npc = nt + sp_.np_cell
        mk = npc + sp_.nsides * sp_.nbf
        self.layout = {
            "t": (slice(0, nt), 0, sp_.n_ubar),
            "p": (slice(nt, npc), sp_.n_ubar, sp_.n_p),
            "s": (slice(npc, mk), sp_.n_ubar + sp_.n_p, sp_.n_pbar)}
        self.local_coupling = np.zeros((nc, mk, 2 * sp_.nb))
        self.local_rows = np.empty((nc, mk), dtype=np.int64)
        self.local_auu_scalar = np.empty((nc, sp_.nb, sp_.nb))
        self.facet_att = np.zeros((sp_.mesh.num_facets, 2 * sp_.nbf,
                                   2 * sp_.nbf))
        self.coercive = True

    def local_block(self, key):
        """(rows, values) of block 't', 'p' or 's' of the per-cell
        coupling stack, rows numbered within that block."""
        stack_rows, offset, _ = self.layout[key]
        return (self.local_rows[:, stack_rows] - offset,
                self.local_coupling[:, stack_rows])

    def add_facet_blocks(self, V, start=0):
        """Add each facet's block of A_tt to V, the stack of
        (local_rows)^2 blocks of the cells start, start + 1, ..., at the
        rows of the facet's side in the stack of the facet's first
        cell; V is modified in place."""
        mesh = self.spaces.mesh
        stack_rows = self.layout["t"][0]
        m2 = self._t.shape[1]
        cells = np.arange(start, start + len(V))
        for e in range(self.spaces.nsides):
            fe = mesh.cell_facets[cells, e]
            own = mesh.facet_cells[fe, 0] == cells
            side = slice(stack_rows.start + e * m2,
                         stack_rows.start + (e + 1) * m2)
            V[own, side, side] += self.facet_att[fe[own]]

    def _times_u(self, key):
        rows, vals = self.local_block(key)
        return _scatter(rows, self._u, vals,
                        (self.layout[key][2], self.spaces.n_u))

    @property
    def A_uu(self):
        # one scatter of the scalar block per velocity component
        n_u = self.spaces.n_u
        u = self._u.reshape(-1, self.spaces.nb)
        return _scatter(u, u, np.repeat(self.local_auu_scalar, 2, axis=0),
                        (n_u, n_u))

    @property
    def A_tt(self):
        n_t = self.spaces.n_ubar
        return _scatter(self._t, self._t, self.facet_att, (n_t, n_t))

    @property
    def A_tu(self):
        return self._times_u("t")

    @property
    def B_pu(self):
        return self._times_u("p")

    @property
    def B_su(self):
        return self._times_u("s")

    def velocity_matrix(self):
        A_tu = self.A_tu
        return sp.bmat([[self.A_uu, A_tu.T], [A_tu, self.A_tt]],
                       format="csr")

    def divergence_matrix(self):
        """[[B_pu, 0], [B_su, 0]] in one scatter of the p and s rows,
        which follow the t rows in the per-cell stack and in the
        condensed numbering; the facet-velocity columns stay empty."""
        sp_ = self.spaces
        stack_rows = slice(self.layout["p"][0].start, None)
        return _scatter(self.local_rows[:, stack_rows] - sp_.n_ubar, self._u,
                        self.local_coupling[:, stack_rows],
                        (sp_.n_p + sp_.n_pbar, sp_.n_u + sp_.n_ubar))

    def saddle_matrix(self):
        A = self.velocity_matrix()
        B = self.divergence_matrix()
        z = sp.csr_matrix((B.shape[0], B.shape[0]))
        return sp.bmat([[A, B.T], [B, z]], format="csr")

    def pressure_mass(self):
        return sp.block_diag([self.M_p, self.M_s], format="csr")

    def full_rhs(self):
        np_tot = self.spaces.n_p + self.spaces.n_pbar
        return np.concatenate([self.L_u, self.L_t, np.zeros(np_tot)])


def _velocity_form(ch, alpha, consistency=True):
    """The unconstrained velocity form of the cells of chunk ch,
    (n, m, m); see `local_velocity_form`."""
    sp_ = ch.spaces
    nb, nbf = sp_.nb, sp_.nbf
    m = nb + sp_.nsides * nbf
    L = np.zeros((ch.qw.shape[0], m, m))
    auu = scalar_stiffness(ch)
    for e in range(sp_.nsides):
        side = Side(ch, e, alpha)
        auu += _sym(side.penalty())
        if consistency:
            X = side.consistency()
            auu -= X + X.transpose(0, 2, 1)
        s = slice(nb + e * nbf, nb + (e + 1) * nbf)
        L[:, s, :nb] = side.facet_cell(consistency)
        L[:, s, s] = side.facet_facet()
    L[:, :nb, :nb] = auu
    L[:, :nb, nb:] = L[:, nb:, :nb].transpose(0, 2, 1)
    return L


def local_velocity_form(sp_, alpha, consistency=True):
    """(nc, m, m) unconstrained velocity form L of every cell, on one
    component, evaluated chunk by chunk on the shape classes
    (`SpaceSet.shape_blocks`) and gathered to the cells.

    L is [[A_0, T^T], [T, P]], the cell basis first and then the facet
    basis of each side: A_0 is the cell block, T and P the
    `Side.facet_cell` and `Side.facet_facet` kernels.  Without the
    consistency terms it is the velocity pair norm.  L is affine in
    alpha, L_0 + alpha L_pen, and annihilates the constant pair
    v = vbar = 1, whose coefficient on the first (constant) cell basis
    function is sqrt|K|, never zero.  This is the one sum of the `Side`
    kernels into the velocity form."""
    m = sp_.nb + sp_.nsides * sp_.nbf
    L = np.empty((sp_.mesh.num_cells, m, m))
    for ch, forms in sp_.shape_blocks(
            lambda shapes: _velocity_form(shapes, alpha, consistency)):
        L[ch.cells] = ch.gather(forms)
    return L


def _guarded_velocity_form(shapes, alpha, consistency=True):
    """The velocity forms of the cells of chunk `shapes`, and whether
    all of them are positive definite off their constant pair: the
    coercivity guard of `velocity_blocks`."""
    L = _velocity_form(shapes, alpha, consistency)
    try:
        np.linalg.cholesky(L[:, 1:, 1:])
    except np.linalg.LinAlgError:
        return L, False
    return L, True


def _add_velocity_form(bs, ch, forms):
    """Lay out the velocity form of the cells of chunk ch in bs, from
    `forms`, those of its `shapes`: local_auu_scalar, the
    facet-velocity rows of the per-cell stack and their sums into
    facet_att."""
    sp_, c = bs.spaces, ch.cells
    nb, nbf = sp_.nb, sp_.nbf
    dt = bs._t.reshape(sp_.mesh.num_facets, 2, nbf)
    L = ch.gather(forms)
    bs.local_auu_scalar[c] = L[:, :nb, :nb]
    for e in range(sp_.nsides):
        facets = sp_.mesh.cell_facets[c, e]
        s = slice(nb + e * nbf, nb + (e + 1) * nbf)
        for comp in range(2):
            r = slice((2 * e + comp) * nbf, (2 * e + comp + 1) * nbf)
            bs.local_coupling[c, r, comp * nb:(comp + 1) * nb] = L[:, s, :nb]
            bs.local_rows[c, r] = dt[facets, comp]
            cc = slice(comp * nbf, (comp + 1) * nbf)
            np.add.at(bs.facet_att[:, cc, cc], facets, L[:, s, s])


def velocity_blocks(sp_, alpha, consistency=True):
    """BlockSystem holding the velocity form only, laid out from
    `local_velocity_form` chunk by chunk: local_auu_scalar, the
    facet-velocity rows of the per-cell stack, and facet_att (without
    the consistency terms, the velocity pair norm).  The forms are not
    kept: bs.coercive records whether each is positive definite off its
    constant pair, by a batched Cholesky of L with the cell's constant
    mode (its first row and column) dropped, once per shape class of
    a chunk.  L vanishes on the pair,
    whose coefficient there is never zero, so that reduced block is
    positive definite if and only if L is off the pair.  That suffices
    for coercivity: the cell-wise sum is then positive off the constant
    fields, so the condensed velocity block is SPD, and so is every
    cell block that `condense` factors."""
    bs = BlockSystem(sp_, alpha)
    for ch, (forms, coercive) in sp_.shape_blocks(
            lambda shapes: _guarded_velocity_form(shapes, alpha,
                                                  consistency)):
        bs.coercive &= coercive
        _add_velocity_form(bs, ch, forms)
    return bs


def _cell_blocks(shapes, alpha):
    """Every block of `build_block_system` that does not depend on
    the position, for the cells of chunk `shapes`: the guarded velocity
    forms, the facet-pressure rows of each side, the divergence rows and
    the cell pressure masses."""
    forms, coercive = _guarded_velocity_form(shapes, alpha)
    flux = [Side(shapes, e, alpha).normal_flux()
            for e in range(shapes.spaces.nsides)]
    return (forms, coercive, flux, local_divergence(shapes),
            cell_pressure_mass(shapes))


def build_block_system(sp_, problem, bcs=True):
    """Assemble the per-cell and per-facet blocks, the pressure masses
    and the right-hand sides, one chunk of cells at a time.  The blocks
    are evaluated once per shape class of a chunk (`_cell_blocks`,
    through `SpaceSet.shape_blocks`) and gathered to its cells; the
    body force is integrated on the chunk's own cells.  With bcs=True
    the boundary velocity datum is projected and eliminated
    symmetrically."""
    bs = BlockSystem(sp_, problem.alpha)
    dm = _dof_maps(sp_)
    nc, nbf = sp_.mesh.num_cells, sp_.nbf
    s_rows, s_offset, _ = bs.layout["s"]
    p_rows, p_offset, _ = bs.layout["p"]
    mass_p = np.empty((nc, sp_.np_cell, sp_.np_cell))
    L_u = np.empty((nc, 2, sp_.nb))
    for ch, (forms, coercive, flux, div, mass) in sp_.shape_blocks(
            lambda shapes: _cell_blocks(shapes, problem.alpha)):
        c = ch.cells
        bs.coercive &= coercive
        _add_velocity_form(bs, ch, forms)
        for e, facets in enumerate(sp_.mesh.cell_facets[c].T):
            r = slice(s_rows.start + e * nbf, s_rows.start + (e + 1) * nbf)
            bs.local_coupling[c, r] = ch.gather(flux[e])
            bs.local_rows[c, r] = s_offset + dm["s"][facets]
        bs.local_coupling[c, p_rows] = ch.gather(div)
        bs.local_rows[c, p_rows] = p_offset + dm["p"][c]
        mass_p[c] = ch.gather(mass)
        # body force, at the chunk's own quadrature points
        F = _spaces._eval_vector(problem.body_force, sp_.cell_qp[c])
        L_u[c] = np.einsum("cq,cqd,cqi->cdi", ch.qw, F, ch.phi,
                           optimize=True)
    bs.L_u = L_u.ravel()
    bs.L_t = np.zeros(sp_.n_ubar)

    # pressure masses (identity / weighted identity in the modal basis,
    # but assembled honestly)
    bs.M_p = _scatter(dm["p"], dm["p"], mass_p, (sp_.n_p, sp_.n_p))
    bs.M_s = _scatter(dm["s"], dm["s"],
                      facet_mass(sp_, facet_mass_weights(sp_.mesh)),
                      (sp_.n_pbar, sp_.n_pbar))
    bs.mass = np.concatenate([mass_diagonal(bs.M_p, "cell pressure mass"),
                              mass_diagonal(bs.M_s, "facet pressure mass")])

    if bcs:
        g = _spaces.interpolate_boundary(sp_, problem.boundary_velocity)
        _eliminate(bs, g)
    return bs


def _eliminate(bs, g):
    """Symmetric elimination of the facet-velocity Dirichlet datum."""
    sp_ = bs.spaces
    cI = bs.constrained
    free = np.ones(sp_.n_ubar)
    free[cI] = 0.0

    gc = np.zeros(sp_.n_ubar)
    gc[cI] = g[cI]
    # the constrained facet-velocity rows of the per-cell stacks (the
    # pressure rows are numbered from n_ubar up); gc vanishes on every
    # other row, so A_cu^T gc = A_tu^T gc
    cells, k = np.nonzero(np.isin(bs.local_rows, cI))
    A_cu = _scatter(bs.local_rows[cells, k, None], bs._u[cells],
                    bs.local_coupling[cells, k, None], (sp_.n_ubar, sp_.n_u))
    bs.L_u = bs.L_u - A_cu.T @ gc
    bs.L_t = bs.L_t - bs.A_tt @ gc
    bs.L_t[cI] = g[cI]

    # constrained rows and columns of A_tt cleared, unit diagonal there
    ff = free[bs._t]
    bs.facet_att *= ff[:, :, None] * ff[:, None, :]
    f, i = np.nonzero(ff == 0.0)
    bs.facet_att[f, i, i] = 1.0
    bs.g_values = gc
    bs.local_coupling[cells, k] = 0.0


def boundary_flux_per_facet(sp_, g):
    """Normal flux of the projected boundary datum per boundary facet;
    must vanish for the pressure rows to remain consistent."""
    mesh = sp_.mesh
    bf = np.flatnonzero(mesh.boundary_mask)
    c = sp_.facet_velocity_coeffs(g)[bf]
    vals = np.einsum("fqi,fdi->fqd", sp_.psibar[bf], c, optimize=True)
    n = mesh.facet_normals[bf]
    return np.einsum("fq,fqd,fd->f", sp_.facet_qw[bf], vals, n,
                     optimize=True)


# -- direct quadrature evaluation of the forms (independent of the
#    assembled matrices; used as a second route in tests) -------------

def a_form_value(sp_, alpha, u1, t1, u2, t2):
    """a((w, wbar), (v, vbar)) evaluated term by term by quadrature.
    Each argument is one vector or a stack of them along leading axes
    (`SpaceSet.velocity_coeffs`); the value carries those axes.  When
    both pairs are the same arrays, their kernels are evaluated once.
    The fields are evaluated chunk by chunk into arrays over every
    cell, which each sum then reads whole, so the value does not depend
    on the chunk size."""
    mesh = sp_.mesh
    nc, ns = mesh.num_cells, sp_.nsides
    nq, nqf = sp_.cell_qw.shape[1], sp_.facet_qw.shape[1]

    def kernels(u, t):
        """Cell gradients, and per side the jump w - wbar and the
        normal derivative of w."""
        lead = u.shape[:-1]
        c, uc = sp_.facet_velocity_coeffs(t), sp_.velocity_coeffs(u)
        grad = np.empty(lead + (nc, nq, 2, 2))
        jump = np.empty((ns,) + lead + (nc, nqf, 2))
        dn = np.empty_like(jump)
        for ch in sp_.chunks():
            cells = ch.cells
            grad[..., cells, :, :, :] = ch.velocity_grad(u)
            for e in range(ns):
                f = mesh.cell_facets[cells, e]
                wb = np.einsum("cqi,...cdi->...cqd", sp_.psibar[f],
                               c[..., f, :, :], optimize=True)
                jump[e][..., cells, :, :] = ch.velocity_trace(u, e) - wb
                dn[e][..., cells, :, :] = np.einsum(
                    "cqi,...cdi->...cqd", ch.dn_f[:, e],
                    uc[..., cells, :, :], optimize=True)
        return grad, list(zip(jump, dn))

    g1, sides1 = kernels(u1, t1)
    g2, sides2 = ((g1, sides1) if u2 is u1 and t2 is t1
                  else kernels(u2, t2))
    val = np.einsum("cq,...cqdj,...cqdj->...", sp_.cell_qw, g1, g2,
                    optimize=True)
    pen = alpha / mesh.h
    for e, ((j1, dn1), (j2, dn2)) in enumerate(zip(sides1, sides2)):
        w = _side_weights(sp_, slice(None), e)
        val += np.einsum("c,cq,...cqd,...cqd->...", pen, w, j1, j2,
                         optimize=True)
        val -= np.einsum("cq,...cqd,...cqd->...", w, j1, dn2, optimize=True)
        val -= np.einsum("cq,...cqd,...cqd->...", w, dn1, j2, optimize=True)
    return val


def b_form_value(sp_, p, s, u):
    """b((q, qbar), v) by quadrature; the fields are evaluated chunk by
    chunk, as in `a_form_value`."""
    mesh = sp_.mesh
    nc, ns = mesh.num_cells, sp_.nsides
    pc = p.reshape(nc, -1)
    sv = s.reshape(mesh.num_facets, -1)
    div, pv = np.empty((2,) + sp_.cell_qw.shape)
    vn, qb = np.empty((2, ns, nc, sp_.facet_qw.shape[1]))
    for ch in sp_.chunks():
        cells = ch.cells
        g = ch.velocity_grad(u)
        div[cells] = g[..., 0, 0] + g[..., 1, 1]
        pv[cells] = np.einsum("cqi,ci->cq", ch.psi, pc[cells],
                              optimize=True)
        for e in range(ns):
            f = mesh.cell_facets[cells, e]
            n = sp_.normal[cells, e]
            tr = ch.velocity_trace(u, e)
            vn[e, cells] = (tr[..., 0] * n[:, None, 0]
                            + tr[..., 1] * n[:, None, 1])
            qb[e, cells] = np.einsum("cqi,ci->cq", sp_.psibar[f], sv[f],
                                     optimize=True)
    val = -np.einsum("cq,cq,cq->", sp_.cell_qw, pv, div, optimize=True)
    for e in range(ns):
        w = _side_weights(sp_, slice(None), e)
        val += np.einsum("cq,cq,cq->", w, vn[e], qb[e], optimize=True)
    return val

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

Everything coupled to the cell velocity is stored per cell, as static
condensation consumes it; A_uu, A_tu, B_pu and B_su are scattered from
those blocks on access (probes, export, tests).  The element kernels
are defined here once, for the norms of the spectra module as well.

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


def _scatter(rows, cols, vals, shape, keep_zeros=True):
    """Accumulate batched dense blocks into CSR; every scatter of
    element blocks goes through here.

    rows (m, r), cols (m, c), vals (m, r, c); duplicate index pairs
    are summed, and exact zeros dropped unless keep_zeros.  The m r
    block rows go straight into CSR, stably sorted by row: the same
    unsorted rows, in the same order, as a COO-to-CSR conversion of
    the expanded triplets, so every sum is the same to the bit, with
    no expanded row index array.  Column indices are int32.
    """
    m, r = rows.shape
    c = cols.shape[1]
    order = np.argsort(rows.ravel(), kind="stable")
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows.ravel(), minlength=shape[0]) * c,
              out=indptr[1:])
    out = sp.csr_matrix((vals.reshape(m * r, c)[order].ravel(),
                         cols.astype(np.int32)[order // r].ravel(), indptr),
                        shape=shape)
    out.sum_duplicates()
    if not keep_zeros:
        out.eliminate_zeros()
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

def scalar_stiffness(sp_):
    """(nc, nb, nb) cell gradient products."""
    return _sym(_kernel(sp_.gx, sp_.cell_qw, sp_.gx)
                + _kernel(sp_.gy, sp_.cell_qw, sp_.gy))


def _side_weights(sp_, e):
    return sp_.facet_qw[sp_.mesh.cell_facets[:, e]]


class Side:
    """Side e of every cell: quadrature data and the per-side kernels,
    each an (nc, rows, cols) batch.  w are the side's quadrature
    weights, wpen = alpha/h_K w, phi the cell basis, dn its normal
    derivative, psibar the facet basis."""

    def __init__(self, sp_, e, alpha):
        self.facets = sp_.mesh.cell_facets[:, e]
        self.normal = n = sp_.normal[:, e]
        self.w = _side_weights(sp_, e)
        self.wpen = self.w * (alpha / sp_.mesh.h)[:, None]
        self.phi = sp_.phi_f[:, e]
        self.psibar = sp_.psibar[self.facets]
        self.dn = (sp_.gx_f[:, e] * n[:, None, 0, None]
                   + sp_.gy_f[:, e] * n[:, None, 1, None])

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
        """(nc, nbf, 2 nb) facet-pressure rows <v.n, sbar>."""
        return np.concatenate(
            [np.einsum("cqi,cq,cqj,c->cij", self.psibar, self.w, self.phi,
                       self.normal[:, d], optimize=True) for d in (0, 1)],
            axis=2)


def both_components(scalar):
    """(m, 2n, 2n) block diagonal repeating a scalar (m, n, n) batch
    for the two velocity components."""
    m, n, _ = scalar.shape
    out = np.zeros((m, 2 * n, 2 * n))
    out[:, :n, :n] = scalar
    out[:, n:, n:] = scalar
    return out


def local_divergence(sp_):
    """(nc, np_cell, 2*nb) blocks of -(q, div v)_K."""
    return -np.concatenate([_kernel(sp_.psi, sp_.cell_qw, sp_.gx),
                            _kernel(sp_.psi, sp_.cell_qw, sp_.gy)], axis=2)


def cell_pressure_mass(sp_):
    """(nc, np_cell, np_cell) cell masses (q, q)_K."""
    return _sym(_kernel(sp_.psi, sp_.cell_qw, sp_.psi))


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
    once; local_auu is the derived (2nb)^2 block of both), and
    local_coupling, every row coupled to the cell velocity, with its
    indices local_rows in the condensed t, p, s numbering.  Per facet:
    facet_att, the (2nbf)^2 block of A_tt on the facet's velocity dofs
    (A_tt couples no two facets), rows and columns by component, then
    mode, as in `_t`.  Global: the CSR blocks M_p, M_s and mass, their
    diagonal (n_p + n_s,) as `mass_diagonal` checked it; the right-hand
    sides L_u, L_t; g_values, the eliminated boundary datum; coercive,
    the cell-wise coercivity guard of `velocity_blocks`.
    A_uu, A_tu, A_tt, B_pu and B_su are scattered from the per-cell and
    per-facet blocks on every access.
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

    def local_block(self, key):
        """(rows, values) of block 't', 'p' or 's' of the per-cell
        coupling stack, rows numbered within that block."""
        stack_rows, offset, _ = self.layout[key]
        return (self.local_rows[:, stack_rows] - offset,
                self.local_coupling[:, stack_rows])

    def add_facet_blocks(self, V):
        """Add each facet's block of A_tt to V, a per-cell stack of
        (local_rows)^2 blocks, at the rows of the facet's side in the
        stack of the facet's first cell; V is modified in place."""
        mesh = self.spaces.mesh
        stack_rows = self.layout["t"][0]
        m2 = self._t.shape[1]
        cells = np.arange(mesh.num_cells)
        for e in range(self.spaces.nsides):
            fe = mesh.cell_facets[:, e]
            own = mesh.facet_cells[fe, 0] == cells
            side = slice(stack_rows.start + e * m2,
                         stack_rows.start + (e + 1) * m2)
            V[own, side, side] += self.facet_att[fe[own]]

    def _times_u(self, key, keep_zeros=False):
        rows, vals = self.local_block(key)
        return _scatter(rows, self._u, vals,
                        (self.layout[key][2], self.spaces.n_u), keep_zeros)

    @property
    def local_auu(self):
        return both_components(self.local_auu_scalar)

    @property
    def A_uu(self):
        n_u = self.spaces.n_u
        return _scatter(self._u, self._u, self.local_auu, (n_u, n_u),
                        keep_zeros=False)

    @property
    def A_tt(self):
        n_t = self.spaces.n_ubar
        return _scatter(self._t, self._t, self.facet_att, (n_t, n_t),
                        keep_zeros=False)

    @property
    def A_tu(self):
        return self._times_u("t")

    @property
    def B_pu(self):
        # the dense divergence blocks keep their exact zeros; the other
        # blocks drop them, with the zero component blocks
        return self._times_u("p", keep_zeros=True)

    @property
    def B_su(self):
        return self._times_u("s")

    def velocity_matrix(self):
        A_tu = self.A_tu
        return sp.bmat([[self.A_uu, A_tu.T], [A_tu, self.A_tt]],
                       format="csr")

    def divergence_matrix(self):
        B = sp.vstack([self.B_pu, self.B_su])
        z = sp.csr_matrix((B.shape[0], self.spaces.n_ubar))
        return sp.bmat([[B, z]], format="csr")

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


def local_velocity_form(sp_, alpha, consistency=True):
    """(L, c): the unconstrained velocity form of every cell, on one
    component, and the coefficients of the constant pair it annihilates.

    L (nc, m, m) is [[A_0, T^T], [T, P]], the cell basis first and then
    the facet basis of each side: A_0 is the cell block, T and P the
    `Side.facet_cell` and `Side.facet_facet` kernels.  Without the
    consistency terms it is the velocity pair norm.  L is affine in
    alpha, L_0 + alpha L_pen.  c (nc, m) holds the coefficients of
    v = vbar = 1 (both bases are orthonormal).  This is the one sum of
    the `Side` kernels into the velocity form."""
    nb, nbf = sp_.nb, sp_.nbf
    m = nb + sp_.nsides * nbf
    L = np.zeros((sp_.mesh.num_cells, m, m))
    auu = scalar_stiffness(sp_)
    for e in range(sp_.nsides):
        side = Side(sp_, e, alpha)
        auu += _sym(side.penalty())
        if consistency:
            X = side.consistency()
            auu -= X + X.transpose(0, 2, 1)
        s = slice(nb + e * nbf, nb + (e + 1) * nbf)
        L[:, s, :nb] = side.facet_cell(consistency)
        L[:, s, s] = side.facet_facet()
    L[:, :nb, :nb] = auu
    L[:, :nb, nb:] = L[:, nb:, :nb].transpose(0, 2, 1)
    c = np.concatenate(
        [np.einsum("cq,cqi->ci", sp_.cell_qw, sp_.phi, optimize=True),
         facet_integrals(sp_)[sp_.mesh.cell_facets]
         .reshape(sp_.mesh.num_cells, -1)], axis=1)
    return L, c


def velocity_blocks(sp_, alpha, consistency=True):
    """BlockSystem holding the velocity form only, laid out from
    `local_velocity_form`: local_auu_scalar, the facet-velocity rows of
    the per-cell stack, and facet_att (without the consistency terms,
    the velocity pair norm).  The forms are not kept: bs.coercive
    records whether each is positive definite off its constant pair c,
    by a batched Cholesky of L + sigma c c^T with c of unit length and
    sigma the largest diagonal entry of L.  That suffices for
    coercivity: the cell-wise sum is then positive off the constant
    fields, so the condensed velocity block is SPD, and so is every
    cell block that `condense` factors."""
    nb, nbf = sp_.nb, sp_.nbf
    dt = _dof_maps(sp_)["t"]
    bs = BlockSystem(sp_, alpha)
    L, const = local_velocity_form(sp_, alpha, consistency)
    const /= np.linalg.norm(const, axis=1)[:, None]
    sigma = np.einsum("cii->ci", L).max(axis=1)
    bs.coercive = True
    try:
        # 512 cells at a time, each a shifted copy: one factor of all
        # 8,192 cells of 64x64 triangles (k = 2), though freed at once,
        # raised the later process peak inside `condense` from 347 to
        # 354 MiB
        for i in range(0, len(L), 512):
            s = slice(i, i + 512)
            np.linalg.cholesky(L[s] + sigma[s, None, None]
                               * const[s, :, None] * const[s, None, :])
    except np.linalg.LinAlgError:
        bs.coercive = False
    bs.local_auu_scalar = L[:, :nb, :nb].copy()
    bs.facet_att = np.zeros((sp_.mesh.num_facets, 2 * nbf, 2 * nbf))
    for e in range(sp_.nsides):
        facets = sp_.mesh.cell_facets[:, e]
        s = slice(nb + e * nbf, nb + (e + 1) * nbf)
        for comp in range(2):
            r = slice((2 * e + comp) * nbf, (2 * e + comp + 1) * nbf)
            bs.local_coupling[:, r, comp * nb:(comp + 1) * nb] = L[:, s, :nb]
            bs.local_rows[:, r] = dt[facets, comp]
            c = slice(comp * nbf, (comp + 1) * nbf)
            np.add.at(bs.facet_att[:, c, c], facets, L[:, s, s])
    return bs


def build_block_system(sp_, problem, bcs=True):
    """Assemble the per-cell and per-facet blocks, the pressure masses
    and the right-hand sides; with bcs=True the boundary velocity datum
    is projected and eliminated symmetrically."""
    bs = velocity_blocks(sp_, problem.alpha)
    dm = _dof_maps(sp_)
    nbf = sp_.nbf
    s_rows, s_offset, _ = bs.layout["s"]
    for e in range(sp_.nsides):
        side = Side(sp_, e, problem.alpha)
        r = slice(s_rows.start + e * nbf, s_rows.start + (e + 1) * nbf)
        bs.local_coupling[:, r] = side.normal_flux()
        bs.local_rows[:, r] = s_offset + dm["s"][side.facets]
    p_rows, p_offset, _ = bs.layout["p"]
    bs.local_coupling[:, p_rows] = local_divergence(sp_)
    bs.local_rows[:, p_rows] = p_offset + dm["p"]

    # pressure masses (identity / weighted identity in the modal basis,
    # but assembled honestly)
    bs.M_p = _scatter(dm["p"], dm["p"], cell_pressure_mass(sp_),
                      (sp_.n_p, sp_.n_p))
    bs.M_s = _scatter(dm["s"], dm["s"],
                      facet_mass(sp_, facet_mass_weights(sp_.mesh)),
                      (sp_.n_pbar, sp_.n_pbar))
    bs.mass = np.concatenate([mass_diagonal(bs.M_p, "cell pressure mass"),
                              mass_diagonal(bs.M_s, "facet pressure mass")])

    # body force
    F = _spaces._eval_vector(problem.body_force, sp_.cell_qp)
    bs.L_u = np.einsum("cq,cqd,cqi->cdi", sp_.cell_qw, F, sp_.phi,
                       optimize=True).ravel()
    bs.L_t = np.zeros(sp_.n_ubar)

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
    both pairs are the same arrays, their kernels are evaluated once."""
    def kernels(u, t):
        """Cell gradients, and per side the jump w - wbar and the
        normal derivative of w."""
        c, uc = sp_.facet_velocity_coeffs(t), sp_.velocity_coeffs(u)
        sides = []
        for e in range(sp_.nsides):
            f = sp_.mesh.cell_facets[:, e]
            n = sp_.normal[:, e]
            wb = np.einsum("cqi,...cdi->...cqd", sp_.psibar[f],
                           c[..., f, :, :], optimize=True)
            gx = np.einsum("cqi,...cdi->...cqd", sp_.gx_f[:, e], uc,
                           optimize=True)
            gy = np.einsum("cqi,...cdi->...cqd", sp_.gy_f[:, e], uc,
                           optimize=True)
            sides.append((sp_.velocity_trace_at_facet_qp(u, e) - wb,
                          gx * n[:, None, 0, None] + gy * n[:, None, 1, None]))
        return sp_.velocity_grad_at_cell_qp(u), sides

    g1, sides1 = kernels(u1, t1)
    g2, sides2 = ((g1, sides1) if u2 is u1 and t2 is t1
                  else kernels(u2, t2))
    val = np.einsum("cq,...cqdj,...cqdj->...", sp_.cell_qw, g1, g2,
                    optimize=True)
    pen = alpha / sp_.mesh.h
    for e, ((j1, dn1), (j2, dn2)) in enumerate(zip(sides1, sides2)):
        w = _side_weights(sp_, e)
        val += np.einsum("c,cq,...cqd,...cqd->...", pen, w, j1, j2,
                         optimize=True)
        val -= np.einsum("cq,...cqd,...cqd->...", w, j1, dn2, optimize=True)
        val -= np.einsum("cq,...cqd,...cqd->...", w, dn1, j2, optimize=True)
    return val


def b_form_value(sp_, p, s, u):
    """b((q, qbar), v) by quadrature."""
    g = sp_.velocity_grad_at_cell_qp(u)
    div = g[..., 0, 0] + g[..., 1, 1]
    pv = np.einsum("cqi,ci->cq", sp_.psi,
                   p.reshape(sp_.mesh.num_cells, -1), optimize=True)
    val = -np.einsum("cq,cq,cq->", sp_.cell_qw, pv, div, optimize=True)
    sv = s.reshape(sp_.mesh.num_facets, -1)
    for e in range(sp_.nsides):
        f = sp_.mesh.cell_facets[:, e]
        w = _side_weights(sp_, e)
        n = sp_.normal[:, e]
        tr = sp_.velocity_trace_at_facet_qp(u, e)
        vn = tr[..., 0] * n[:, None, 0] + tr[..., 1] * n[:, None, 1]
        qb = np.einsum("cqi,ci->cq", sp_.psibar[f], sv[f], optimize=True)
        val += np.einsum("cq,cq,cq->", w, vn, qb, optimize=True)
    return val

"""Cell-wise static condensation onto facet unknowns and pressures.

Only the interior velocity is eliminated.  With the block layout
(t, p, s) = (facet velocity, cell pressure, facet pressure) and the
per-cell coupling stack R_K = [A_tu; B_pu; B_su]|_K, the condensed
operator is

    [[Abar, Bbar^T], [Bbar, C]]
      Abar = A_tt - sum_K A_tu A_uu^-1 A_tu^T
      Bbar = -[B_pu; B_su] A_uu^-1 A_tu^T
      C    = -[B_pu; B_su] A_uu^-1 [B_pu; B_su]^T

The cell block A_uu of a cell is two copies of one scalar nb x nb
block A_0 (`BlockSystem.local_auu_scalar`), so it is factored once per
cell, A_0 = L L^T, and the per-cell Schur piece is

    R_K A_uu^-1 R_K^T = W^T W,   W = [L^-1 C_0^T; L^-1 C_1^T]

with C_d the columns of R_K that belong to velocity component d.  L^-1
is formed by forward substitution and applied as batched matrix
products (`cell_schur`, which the spectral probes share, and
`recover_velocity`).  The stack of -W^T W goes to CSR through
`assembly._scatter`, A_tt folded into it; K comes out exactly
symmetric.  The identity Bbar Abar^-1 Bbar^T - C = B A^-1 B^T holds
as exact block algebra and is verified, not assumed, by the spectra
module.

Constrained facet-velocity rows pass through condensation as identity
rows because their coupling columns were cleared during elimination.

The velocity form acts on each component separately and in the same
way, and the boundary elimination constrains both components of a
facet together, so Abar is two copies of one scalar operator.  The
facet velocity is numbered one component after the other (`spaces`),
so the two copies are the diagonal halves of Abar.  `condense` keeps
the first half once (`Abar_scalar`, a slice of K) and refuses an Abar
whose components are coupled or whose component blocks differ by more
than 1e-12 of the largest entry.  A facet-velocity vector t is the
(n_t/2, 2) block of its two components as `t.reshape(2, -1).T`.

K is held once.  Every other block is sliced from it by its reader,
when it is needed, with `CondensedSystem.block`; its keys "t", "p" and
"s" are those of `BlockSystem.layout`, whose offsets are also the
ones `CondensedSystem.split` cuts vectors at.
"""

import numpy as np

from . import spaces as _spaces
from . import assembly as _assembly


class CondensedSystem:
    """Condensed operator, right-hand side and recovery data.

    Attributes
    ----------
    K : (size, size) csr, the condensed operator in (t, p, s) ordering;
        exactly symmetric, with the constant pressure
        (`nullspace_vector`) as its kernel.  `block` slices it.
    Abar_scalar : (n_t/2, n_t/2) csr, the block of one velocity
        component, K[:n_t/2, :n_t/2]; Abar = block("t", "t") is
        bdiag(Abar_scalar, Abar_scalar).
    rhs : full condensed right-hand side (t, p, s ordering).
    mass : (n_p + n_s,) checked pressure mass diagonal, `BlockSystem.mass`.
    alpha : penalty of the condensed velocity form, `BlockSystem.alpha`.

    Recovery data, read by `recover_velocity`:

    chol_inv : (nc, nb, nb), per cell the inverse L^-1 of the Cholesky
        factor of the scalar interior-velocity block A_uu = L L^T.
    local_rows : (nc, mk) int, the rows of each cell's coupling stack
        in the condensed (t, p, s) numbering (`BlockSystem.local_rows`).
    local_coupling : (nc, mk, 2 nb), per cell the coupling of those
        rows to both interior velocity components
        (`BlockSystem.local_coupling`).
    L_u : (n_u,) interior-velocity load vector.
    """

    def __init__(self, spaces, layout, mass, alpha):
        self.spaces = spaces
        self.mass = mass
        self.alpha = alpha
        # the range of each block in the condensed numbering
        self._ranges = {key: slice(offset, offset + n)
                        for key, (_, offset, n) in layout.items()}
        self.n_t, self.n_p, self.n_s = (layout[key][2] for key in "tps")
        self.size = self.n_t + self.n_p + self.n_s

    def split(self, x):
        """The (t, p, s) parts of a condensed vector, as views."""
        return tuple(x[self._ranges[key]] for key in "tps")

    def block(self, rows, cols):
        """Block (rows, cols) of K, each key one of "t", "p" and "s",
        as a new csr slice; e.g. block("p", "t") is Bbar_p and
        block("s", "s") is C_ss."""
        return self.K[self._ranges[rows], self._ranges[cols]]

    @property
    def Abar(self):
        """The condensed velocity block, block("t", "t")."""
        return self.block("t", "t")

    def nullspace_vector(self):
        """Representation of the constant pressure; kernel of K."""
        return np.concatenate([np.zeros(self.n_t),
                               _spaces.constant_pressure_vector(self.spaces)])


def cell_schur(A0, R):
    """Per-cell R bdiag(A0, A0)^-1 R^T for a batch (m, n, n) of SPD
    scalar blocks A0 and a stack R (m, r, 2n) of rows acting on both
    velocity components.

    A0 = L L^T is factored once per cell and L^-1 formed by forward
    substitution.  Returns (S, Wt, Linv) with
    Wt = [C_0 L^-T, C_1 L^-T] for the component column blocks C_d of
    R, and S = Wt Wt^T.  LinAlgError when some A0 is not positive
    definite."""
    L = np.linalg.cholesky(A0)
    Linv = np.zeros_like(L)
    for i in range(L.shape[1]):
        d = L[:, i, i, None]
        Linv[:, i, :i] = -(L[:, i, None, :i] @ Linv[:, :i, :i])[:, 0] / d
        Linv[:, i, i] = 1.0 / d[:, 0]
    m, r, n2 = R.shape
    Wt = (R.reshape(m, 2 * r, n2 // 2)
          @ Linv.transpose(0, 2, 1)).reshape(m, r, n2)
    return Wt @ Wt.transpose(0, 2, 1), Wt, Linv


def condense(bs):
    """Eliminate interior velocities from an assembled BlockSystem."""
    sp_ = bs.spaces
    nc, nb = sp_.mesh.num_cells, sp_.nb
    cs = CondensedSystem(sp_, bs.layout, bs.mass, bs.alpha)

    V, Wt, Linv = cell_schur(bs.local_auu_scalar, bs.local_coupling)
    V *= -1.0

    # rhs: [L_t; 0; 0] - R A_uu^-1 L_u
    wf = bs.L_u.reshape(nc, 2, nb) @ Linv.transpose(0, 2, 1)
    corr = (Wt @ wf.reshape(nc, 2 * nb, 1))[..., 0]
    del Wt
    rows = bs.local_rows
    rhs = np.concatenate([bs.L_t, np.zeros(cs.n_p + cs.n_s)])
    np.add.at(rhs, rows.ravel(), -corr.ravel())
    cs.rhs = rhs

    # Each facet's block of A_tt goes into the stack of the facet's
    # first cell, so an entry of K sums at most two cell contributions,
    # which floating-point addition does in either order alike: K is
    # exactly symmetric.  Exact zeros, such as the cross-component
    # facet-velocity entries, are not stored.
    bs.add_facet_blocks(V)
    cs.K = _assembly._scatter(rows, rows, V, (cs.size, cs.size),
                              keep_zeros=False)
    del V
    # the scatter leaves K's arrays as views of buffers of the unsummed
    # stack size; copy them out, one at a time, and free the buffers
    cs.K.data = cs.K.data.copy()
    cs.K.indices = cs.K.indices.copy()

    cs.Abar_scalar = _component_block(cs.K, cs.n_t // 2)

    cs.chol_inv = Linv
    cs.local_rows = rows
    cs.local_coupling = bs.local_coupling
    cs.L_u = bs.L_u.copy()
    return cs


def _component_block(K, h):
    """Block K[:h, :h] of velocity component 0; ValueError unless the
    velocity block K[:2h, :2h] is two copies of it (the same rule as
    `assembly.mass_diagonal`)."""
    A0 = K[:h, :h]
    if K[:h, h:2 * h].count_nonzero() or K[h:2 * h, :h].count_nonzero():
        raise ValueError("velocity components of Abar are coupled")
    if abs(K[h:2 * h, h:2 * h] - A0).max() > 1e-12 * abs(A0).max():
        raise ValueError("velocity component blocks of Abar differ")
    return A0


def recover_velocity(cs, ubar, p, pbar, L_u=None):
    """Interior velocity from the condensed solution:
    u = A_uu^-1 (L_u - A_tu^T ubar - B_pu^T p - B_su^T pbar), per cell
    and per component.  ubar, p and pbar may be stacks of vectors along
    matching leading axes; u then carries them too."""
    nc = cs.spaces.mesh.num_cells
    y = np.concatenate([ubar, p, pbar], axis=-1)
    yl = y[..., cs.local_rows]
    f = (cs.L_u if L_u is None else L_u).reshape(nc, -1)
    rhs = f - np.einsum("cmn,...cm->...cn", cs.local_coupling, yl,
                        optimize=True)
    Linv = cs.chol_inv
    u = (rhs.reshape(*rhs.shape[:-1], 2, -1) @ Linv.transpose(0, 2, 1)) \
        @ Linv
    return u.reshape(*rhs.shape[:-2], -1)


def lift_traces(cs, ubar):
    """Velocity lifting of a facet field, or of a stack of them along
    leading axes: the cell-local solve with the facet datum as the only
    source.  Reproduces componentwise-harmonic polynomials given their
    own traces (and only those; generic polynomials acquire a discrete
    residual)."""
    lead = ubar.shape[:-1]
    return recover_velocity(cs, ubar, np.zeros(lead + (cs.n_p,)),
                            np.zeros(lead + (cs.n_s,)),
                            L_u=np.zeros_like(cs.L_u))


def trace_form_value(cs, vbar, wbar):
    """Condensed velocity form (penalty `cs.alpha`) evaluated by the
    variational route: lift both facet fields, then evaluate the form
    term by term with quadrature.  Independent of the assembled Abar.
    Stacks of fields along leading axes give the value of each pair.
    A field passed as both arguments is lifted once."""
    lv = lift_traces(cs, vbar)
    lw = lv if wbar is vbar else lift_traces(cs, wbar)
    return _assembly.a_form_value(cs.spaces, cs.alpha, lv, vbar, lw, wbar)

"""Shape classes: bases and element forms evaluated once per class of
translated cells (`mesh.shape_classes`) instead of once per cell."""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from hdgstokes import assembly, cli, condense, mesh, spaces, spectra


def _one_class_per_cell(m):
    ids = np.arange(m.num_cells)
    return ids, ids


def _numbers(m, k):
    """The per-cell and per-facet arrays and K of the cavity on m."""
    sp_ = spaces.build_spaces(m, k)
    bs = assembly.build_block_system(sp_, spaces.lid_driven_cavity(
        k, 108.0, domain=(*m.vertices.min(0), *m.vertices.max(0))))
    cs = condense.condense(bs)
    return {"coeff_v": sp_.coeff_v, "coeff_p": sp_.coeff_p,
            "local_auu_scalar": bs.local_auu_scalar,
            "local_coupling": bs.local_coupling,
            "facet_att": bs.facet_att, "chol_inv": cs.chol_inv,
            "rhs": cs.rhs, "K": cs.K}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("shape", ["triangle", "quadrilateral"])
@pytest.mark.parametrize("nx, ny, domain, jitter", [
    (4, 3, (-1.0, -1.0, 1.0, 1.0), 0.0),
    # a spacing that is no binary fraction: translates differ in their
    # last bits, so only some of them share a class
    (6, 5, (0.0, 0.0, 1.0, 1.0), 0.0),
    (4, 3, (-1.0, -1.0, 1.0, 1.0), 0.2)])
def test_classes_match_one_class_per_cell(shape, k, nx, ny, domain, jitter,
                                          monkeypatch):
    """The class-based arrays agree with those of one class per cell
    within 1e-12 of their largest entry, K included, whose patterns
    differ only in entries that vanish in exact arithmetic; on a
    jittered mesh, where every cell is its own class, to the bit."""
    def build():
        return mesh.generate(nx, ny, shape, domain=domain, jitter=jitter,
                             seed=2)

    m = build()
    merged = _numbers(m, k)
    monkeypatch.setattr(mesh, "shape_classes", _one_class_per_cell)
    single = build()
    assert len(single.first_of_class) == single.num_cells
    per_cell = _numbers(single, k)
    if jitter:
        assert len(m.first_of_class) == m.num_cells
        for name, value in per_cell.items():
            same = (cli.csr_hash(value) == cli.csr_hash(merged[name])
                    if sp.issparse(value) else
                    np.array_equal(value, merged[name]))
            assert same, name
        return
    assert len(m.first_of_class) < m.num_cells
    for name, value in per_cell.items():
        diff = value - merged[name]
        scale = abs(value).max()
        assert abs(diff).max() <= 1e-12 * scale, name
    # entries stored in only one of the two K are rounding noise
    A, B = (abs(per_cell["K"]) > 0), (abs(merged["K"]) > 0)
    only = (A - B) + (B - A)
    K = abs(per_cell["K"]) + abs(merged["K"])
    assert K.multiply(only).max() <= 1e-12 * abs(per_cell["K"]).max()


def test_nondyadic_spacing_merges_some_translates():
    """On 6 x 5 cells of the unit square the translates of a cell
    differ in their last bits, so only some of them share a class."""
    m = mesh.generate(6, 5, domain=(0.0, 0.0, 1.0, 1.0))
    assert (len(m.first_of_class), m.num_cells) == (51, 60)


def _renumbered(m, seed):
    """m with its vertex ids and its cell order shuffled; each cell
    keeps its vertices in order.  Returns (mesh, new id of each old
    vertex, old index of each new cell)."""
    rng = np.random.default_rng(seed)
    vid = rng.permutation(m.num_vertices)
    old_cell = rng.permutation(m.num_cells)
    vertices = np.empty_like(m.vertices)
    vertices[vid] = m.vertices
    return (mesh.Mesh(vertices, vid[m.cells[old_cell]], m.cell_type),
            vid, old_cell)


def _signed_permutation(sp1, sp2, vid, old_cell):
    """Q with K2 = Q K1 Q^T: condensed dofs of sp1's mesh to those of
    sp2's, its renumbering.  A facet stored the other way round flips
    the sign of its odd modes."""
    m1, m2 = sp1.mesh, sp2.mesh
    nbf, npc = sp1.nbf, sp1.np_cell
    nf, nc = m1.num_facets, m1.num_cells
    where = {tuple(sorted(ab)): f for f, ab in enumerate(m2.facets)}
    f2 = np.array([where[tuple(sorted(vid[ab]))] for ab in m1.facets])
    along = m2.facets[f2, 0] == vid[m1.facets[:, 0]]
    mode = np.arange(nbf)
    sign = np.where(along[:, None], 1.0, (-1.0) ** mode).ravel()
    facet = (f2[:, None] * nbf + mode).ravel()
    c2 = np.argsort(old_cell)
    cell = (c2[:, None] * npc + np.arange(npc)).ravel()
    n_t, n_p = sp1.n_ubar, sp1.n_p
    rows = np.concatenate([facet, nf * nbf + facet, n_t + cell,
                           n_t + n_p + facet])
    vals = np.concatenate([sign, sign, np.ones(nc * npc), sign])
    n = n_t + n_p + sp1.n_pbar
    return sp.csr_matrix((vals, (rows, np.arange(n))), shape=(n, n))


@pytest.mark.parametrize("shape", ["triangle", "quadrilateral"])
def test_renumbered_mesh_gives_the_same_system(shape):
    """Shuffled vertex ids and cell order store some facets the other
    way round, so translated cells fall into more classes; K and the
    PM MINRES count are those of the unshuffled mesh under the signed
    permutation of the dofs.  A class key blind to the facet direction
    would merge cells whose facet bases have opposite odd modes."""
    cfg = cli.RunConfig(shape=shape, nx=8, ny=8)
    m1 = mesh.generate(8, 8, shape)
    m2, vid, old_cell = _renumbered(m1, seed=5)
    assert len(m2.first_of_class) > len(m1.first_of_class)
    runs = []
    for m in (m1, m2):
        sp_, _, cs = cli.discretize(cfg, m)
        runs.append((sp_, cs, cli.krylov_solve(cfg, cs)))
    (sp1, cs1, rep1), (sp2, cs2, rep2) = runs
    Q = _signed_permutation(sp1, sp2, vid, old_cell)
    diff = cs2.K - Q @ cs1.K @ Q.T
    assert abs(diff).max() <= 1e-12 * abs(cs1.K).max()
    assert rep1.converged and rep2.converged
    assert rep1.iterations == rep2.iterations


def _evaluated_cells(monkeypatch):
    """The number of cells of each call of the velocity-form kernel
    and of each cell power table."""
    calls = {"form": [], "powers": []}
    form = assembly._velocity_form
    powers = spaces.SpaceSet._powers

    def counted_form(ch, *args, **kwargs):
        calls["form"].append(len(ch.qw))
        return form(ch, *args, **kwargs)

    def counted_powers(self, pts, cells=slice(None)):
        calls["powers"].append(len(pts))
        return powers(self, pts, cells)

    monkeypatch.setattr(assembly, "_velocity_form", counted_form)
    monkeypatch.setattr(spaces.SpaceSet, "_powers", counted_powers)
    return calls


@pytest.mark.parametrize("jitter", [0.0, 0.2])
def test_kernels_run_on_the_shape_classes(jitter, monkeypatch):
    """16 x 16 unjittered triangles fall into 8 classes, and the bases,
    the velocity form and the tables of `field_checks` are evaluated on
    at most 8 cells a chunk; on a jittered 8 x 8 mesh every cell is
    evaluated, each once."""
    n = 8 if jitter else 16
    m = mesh.generate(n, n, jitter=jitter, seed=1)
    chunks = len(spaces.cell_chunks(m.num_cells))
    calls = _evaluated_cells(monkeypatch)
    sp_ = spaces.build_spaces(m, 2)
    assembly.build_block_system(
        sp_, spaces.lid_driven_cavity(2, 108.0 if jitter else None))
    spectra.field_checks(sp_, np.ones(sp_.n_u))
    assert 1 <= len(calls["form"]) <= chunks
    if jitter:
        assert len(m.first_of_class) == m.num_cells
        assert sum(calls["form"]) == m.num_cells
        return
    assert len(m.first_of_class) == 8
    assert max(calls["form"]) <= 8
    # cell and side powers: bases, then the tables of field_checks
    assert max(calls["powers"]) <= 8


@pytest.mark.parametrize("jitter", [0.0, 0.2])
def test_chunks_are_freed_without_the_garbage_collector(jitter):
    """No chunk refers to itself: a chunk that is its own `shapes`
    must be freed, with its tables, as soon as its reader drops it,
    not when the cyclic garbage collector next runs (on 48 x 48
    jittered quadrilaterals at k = 3 that held 85 MiB more)."""
    m = mesh.generate(20, 20, jitter=jitter, seed=1)
    sp_ = spaces.build_spaces(m, 2)
    gc.disable()
    try:
        refs = []
        for ch, _ in sp_.shape_blocks(lambda shapes: shapes.phi_f):
            ch.gx, ch.shapes.dn_f  # evaluated and cached on the chunks
            refs.append(weakref.ref(ch))
        del ch
        assert len(refs) > 1 and all(r() is None for r in refs)
    finally:
        gc.enable()

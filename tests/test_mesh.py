import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdgstokes import mesh


def test_two_cell_counts(tri2):
    assert tri2.num_cells == 2
    assert tri2.num_facets == 5
    assert tri2.num_vertices == 4
    # each triangle is half of the 2x2 square
    assert np.allclose(tri2.areas, 2.0)
    # diameter = hypotenuse
    assert np.allclose(tri2.h, 2.0 * np.sqrt(2.0))
    assert tri2.boundary_mask.sum() == 4
    assert (~tri2.boundary_mask).sum() == 1


def test_structured_triangle_counts():
    m = mesh.generate(4, 4)
    assert m.num_cells == 32
    assert m.num_vertices == 25
    # 2 * nx * (ny+1) axis-aligned edges + nx*ny diagonals
    assert m.num_facets == 56


def test_quad_counts(quad2x2):
    assert quad2x2.num_cells == 4
    assert quad2x2.num_vertices == 9
    assert quad2x2.num_facets == 12


def test_area_sums_to_domain():
    for shape in ("triangle", "quadrilateral"):
        m = mesh.generate(3, 2, shape, jitter=0.2, seed=11)
        assert abs(m.areas.sum() - 4.0) < 1e-13


def test_facet_normals_unit_and_outward(tri_jitter):
    m = tri_jitter
    assert np.allclose(np.linalg.norm(m.facet_normals, axis=1), 1.0)
    # normal points away from the first adjacent cell's centroid
    first = m.facet_cells[:, 0]
    d = m.facet_midpoints - m.cell_centroids[first]
    assert np.all(np.einsum("fd,fd->f", d, m.facet_normals) > 0)


def test_cell_facet_sign_pairs(tri4x4):
    m = tri4x4
    seen = {}
    for c in range(m.num_cells):
        for e in range(3):
            seen.setdefault(m.cell_facets[c, e], []).append(
                m.cell_facet_sign[c, e])
    for f, signs in seen.items():
        if m.boundary_mask[f]:
            assert signs == [1]
        else:
            assert sorted(signs) == [-1, 1]


def test_boundary_mask_matches_facet_cells(tri_jitter):
    m = tri_jitter
    assert np.array_equal(m.boundary_mask, m.facet_cells[:, 1] == -1)


def test_jitter_reproducible_and_bounded():
    a = mesh.generate(5, 5, jitter=0.25, seed=3)
    b = mesh.generate(5, 5, jitter=0.25, seed=3)
    c = mesh.generate(5, 5, jitter=0.25, seed=4)
    assert np.array_equal(a.vertices, b.vertices)
    assert not np.array_equal(a.vertices, c.vertices)
    # boundary vertices never move
    ref = mesh.generate(5, 5)
    on_bnd = (np.isclose(np.abs(ref.vertices[:, 0]), 1.0)
              | np.isclose(np.abs(ref.vertices[:, 1]), 1.0))
    assert np.array_equal(a.vertices[on_bnd], ref.vertices[on_bnd])


def _loop_facets(cells):
    """Reference facet construction: one pass over the cell edges in
    cell-major order, numbering facets by first appearance."""
    nc, npc = cells.shape
    lookup, facets, facet_cells = {}, [], []
    cell_facets = np.empty((nc, npc), dtype=np.int64)
    cell_facet_sign = np.empty((nc, npc), dtype=np.int64)
    for c in range(nc):
        for e in range(npc):
            a, b = cells[c, e], cells[c, (e + 1) % npc]
            key = (a, b) if a < b else (b, a)
            f = lookup.get(key)
            if f is None:
                f = len(facets)
                lookup[key] = f
                facets.append((a, b))
                facet_cells.append([c, -1])
                cell_facet_sign[c, e] = 1
            else:
                if facet_cells[f][1] != -1:
                    raise ValueError("facet shared by more than two cells")
                facet_cells[f][1] = c
                cell_facet_sign[c, e] = -1
            cell_facets[c, e] = f
    facet_cells = np.array(facet_cells, dtype=np.int64)
    return {"facets": np.array(facets, dtype=np.int64),
            "facet_cells": facet_cells, "cell_facets": cell_facets,
            "cell_facet_sign": cell_facet_sign,
            "boundary_mask": facet_cells[:, 1] < 0}


@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("shape", ["triangle", "quadrilateral"])
def test_facets_match_reference_loop(shape, shuffled):
    """The same facets as the reference loop, numbered in
    nested-dissection order: matched by their vertex pairs, every
    facet array agrees through that map."""
    m = mesh.generate(7, 5, shape, jitter=0.2, seed=11)
    if shuffled:
        # a cell numbering that is not lexicographic
        order = np.random.default_rng(5).permutation(m.num_cells)
        m = mesh.Mesh(m.vertices, m.cells[order], shape)
    want = _loop_facets(m.cells)
    lookup = {tuple(sorted(ab)): f for f, ab in enumerate(want["facets"])}
    # ref[f]: the reference number of facet f
    ref = np.array([lookup[tuple(sorted(ab))] for ab in m.facets])
    assert np.array_equal(np.sort(ref), np.arange(m.num_facets))
    for name in ("facets", "facet_cells", "boundary_mask"):
        got = getattr(m, name)
        assert got.dtype == want[name].dtype, name
        assert np.array_equal(got, want[name][ref]), name
    assert m.cell_facets.dtype == want["cell_facets"].dtype
    assert np.array_equal(ref[m.cell_facets], want["cell_facets"])
    assert m.cell_facet_sign.dtype == want["cell_facet_sign"].dtype
    assert np.array_equal(m.cell_facet_sign, want["cell_facet_sign"])


def _reference_bisections(m):
    """The (lower, upper) cell halves of every split of the nested
    dissection, found recursively, one part at a time: split at the
    median centroid along the longer extent, ties by cell index."""
    x = m.cell_centroids
    splits = []

    def split(cells):
        if len(cells) <= mesh._ND_LEAF:
            return
        axis = np.argmax(np.ptp(x[cells], axis=0))
        s = cells[np.argsort(x[cells, axis], kind="stable")]
        lower, upper = np.sort(s[:len(s) // 2]), np.sort(s[len(s) // 2:])
        splits.append((lower, upper))
        split(lower)
        split(upper)
    split(np.arange(m.num_cells))
    return splits


@pytest.mark.parametrize("args", [
    (8, 8, "triangle", 0.0, False), (5, 7, "triangle", 0.2, False),
    (6, 5, "quadrilateral", 0.0, False), (7, 7, "quadrilateral", 0.2, False),
    (1, 1, "triangle", 0.0, False), (2, 1, "triangle", 0.0, False),
    (1, 1, "quadrilateral", 0.0, False), (2, 1, "quadrilateral", 0.0, False),
    (16, 16, "triangle", 0.25, False), (24, 3, "quadrilateral", 0.0, False),
    (3, 11, "triangle", 0.1, False), (9, 6, "triangle", 0.2, True),
    (10, 4, "quadrilateral", 0.2, True), (6, 6, "quadrilateral", 0.0, True)])
def test_nested_dissection_is_a_post_order_permutation(args):
    """The mesh numbers its facets in nested-dissection order, so the
    order of a built mesh is the identity, for shuffled cells too, and
    both halves of every split come before its separator."""
    nx, ny, shape, jitter, shuffled = args
    m = mesh.generate(nx, ny, shape, jitter=jitter, seed=2)
    if shuffled:
        cells = m.cells[np.random.default_rng(3).permutation(m.num_cells)]
        m = mesh.Mesh(m.vertices, cells, shape)
    assert np.array_equal(mesh.nested_dissection(m), np.arange(m.num_facets))
    first, second = m.facet_cells.T
    for lower, upper in _reference_bisections(m):
        side = np.full(m.num_cells, -1)
        side[lower], side[upper] = 0, 1
        a = side[first]
        b = np.where(second < 0, a, side[second])
        separator = (a >= 0) & (b >= 0) & (a != b)
        halves = (a >= 0) & (a == b)
        # every facet of the two halves before the part's separator
        if separator.any():
            assert (np.flatnonzero(halves).max(initial=-1)
                    < np.flatnonzero(separator).min())


def test_facet_shared_by_three_cells_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0],
                      [0.5, 2.0]])
    cells = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    for build in (_loop_facets,
                  lambda c: mesh.Mesh(verts, c, "triangle")):
        with pytest.raises(ValueError, match="more than two cells"):
            build(cells)


def test_generate_rejects_bad_input():
    with pytest.raises(ValueError):
        mesh.generate(0, 3)
    with pytest.raises(ValueError):
        mesh.generate(2, 2, jitter=0.5)
    with pytest.raises(ValueError, match="jitter"):
        mesh.generate(2, 2, jitter=0.3)
    with pytest.raises(ValueError):
        mesh.generate(2, 2, "hexagon")


def test_clockwise_cell_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        mesh.Mesh(verts, np.array([[0, 2, 1]]), "triangle")


def test_dart_quad_rejected():
    # counter-clockwise with positive area, but the corner at (0.5, 1)
    # turns clockwise, so the bilinear map is not invertible
    verts = np.array([[0.0, 0.0], [2.0, 1.0], [0.0, 2.0], [0.5, 1.0]])
    cells = np.array([[0, 1, 2, 3]])
    with pytest.raises(ValueError, match="non-convex"):
        mesh.Mesh(verts, cells, "quadrilateral")
    verts[3, 0] = -0.5
    assert mesh.Mesh(verts, cells, "quadrilateral").areas[0] == 2.5


def test_non_finite_or_underflowing_cells_rejected():
    # a corner turn that underflows to 0, one that overflows to inf
    # (its overflow warning aside), and a NaN vertex, which compares
    # false with everything
    with pytest.raises(ValueError, match="non-finite"):
        mesh.generate(4, 4, domain=(0.0, 0.0, 1e-300, 1e-300))
    for far in (1e200, np.nan):
        verts = np.array([[0.0, 0.0], [far, 0.0], [0.0, 1e200]])
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="non-finite"):
            mesh.Mesh(verts, np.array([[0, 1, 2]]), "triangle")


def test_write_mesh(tmp_path, tri2):
    path = tmp_path / "m.txt"
    mesh.write_mesh(tri2, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# vertices 4"
    coords = np.array([line.split() for line in lines[1:5]], dtype=float)
    assert np.array_equal(coords, tri2.vertices)
    assert lines[5] == "# cells 2 triangle"
    assert lines[8] == "# boundary_facets 4"


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 5), ny=st.integers(1, 5),
       jitter=st.floats(0.0, mesh.MAX_JITTER), seed=st.integers(0, 99),
       shape=st.sampled_from(["triangle", "quadrilateral"]))
def test_mesh_invariants(nx, ny, jitter, seed, shape):
    m = mesh.generate(nx, ny, shape, jitter=jitter, seed=seed)
    # planar Euler characteristic of a disk
    assert m.num_vertices - m.num_facets + m.num_cells == 1
    assert np.all(m.areas > 0)
    assert abs(m.areas.sum() - 4.0) < 1e-12
    assert np.allclose(np.linalg.norm(m.facet_normals, axis=1), 1.0)
    assert 0.0 < m.mesh_ratio <= 1.0

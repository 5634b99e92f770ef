"""End-to-end acceptance checks.

Each test verifies one headline claim of the solver at a stated
tolerance: the condensation identity, spectral equivalences behind the
block preconditioners, mesh-independent Krylov iteration counts, the
conservation structure of the computed velocity, and determinism of
the drivers.  Run with -v to get one pass/fail line per claim.
"""

import json
import time

import numpy as np
import pytest

from hdgstokes import (assembly, cli, condense, krylov, mesh, precond,
                       spaces, spectra)

KINDS = ("PM", "PC", "PM-SGS", "PC-SGS")
DEGREE, ALPHA = 2, 24.0


def _cavity():
    return spaces.lid_driven_cavity(degree=DEGREE, alpha=ALPHA)


def _system(m, prob=None, bcs=True):
    sp_ = spaces.build_spaces(m, DEGREE)
    bs = assembly.build_block_system(sp_, prob or _cavity(), bcs=bcs)
    return sp_, bs, condense.condense(bs)


def _drift(seq):
    """Largest per-level relative change, measured against the smaller
    neighbor."""
    return max(abs(b - a) / min(a, b) for a, b in zip(seq, seq[1:]))


# -- shared heavy fixtures ---------------------------------------------

@pytest.fixture(scope="module")
def schur_ladder():
    """Extremes of the full pressure pencil, with the constant pressure
    deflated, and of the element-block one, positive definite as it
    stands, on 4x4, 8x8, 16x16 structured triangulations, with wall
    time."""
    full, elem = [], []
    t0 = time.monotonic()
    for n in (4, 8, 16):
        _, _, cs = _system(mesh.generate(n, n))
        full.append(spectra.schur_spectrum(cs))
        elem.append(spectra.element_block_spectrum(cs))
    return full, elem, time.monotonic() - t0


@pytest.fixture(scope="module")
def cavity_ladder():
    """MINRES iteration counts (tol 1e-8, exact preconditioner blocks)
    for all four preconditioners on four cavity refinement levels, plus
    a right-preconditioned GMRES run on the finest level."""
    counts = {k: [] for k in KINDS}
    finest = None
    t0 = time.monotonic()
    for n in (8, 16, 32, 64):
        _, _, cs = _system(mesh.generate(n, n))
        nullv = cs.nullspace_vector()
        for kind in KINDS:
            pc = precond.build_preconditioner(cs, kind=kind, rbar_mode="exact")
            rep = krylov.minres(cs.K, cs.rhs, pc.apply, tol=1e-8,
                                maxiter=1000, nullspace=nullv, label=kind)
            assert rep.converged, f"{kind} stalled on the {n}x{n} level"
            counts[kind].append(rep.iterations)
        finest = (cs, nullv)
    elapsed = time.monotonic() - t0

    cs, nullv = finest
    pc = precond.build_preconditioner(cs, kind="PC-SGS", rbar_mode="exact")
    grep = krylov.gmres(cs.K, cs.rhs, pc.apply, tol=1e-8, maxiter=600,
                        restart=150, nullspace=nullv, label="PC-SGS")
    return counts, elapsed, grep


# -- the eleven claims -------------------------------------------------

def test_01_condensation_schur_identity():
    """(Bbar Abar^-1 Bbar^T - C) - B A^-1 B^T vanishes entrywise."""
    t0 = time.monotonic()
    for m in (mesh.generate(1, 1), mesh.generate(4, 4)):
        _, bs, cs = _system(m)
        res = spectra.condensed_schur_identity(bs, cs)
        assert res <= 1e-9, f"identity residual {res:.3e} on {m.num_cells}"
    assert time.monotonic() - t0 < 10.0


def test_02_condensed_solve_matches_direct():
    """Condensed solve + velocity recovery reproduces a dense direct
    solve of the full four-field system on the 2-cell mesh."""
    t0 = time.monotonic()
    sp_, bs, cs = _system(mesh.generate(1, 1))
    x_ref = np.linalg.lstsq(bs.saddle_matrix().toarray(), bs.full_rhs(),
                            rcond=None)[0]

    nv = cs.nullspace_vector()
    x = np.linalg.solve(cs.K.toarray() + np.outer(nv, nv), cs.rhs)
    ubar, p, pbar = cs.split(x)
    u = condense.recover_velocity(cs, ubar, p, pbar)

    blocks_ref = np.split(x_ref, np.cumsum([sp_.n_u, sp_.n_ubar, sp_.n_p]))
    total = np.linalg.norm(x_ref)
    for got, ref, name in zip((u, ubar, p, pbar), blocks_ref,
                              ("u", "ubar", "p", "pbar")):
        err = np.linalg.norm(got - ref) / max(np.linalg.norm(ref),
                                              1e-12 * total)
        assert err <= 1e-9, f"{name} relative error {err:.3e}"
    assert time.monotonic() - t0 < 5.0


def test_03_schur_mass_spectral_equivalence(schur_ladder):
    """Deflated extremes of (B A^-1 B^T, M) stay in a positive bracket
    that drifts < 20% per refinement."""
    full, _, elapsed = schur_ladder
    lows = [lo for lo, _ in full]
    highs = [hi for _, hi in full]
    assert min(lows) > 0, f"lambda_min {min(lows):.3e}"
    assert _drift(lows) < 0.2, f"lambda_min drift {_drift(lows):.3f} {lows}"
    assert _drift(highs) < 0.2, f"lambda_max drift {_drift(highs):.3f}"
    assert elapsed < 300.0


def test_04_element_block_mass_spectral_equivalence(schur_ladder):
    """Same protocol for the element-wise Schur blocks against the
    pressure masses."""
    _, elem, elapsed = schur_ladder
    lows = [lo for lo, _ in elem]
    highs = [hi for _, hi in elem]
    assert min(lows) > 0, f"lambda_min {min(lows):.3e}"
    assert _drift(lows) < 0.2, f"lambda_min drift {_drift(lows):.3f} {lows}"
    assert _drift(highs) < 0.2, f"lambda_max drift {_drift(highs):.3f}"
    assert elapsed < 300.0


@pytest.mark.parametrize("shape, degree", [("triangle", 1),
                                           ("triangle", 3),
                                           ("quadrilateral", 1),
                                           ("quadrilateral", 2),
                                           ("quadrilateral", 3)])
def test_04_bracket_drift_beyond_k2_triangles(shape, degree):
    """The protocol of test_03 and test_04, for both pencils, on the
    other degrees of unjittered triangles and on unjittered
    quadrilaterals at the default penalty, over 4x4, 8x8 and 16x16."""
    cfg = cli.RunConfig(shape=shape, degree=degree)
    full, elem = [], []
    for n in (4, 8, 16):
        _, _, cs = cli.discretize(cfg, mesh.generate(n, n, shape))
        full.append(spectra.schur_spectrum(cs))
        elem.append(spectra.element_block_spectrum(cs))
    for name, seq in (("Schur", full), ("element block", elem)):
        lows = [lo for lo, _ in seq]
        highs = [hi for _, hi in seq]
        assert min(lows) > 0, f"{name} lambda_min {min(lows):.3e}"
        assert _drift(lows) < 0.2, \
            f"{name} lambda_min drift {_drift(lows):.3f} {lows}"
        assert _drift(highs) < 0.2, \
            f"{name} lambda_max drift {_drift(highs):.3f} {highs}"


def test_05_mesh_independent_minres_iterations(cavity_ladder):
    """Per-preconditioner iteration counts stay flat (max/min <= 1.35)
    over four cavity refinement levels."""
    counts, elapsed, _ = cavity_ladder
    for kind in KINDS:
        seq = counts[kind]
        ratio = max(seq) / min(seq)
        assert ratio <= 1.35, f"{kind} counts {seq} ratio {ratio:.3f}"
    assert elapsed < 600.0, f"ladder took {elapsed:.0f}s"


@pytest.mark.parametrize("rbar", ["exact", "multigrid"])
@pytest.mark.parametrize("degree", [1, 3])
@pytest.mark.parametrize("shape", ["triangle", "quadrilateral"])
def test_05_flat_minres_iterations_beyond_k2_triangles(shape, degree, rbar):
    """MINRES counts stay flat (max/min <= 1.35, test_05's bound)
    over 8x8, 16x16, 32x32 at k = 1 and 3 on unjittered triangles and
    quadrilaterals: every kind with the exact velocity block, PM with
    one multigrid cycle."""
    cfg = cli.RunConfig(shape=shape, degree=degree, rbar=rbar, cycles=1)
    counts = {kind: [] for kind in (KINDS if rbar == "exact" else ["PM"])}
    for n in (8, 16, 32):
        _, _, cs = cli.discretize(cfg, mesh.generate(n, n, shape))
        for kind, seq in counts.items():
            rep = cli.krylov_solve(cli.with_options(cfg, pc=kind), cs)
            assert rep.converged, f"{kind} stalled on the {n}x{n} level"
            seq.append(rep.iterations)
    for kind, seq in counts.items():
        assert max(seq) / min(seq) <= 1.35, f"{kind} counts {seq}"


@pytest.mark.parametrize("rbar", ["exact", "multigrid"])
@pytest.mark.parametrize("shape, jitter, degree, alpha", [
    ("triangle", 0.2, 1, 108.0), ("triangle", 0.2, 2, 108.0),
    ("triangle", 0.2, 3, 108.0), ("quadrilateral", 0.2, 1, None),
    ("quadrilateral", 0.2, 2, None), ("quadrilateral", 0.2, 3, None),
    ("quadrilateral", 0.0, 2, None)])
def test_05_flat_minres_iterations_on_jittered_and_k2_quad_meshes(
        shape, jitter, degree, alpha, rbar):
    """PM MINRES counts stay flat (max/min <= 1.35, test_05's bound)
    over 8x8, 16x16, 32x32 (mesh seed 1) on jittered triangles at
    alpha = 108 and jittered quadrilaterals at the default alpha,
    k = 1, 2, 3, and on unjittered quadrilaterals at k = 2: with the
    exact velocity block and with one multigrid cycle."""
    cfg = cli.RunConfig(shape=shape, jitter=jitter, seed=1, degree=degree,
                        alpha=alpha, rbar=rbar, cycles=1)
    seq = []
    for n in (8, 16, 32):
        m = mesh.generate(n, n, shape, jitter=jitter, seed=1)
        _, _, cs = cli.discretize(cfg, m)
        rep = cli.krylov_solve(cfg, cs)
        assert rep.converged, f"stalled on the {n}x{n} level"
        seq.append(rep.iterations)
    assert max(seq) / min(seq) <= 1.35, f"PM counts {seq}"


def test_05_one_cycle_multigrid_ladder_from_4x4():
    """PM MINRES with one multigrid cycle runs the cycle on every level
    of 4x4, 8x8, 16x16 triangles at k = 2, the 168-row 4x4 block
    included, and its counts stay flat (max/min <= 1.35, test_05's
    bound)."""
    cfg = cli.RunConfig(rbar="multigrid", cycles=1)
    seq = []
    for n in (4, 8, 16):
        _, _, cs = cli.discretize(cfg, mesh.generate(n, n))
        pc = precond.build_preconditioner(cs, "PM", rbar_mode="multigrid",
                                          cycles=1)
        assert pc.rbar.mode == "multigrid", f"{n}x{n} built {pc.rbar.mode}"
        rep = krylov.minres(cs.K, cs.rhs, pc.apply, tol=cfg.tol,
                            maxiter=cfg.maxiter,
                            nullspace=cs.nullspace_vector())
        assert rep.converged, f"stalled on the {n}x{n} level"
        seq.append(rep.iterations)
    assert max(seq) / min(seq) <= 1.35, f"PM counts {seq}"


def test_06_sgs_beats_block_diagonal_mass(cavity_ladder):
    """The symmetric Gauss-Seidel variant of the mass preconditioner
    needs strictly fewer iterations than block-diagonal on every level."""
    counts, _, _ = cavity_ladder
    pairs = list(zip(counts["PM-SGS"], counts["PM"]))
    assert all(s < d for s, d in pairs), f"(sgs, diag) per level: {pairs}"


def test_07_gmres_at_most_minres_on_finest(cavity_ladder):
    """Right-preconditioned GMRES with the strongest preconditioner is
    no slower than MINRES on the finest level."""
    counts, _, grep = cavity_ladder
    assert grep.converged
    assert grep.iterations <= counts["PC-SGS"][-1], \
        f"gmres {grep.iterations} vs minres {counts['PC-SGS'][-1]}"


def test_08_divergence_free_and_normal_continuity():
    """A converged cavity velocity is pointwise divergence-free with
    continuous normal components across interior facets."""
    cfg = cli.RunConfig(nx=16, ny=16, tol=1e-10, pc="PM")
    m = mesh.generate(16, 16)
    result, _, rep = cli.solve_once(cfg, cli.discretize(cfg, m)[2])
    assert rep.converged
    fc = result["field_checks"]
    scale = fc["velocity_scale"]
    assert fc["max_divergence"] <= 1e-8 * scale, fc
    assert fc["max_normal_jump"] <= 1e-8 * scale, fc


def test_09_trace_form_norm_equivalence_bracket():
    """Rayleigh quotients of the condensed velocity form against the
    trace seminorm stay in a bracket stable within 25% over 3 levels."""
    lows, highs = [], []
    for n in (4, 8, 16):
        _, _, cs = _system(mesh.generate(n, n))
        r = spectra.trace_form_ratios(cs, n_samples=50, seed=3)
        lows.append(r.min())
        highs.append(r.max())
    assert max(lows) - min(lows) <= 0.25 * min(lows), lows
    assert max(highs) - min(highs) <= 0.25 * min(highs), highs


def test_10_coercivity_detector():
    """Stabilization alpha=24 gives a positive coercivity constant on
    every test mesh; alpha=0.01 is flagged as a failure."""
    meshes = [mesh.generate(4, 4), mesh.generate(8, 8),
              mesh.generate(3, 3, jitter=0.15, seed=7),
              mesh.generate(2, 2, "quadrilateral")]
    for m in meshes:
        sp_ = spaces.build_spaces(m, DEGREE)
        lo, _ = spectra.coercivity_bounds(sp_, _cavity().alpha)
        assert lo > 0, f"c_a = {lo:.3e} on {m.cell_type} {m.num_cells}"

    weak = spaces.ProblemSpec(degree=DEGREE, alpha=0.01)
    sp_ = spaces.build_spaces(mesh.generate(4, 4), DEGREE)
    lo, _ = spectra.coercivity_bounds(sp_, weak.alpha)
    assert lo <= 0, f"weak stabilization not detected, c_a = {lo:.3e}"


def test_11_deterministic_reports(tmp_path):
    """Identical configuration and seed give byte-identical study and
    solve reports, including iteration counts and matrix digests."""
    cfg = cli.RunConfig(nx=2, ny=2, levels=2, jitter=0.1, seed=5)
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert cli.run_study(cfg, str(out)) == 0
        outs.append(out)
    csv_a = (outs[0] / "study.csv").read_bytes()
    csv_b = (outs[1] / "study.csv").read_bytes()
    assert csv_a == csv_b
    assert (outs[0] / "study.json").read_bytes() == \
        (outs[1] / "study.json").read_bytes()

    solve_cfg = cli.RunConfig(nx=3, ny=3, jitter=0.15, seed=9)
    reports = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli.run_solve(solve_cfg, str(out)) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    rows = json.loads((outs[0] / "study.json").read_text())["rows"]
    assert all(row[k] > 0 for row in rows for k in KINDS)

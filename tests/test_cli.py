import configparser
import csv
import json
import pathlib
import re
import sys
import textwrap

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from hdgstokes import (assembly, cli, condense, krylov, mesh, precond, spaces,
                       spectra)


def _ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


SMALL = """
    [mesh]
    nx = 2
    ny = 2

    [solver]
    tol = 1e-8
    maxiter = 400
"""


# -- configuration ----------------------------------------------------

def test_config_defaults():
    cfg = cli.RunConfig()
    assert cfg.shape == "triangle"
    assert (cfg.nx, cfg.ny) == (8, 8)
    assert cfg.degree == 2 and cfg.alpha == 24.0
    assert cfg.pc == "PM" and cfg.method == "minres"
    assert cfg.domain == (-1.0, -1.0, 1.0, 1.0)
    assert cfg.rbar == "exact"


def test_config_parses_ini(tmp_path):
    path = _ini(tmp_path, """
        [mesh]
        shape = triangle
        nx = 3
        ny = 4
        jitter = 0.1
        seed = 5
        domain = 0, 0, 1, 1

        [discretization]
        degree = 1
        alpha = 12.5

        [problem]
        kind = zero

        [solver]
        method = gmres
        tol = 1e-6
        restart = 30

        [preconditioner]
        kind = PC-SGS
        rbar = multigrid
        cycles = 2

        [verify]
        nx = 2
        levels = 2
    """)
    cfg = cli.RunConfig.from_file(path)
    assert (cfg.nx, cfg.ny, cfg.jitter, cfg.seed) == (3, 4, 0.1, 5)
    assert cfg.domain == (0.0, 0.0, 1.0, 1.0)
    assert (cfg.degree, cfg.alpha) == (1, 12.5)
    assert cfg.problem == "zero"
    assert (cfg.method, cfg.tol, cfg.restart) == ("gmres", 1e-6, 30)
    assert (cfg.pc, cfg.rbar, cfg.cycles) == ("PC-SGS", "multigrid", 2)
    assert (cfg.verify_nx, cfg.verify_levels) == (2, 2)


def test_readme_example_config_is_the_default(tmp_path):
    """The README's example INI, inline comments included, spells out
    the defaults of every option."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    cfg = cli.RunConfig.from_file(_ini(tmp_path, block))
    assert vars(cfg) == vars(cli.RunConfig())
    parser = configparser.ConfigParser()
    parser.read_string(block)
    for section, key, _, _ in cli.OPTIONS.values():
        assert parser.has_option(section, key), (section, key)


def test_readme_library_snippet_runs():
    """The README's Library snippet runs as written and converges."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    scope = {}
    exec(block, scope)
    assert scope["rep"].converged
    assert scope["u"].shape == (scope["sp"].n_u,)


@pytest.mark.parametrize("kw", [
    {"degree": 4}, {"degree": 0}, {"pc": "ILU"}, {"shape": "hexagon"},
    {"method": "cg"}, {"rbar": "ilu"}, {"problem": "channel"},
    {"nx": 0}, {"maxiter": 0},
    {"jitter": 0.5}, {"jitter": -0.1}, {"alpha": -1.0}, {"alpha": 0.0},
    {"tol": 0.0}, {"tol": float("inf")}, {"domain": (1.0, -1.0, -1.0, 1.0)},
    {"domain": (-1.0, 1.0, 1.0, 1.0)}, {"jitter": 0.3},
    # malformed, negative or non-finite values, an unknown keyword and
    # non-integral numbers for integer options
    {"nx": "2.5"}, {"degree": "two"}, {"alpha": "abc"},
    {"domain": ("0", "0", "1", "1", "extra")}, {"seed": -1, "jitter": 0.1},
    {"alpha": float("inf")}, {"domain": (0.0, 0.0, float("inf"), 1.0)},
    {"nxx": 3}, {"nx": 2.5}, {"degree": 2.7}, {"cycles": 1.9},
    # a bool is an int subclass, not a number option
    {"nx": True}, {"tol": True}, {"alpha": True},
])
def test_config_rejects_bad_values(kw):
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(**kw)


def test_config_default_alpha_depends_on_degree(tmp_path):
    assert [cli.RunConfig(degree=k).alpha for k in (1, 2, 3)] == \
        [24.0, 24.0, 54.0]
    assert cli.RunConfig(degree=3, alpha=24.0).alpha == 24.0
    path = _ini(tmp_path, "[discretization]\ndegree = 3\nalpha = 30\n")
    assert cli.RunConfig.from_file(path).alpha == 30.0
    assert spaces.lid_driven_cavity(degree=3).alpha == 54.0
    assert spaces.ProblemSpec(degree=1).alpha == 24.0


def test_config_rejects_unknown_option_and_missing_file(tmp_path):
    path = _ini(tmp_path, "[solver]\nweird = 3\n")
    with pytest.raises(cli.ConfigError):
        cli.RunConfig.from_file(path)
    with pytest.raises(cli.ConfigError):
        cli.RunConfig.from_file(str(tmp_path / "absent.ini"))
    path = _ini(tmp_path, "[mesh]\ndomain = 0 0 1\n", name="dom.ini")
    with pytest.raises(cli.ConfigError):
        cli.RunConfig.from_file(path)


# undocumented spellings of [problem] kind, [preconditioner] kind and
# [verify] nx / levels
@pytest.mark.parametrize("text", ["[problem]\nproblem = zero\n",
                                  "[preconditioner]\npc = PC\n",
                                  "[verify]\nverify_nx = 2\n",
                                  "[verify]\nverify_levels = 2\n"],
                         ids=["problem", "pc", "verify_nx", "verify_levels"])
def test_config_refuses_undocumented_alias(tmp_path, text):
    with pytest.raises(cli.ConfigError, match="unknown option"):
        cli.RunConfig.from_file(_ini(tmp_path, text))


def test_report_round_trips_json():
    data = {"schur": (0.1, 2.0), "betas": np.array([0.5, 0.5]),
            "nested": {"a": np.float64(1.5), "b": [np.int64(2)]}}
    d = json.loads(json.dumps(data, default=cli.json_default))
    assert d["schur"] == [0.1, 2.0]
    assert d["betas"] == [0.5, 0.5]
    assert d["nested"] == {"a": 1.5, "b": [2]}
    with pytest.raises(TypeError, match="not JSON serializable"):
        json.dumps({"x": object()}, default=cli.json_default)


# -- matrix digest ----------------------------------------------------

def test_csr_hash_normalizes_and_discriminates():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
    dup = sp.coo_matrix(([0.5, 2.0, 0.5], ([0, 1, 0], [0, 1, 0])),
                        shape=(2, 2))
    assert cli.csr_hash(A) == cli.csr_hash(dup)
    B = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0 + 1e-12]]))
    assert cli.csr_hash(A) != cli.csr_hash(B)
    C = sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 2.0]]))
    assert cli.csr_hash(A) != cli.csr_hash(C)


# -- subcommands ------------------------------------------------------

def test_solve_writes_report_and_solution(tmp_path):
    cfg = cli.RunConfig(nx=2, ny=2)
    out = tmp_path / "solve"
    rc = cli.run_solve(cfg, str(out), save_solution=True)
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["solver"]["converged"] is True
    assert report["solver"]["preconditioner"] == "PM"
    assert report["mesh"]["cells"] == 8
    assert report["field_checks"]["max_divergence"] < 1e-4
    npz = np.load(out / "solution.npz")
    assert set(npz.files) == {"u", "ubar", "p", "pbar"}
    assert (out / "mesh.txt").exists()


def test_solve_reports_nonconvergence(tmp_path):
    cfg = cli.RunConfig(nx=2, ny=2, tol=1e-14, maxiter=2)
    rc = cli.run_solve(cfg, str(tmp_path / "bad"))
    assert rc == 1


@pytest.mark.parametrize("kind", ["PM", "PM-SGS"])
def test_solve_k3_triangles_default_alpha_converges(tmp_path, kind):
    # alpha = 24 is not coercive here: PM broke down, PM-SGS stalled
    cfg = cli.RunConfig(degree=3, pc=kind)
    assert cfg.alpha == 54.0
    assert cli.run_solve(cfg, str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["solver"]["converged"] is True
    assert report["solver"]["breakdown"] is None


def test_study_is_deterministic(tmp_path):
    cfg = cli.RunConfig(nx=2, ny=2, levels=1)
    texts = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.run_study(cfg, str(out)) == 0
        texts.append((out / "study.csv").read_text())
    assert texts[0] == texts[1]
    header = texts[0].splitlines()[0].split(",")
    assert header == ["level", "cells", "dofs", "PM", "PC", "PM-SGS",
                      "PC-SGS", "matrix_hash"]
    row = json.loads((tmp_path / "a" / "study.json").read_text())["rows"][0]
    assert all(row[k] > 0 for k in ("PM", "PC", "PM-SGS", "PC-SGS"))


def test_study_solves_with_the_configured_method(tmp_path):
    cfg = cli.RunConfig(nx=2, ny=2, levels=2, method="gmres")
    assert cli.run_study(cfg, str(tmp_path)) == 0
    reports = json.loads((tmp_path / "study.json").read_text())["reports"]
    assert len(reports) == 2 * len(precond.KINDS)
    assert all(rep["method"] == "gmres" for rep in reports)


def test_verify_passes_on_small_ladder(tmp_path, capsys):
    cfg = cli.RunConfig(nx=2, ny=2, verify_nx=2, verify_levels=2)
    out = tmp_path / "verify"
    rc = cli.run_verify(cfg, str(out))
    assert rc == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert "schur_identity_2cell" in names
    assert "element_block_spectrum_drift" in names
    assert "coercivity_failure_detected" in names
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(names)
    assert all(line.endswith("pass") for line in lines)


def test_verify_passes_on_default_quadrilaterals(tmp_path):
    """The pointwise divergence and normal-jump bounds hold only on
    triangles: on quadrilaterals they are recorded, and verify gates
    convergence and the kernel residual."""
    path = _ini(tmp_path, "[mesh]\nshape = quadrilateral\n")
    assert cli.main(["verify", "--config", path,
                     "--out", str(tmp_path / "v")]) == 0
    report = json.loads((tmp_path / "v" / "verify.json").read_text())
    (check,) = [c for c in report["checks"]
                if c["name"] == "conservation_and_kernel"]
    assert check["passed"] and check["converged"]
    fc = check["field_checks"]
    assert fc["max_divergence"] > 1e-8 * fc["velocity_scale"]


def test_verify_probes_coercivity_on_a_large_base(tmp_path):
    """The coercivity probe measures the base level whatever its size:
    at k = 3 the 8x8 base has more than 4,000 velocity unknowns, and
    the check must not pass on an empty list of bounds."""
    path = _ini(tmp_path, "[discretization]\ndegree = 3\n"
                          "[verify]\nnx = 8\nlevels = 1\n")
    assert cli.main(["verify", "--config", path,
                     "--out", str(tmp_path / "v")]) == 0
    report = json.loads((tmp_path / "v" / "verify.json").read_text())
    (check,) = [c for c in report["checks"]
                if c["name"] == "coercivity_positive"]
    assert check["passed"] and len(check["bounds"]) == 1
    assert check["bounds"][0][0] > 0


def test_verify_on_two_triangles_writes_finite_json(tmp_path):
    """Two triangles share one interior facet, so a [verify] nx = 1
    base on triangles has a trace-form bracket to measure."""
    path = _ini(tmp_path, "[verify]\nnx = 1\nlevels = 1\n")
    assert cli.main(["verify", "--config", path,
                     "--out", str(tmp_path / "v")]) in (0, 1)

    def refuse(name):
        raise ValueError(name)
    text = (tmp_path / "v" / "verify.json").read_text()
    json.loads(text, parse_constant=refuse)


def test_export_round_trips_matrices(tmp_path):
    cfg = cli.RunConfig(nx=1, ny=1)
    out = tmp_path / "export"
    assert cli.run_export(cfg, str(out)) == 0

    m = mesh.generate(1, 1)
    sp_ = spaces.build_spaces(m, 2)
    bs = assembly.build_block_system(sp_, spaces.lid_driven_cavity())
    cs = condense.condense(bs)
    pairs = {"A": bs.velocity_matrix(), "B": bs.divergence_matrix(),
             "M": bs.pressure_mass(), "saddle": bs.saddle_matrix(),
             "condensed": cs.K}
    for name, ref in pairs.items():
        got = scipy.io.mmread(str(out / (name + ".mtx")))
        assert np.abs((got - ref.tocoo()).toarray()).max() == 0.0
    rhs = scipy.io.mmread(str(out / "rhs_condensed.mtx"))
    assert np.array_equal(np.asarray(rhs).ravel(), cs.rhs)
    sizes = json.loads((out / "sizes.json").read_text())
    assert sizes["condensed"] == [cs.size, cs.size]


def test_subcommands_share_one_pipeline(tmp_path, monkeypatch):
    """solve, verify, export-matrices and study all condense the same
    matrix on the same mesh."""
    path = _ini(tmp_path, """
        [mesh]
        nx = 2
        ny = 2

        [study]
        levels = 1

        [verify]
        nx = 2
        levels = 1
    """)
    handed = []
    minres = krylov.minres

    def spy(A, b, pc=None, **kw):
        handed.append(A)
        return minres(A, b, pc, **kw)

    monkeypatch.setattr(krylov, "minres", spy)
    run = lambda command: cli.main([command, "--config", path,
                                    "--out", str(tmp_path / command)])
    assert run("solve") == 0
    (K,) = handed
    assert run("verify") == 0
    assert cli.csr_hash(handed[-1]) == cli.csr_hash(K)

    assert run("export-matrices") == 0
    got = scipy.io.mmread(str(tmp_path / "export-matrices" / "condensed.mtx"))
    assert np.abs((got - K.tocoo()).toarray()).max() == 0.0

    assert run("study") == 0
    with open(tmp_path / "study" / "study.csv") as fh:
        row = next(csv.DictReader(fh))
    assert row["level"] == "0"
    assert row["matrix_hash"] == cli.csr_hash(K)


# -- entry point ------------------------------------------------------

def test_main_accepts_config_before_or_after_subcommand(tmp_path):
    path = _ini(tmp_path, SMALL)
    assert cli.main(["solve", "--config", path,
                     "--out", str(tmp_path / "o1")]) == 0
    assert cli.main(["--config", path, "solve",
                     "--out", str(tmp_path / "o2")]) == 0


@pytest.mark.parametrize("shape, degree, jitter, coercive", [
    ("triangle", 2, 0.1, True), ("triangle", 2, 0.25, False),
    ("quadrilateral", 3, 0.25, True)])
def test_coercivity_guard_follows_dense_probe(shape, degree, jitter,
                                              coercive):
    """At the default alpha on 6x6 meshes, the cell-wise guard refuses
    the velocity forms that the dense probe finds not coercive, and
    accepts the others; `discretize` turns a refusal into a
    ConfigError."""
    m = mesh.generate(6, 6, shape, jitter=jitter, seed=1)
    sp_ = spaces.build_spaces(m, degree)
    prob = spaces.ProblemSpec(degree=degree,
                              alpha=spaces.default_alpha(degree))
    lo, _ = spectra.coercivity_bounds(sp_, prob.alpha)
    assert (lo > 0) == coercive
    bs = assembly.build_block_system(sp_, prob)
    assert bs.coercive == coercive
    cfg = cli.RunConfig(shape=shape, nx=6, ny=6, degree=degree,
                        jitter=jitter, seed=1)
    if coercive:
        cli.discretize(cfg, m)
    else:
        with pytest.raises(cli.ConfigError, match="not positive definite"):
            cli.discretize(cfg, m)


def _head(path, n=200):
    with open(path, "rb") as fh:
        return fh.read(n)


# the domain's width overflows, and its cells' corner turns underflow:
# each ended in a traceback (exit 1); the corner turns of the last one
# overflow, which numpy warned about before the refusal
@pytest.mark.parametrize("domain", ["-1e308 -1e308 1e308 1e308",
                                    "0 0 1e-300 1e-300", "0 0 1e200 1e200"])
@pytest.mark.parametrize("command",
                         ["solve", "study", "verify", "export-matrices"])
def test_main_refuses_unrepresentable_domain(tmp_path, capsys, domain,
                                             command):
    path = _ini(tmp_path, "[mesh]\nnx = 4\nny = 4\ndomain = %s\n" % domain)
    assert cli.main([command, "--config", path,
                     "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "configuration error: [mesh] domain" in err


# the lid spans the top wall of any domain; at [-1, 1]^2 it was fixed,
# and these solved the zero problem or were refused for normal flux
@pytest.mark.parametrize("domain, nx, ny", [
    ((0.0, 0.0, 1e-3, 1e-3), 4, 4), ((0.0, 0.0, 1.0, 8.0), 2, 16),
    ((0.0, 0.0, 1e3, 1e3), 4, 4), ((0.0, 0.0, 8.0, 1.0), 16, 2)])
def test_cavity_lid_spans_the_top_wall_of_the_domain(tmp_path, domain, nx,
                                                     ny):
    cfg = cli.RunConfig(nx=nx, ny=ny, domain=domain)
    x0, y0, x1, y1 = domain
    s = np.linspace(0.0, 1.0, 101)
    along_x, along_y = x0 + s * (x1 - x0), y0 + s * (y1 - y0)
    g = cli._problem(cfg).boundary_velocity
    top, _ = g(along_x, np.full_like(s, y1))
    assert top.max() == 1.0 and top[50] == 1.0
    assert top.min() == 0.0 and top[0] == top[-1] == 0.0
    for x, y in ((along_x, np.full_like(s, y0)),
                 (np.full_like(s, x0), along_y),
                 (np.full_like(s, x1), along_y)):
        gx, gy = g(x, y)
        assert not gx.any() and not gy.any()

    assert cli.run_solve(cfg, str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["solver"]["converged"] is True
    assert report["solver"]["iterations"] > 0


# the velocity form is invariant under scaling of the domain; the
# coercivity guard shifted by the largest diagonal entry refused these
@pytest.mark.parametrize("domain", ["0 0 1e-14 1e-14", "0 0 1e50 1e50"])
def test_main_solves_cavity_on_scaled_domain(tmp_path, domain):
    path = _ini(tmp_path, "[mesh]\nnx = 4\nny = 4\ndomain = %s\n" % domain)
    assert cli.main(["solve", "--config", path,
                     "--out", str(tmp_path / "x")]) == 0
    report = json.loads((tmp_path / "x" / "report.json").read_text())
    assert report["solver"]["converged"] is True


# files that configparser cannot parse, and one that is not text
@pytest.mark.parametrize("content", [
    b"nx = 3\n", b"[mesh]\nnx = 3\nnx = 4\n", b"[mesh]\nnx = 3\n[mesh]\n",
    b"[mesh]\n  stray\n", b"[discretization]\nalpha = %\n",
    _head(sys.executable),
], ids=["no-section-header", "repeated-key", "repeated-section",
        "indented-stray-line", "percent-sign", "program-binary"])
def test_main_refuses_malformed_config_file(tmp_path, capsys, content):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(content)
    assert cli.main(["solve", "--config", str(bad),
                     "--out", str(tmp_path / "x")]) == 2
    assert "configuration error: " in capsys.readouterr().err


def test_main_exit_codes(tmp_path, capsys):
    for bad_text in ("[discretization]\ndegree = 7\n",
                     "[mesh]\njitter = 0.5\n",
                     "[discretization]\nalpha = -1\n",
                     "[solver]\ntol = 0\n",
                     "[solver]\ntol = nan\n",
                     "[mesh]\ndomain = 1 -1 -1 1\n",
                     "[mesh]\ndomain = -1 1 1 1\n",
                     "[mesh]\nshape = triangle\nnx = 1\nny = 30\n",
                     # each of these ended in a traceback (exit 1) or,
                     # for the unknown sections, was silently ignored
                     "[mesh]\nnx = 2.5\n",
                     "[discretization]\ndegree = two\n",
                     "[discretization]\nalpha = abc\n",
                     "[mesh]\ndomain = 0 0 1 1 extra\n",
                     "[mesh]\nseed = -1\njitter = 0.1\n",
                     "[discretization]\nalpha = inf\n",
                     "[mesh]\ndomain = 0 0 inf 1\n",
                     "[solvr]\nmaxiter = 1\n",
                     "[DEFAULT]\nnx = 4\n"):
        bad = _ini(tmp_path, bad_text, name="bad.ini")
        rc = cli.main(["solve", "--config", bad,
                       "--out", str(tmp_path / "x")])
        assert rc == 2, bad_text
        assert "configuration error" in capsys.readouterr().err

    # the default alpha on jittered triangles (k = 2) and an explicit
    # alpha = 24 at k = 3: the velocity form is not coercive, and the
    # solve broke down in MINRES before the coercivity check
    for bad_text in ("[mesh]\nnx = 8\nny = 8\njitter = 0.2\nseed = 2\n",
                     "[mesh]\nnx = 16\nny = 16\njitter = 0.15\nseed = 1\n",
                     "[mesh]\nnx = 4\nny = 4\n"
                     "[discretization]\ndegree = 3\nalpha = 24\n"):
        bad = _ini(tmp_path, bad_text, name="bad.ini")
        rc = cli.main(["solve", "--config", bad,
                       "--out", str(tmp_path / "x")])
        assert rc == 2, bad_text
        err = capsys.readouterr().err
        assert "configuration error" in err and "not positive definite" in err
        assert "raise alpha" in err

    # past alpha = 1 / eps the guard refuses every mesh, and raising
    # alpha, which the refusal used to advise, cannot help
    for alpha in ("1e16", "1e300"):
        bad = _ini(tmp_path, "[mesh]\nnx = 3\nny = 3\n[discretization]\n"
                             "alpha = %s\n" % alpha, name="bad.ini")
        rc = cli.main(["solve", "--config", bad,
                       "--out", str(tmp_path / "x")])
        assert rc == 2, alpha
        err = capsys.readouterr().err
        assert "not positive definite" in err
        assert "too large for double precision" in err
        assert "raise alpha" not in err

    # cells 1/8 x 1/80: the per-cell velocity block is not positive
    # definite at the default alpha, whichever subcommand meets it
    thin = _ini(tmp_path, "[mesh]\ndomain = 0 0 1 0.1\n", name="thin.ini")
    for command in ("solve", "study", "verify", "export-matrices"):
        rc = cli.main([command, "--config", thin,
                       "--out", str(tmp_path / "t")])
        assert rc == 2, command
        assert "not positive definite" in capsys.readouterr().err

    # a jittered mesh is drawn anew at each verify level, so the drift
    # checks compared unrelated meshes (this one exited 1)
    jittered = _ini(tmp_path, "[mesh]\nshape = quadrilateral\njitter = 0.2\n"
                              "seed = 7\n[discretization]\ndegree = 3\n",
                    name="jittered.ini")
    rc = cli.main(["verify", "--config", jittered,
                   "--out", str(tmp_path / "j")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "[mesh] jitter" in err

    # one quadrilateral has no interior facet: the trace-form bracket
    # of verify would divide 0 by 0, so such a base is refused
    one = _ini(tmp_path, "[mesh]\nshape = quadrilateral\n"
                         "[verify]\nnx = 1\n", name="one.ini")
    rc = cli.main(["verify", "--config", one, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "[verify] nx" in err

    slow = _ini(tmp_path, """
        [mesh]
        nx = 2
        ny = 2

        [solver]
        maxiter = 2
        tol = 1e-14
    """, name="slow.ini")
    rc = cli.main(["study", "--config", slow, "--out", str(tmp_path / "y")])
    assert rc == 1

    with pytest.raises(SystemExit):
        cli.main([])

"""Command-line driver.

Subcommands: solve (one cavity solve, JSON report), study (iteration
counts per preconditioner over a refinement ladder, CSV + JSON),
verify (spectral verification suite, JSON, nonzero exit on failure),
export-matrices (Matrix Market dump of the full and condensed
systems).  Configuration is an INI file of the keys of `OPTIONS`,
which states each option once; every run is deterministic for a fixed
configuration.

All four share one pipeline of two stages: `discretize` (spaces,
assembly, boundary-flux check, static condensation) and
`krylov_solve` (block preconditioner, MINRES or GMRES), which builds
what its RunConfig names; study and verify change the kind, method or
tolerance through `with_options`, a RunConfig validated anew.

Exit codes: 0 success, 1 failed verification or non-converged solve,
2 configuration errors (a value that breaks its rule, an unknown
section, key or keyword, an INI file that cannot be read or parsed).
"""

import argparse
import configparser
import csv
import hashlib
import json
import os
import sys

import numpy as np
import scipy.io

from . import assembly, condense, krylov, precond, spaces, spectra
from . import mesh as _mesh


class ConfigError(Exception):
    pass


# Number rules (type, lo, hi, meaning): a value of that type in
# [lo, hi].  The smallest positive and the largest finite float bound
# the positive finite numbers exactly; nan lies in no interval.
_POSITIVE = (int, 1, np.inf, "positive")
_POSITIVE_FINITE = (float, np.nextafter(0.0, 1.0), np.finfo(float).max,
                    "positive and finite")

# Every option of a run, once: RunConfig keyword -> (INI section, INI
# key, default, rule), a rule being the tuple of allowed values or a
# number rule.  Special cases: domain (rule None, see `_domain`), and
# alpha, whose default None is spaces.default_alpha(degree).
OPTIONS = {
    "shape": ("mesh", "shape", "triangle", ("triangle", "quadrilateral")),
    "nx": ("mesh", "nx", 8, _POSITIVE),
    "ny": ("mesh", "ny", 8, _POSITIVE),
    "jitter": ("mesh", "jitter", 0.0, (float, 0.0, _mesh.MAX_JITTER,
                                       "in [0, %g]" % _mesh.MAX_JITTER)),
    "seed": ("mesh", "seed", 0, (int, 0, np.inf, "non-negative")),
    "domain": ("mesh", "domain", (-1.0, -1.0, 1.0, 1.0), None),
    "degree": ("discretization", "degree", 2, (int, 1, 3, "1, 2 or 3")),
    "alpha": ("discretization", "alpha", None, _POSITIVE_FINITE),
    "problem": ("problem", "kind", "cavity", ("cavity", "zero")),
    "method": ("solver", "method", "minres", ("minres", "gmres")),
    "tol": ("solver", "tol", 1e-8, _POSITIVE_FINITE),
    "maxiter": ("solver", "maxiter", 1000, _POSITIVE),
    "restart": ("solver", "restart", 50, _POSITIVE),
    "pc": ("preconditioner", "kind", "PM", precond.KINDS),
    "rbar": ("preconditioner", "rbar", "exact", ("exact", "multigrid")),
    "cycles": ("preconditioner", "cycles", 4, _POSITIVE),
    "levels": ("study", "levels", 4, _POSITIVE),
    "verify_nx": ("verify", "nx", 4, _POSITIVE),
    "verify_levels": ("verify", "levels", 3, _POSITIVE),
}


def _number(label, value, kind, lo, hi, meaning):
    """value as a number of kind in [lo, hi]; ConfigError naming the
    option otherwise (an int has no fractional part, and a bool, though
    an int subclass, is no number)."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or isinstance(value, (bool, np.bool_)) or (
            kind is int and isinstance(value, (float, np.floating))
            and out != value):
        raise ConfigError("%s must be %s, not %r" % (
            label, {int: "an integer", float: "a number"}[kind], value))
    if not lo <= out <= hi:
        raise ConfigError("%s must be %s" % (label, meaning))
    return out


def _domain(value):
    """The domain x0 y0 x1 y1 as four finite floats, x0 < x1 and
    y0 < y1; a string (INI) is split at commas and white space."""
    if isinstance(value, str):
        value = value.replace(",", " ").split()
    try:
        domain = tuple(float(t) for t in value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("domain must be four numbers x0 y0 x1 y1, "
                          "not %r" % (value,)) from None
    if len(domain) != 4:
        raise ConfigError("domain needs four numbers: x0 y0 x1 y1")
    if not np.isfinite(domain).all():
        raise ConfigError("domain must be finite")
    x0, y0, x1, y1 = domain
    if not (x1 > x0 and y1 > y0):
        raise ConfigError("domain needs x0 < x1 and y0 < y1")
    if not np.isfinite([x1 - x0, y1 - y0]).all():
        raise ConfigError("[mesh] domain is too large: its width and "
                          "height must be finite floats")
    return domain


class RunConfig:
    """Validated run configuration with INI loading: one attribute per
    keyword of `OPTIONS`."""

    def __init__(self, **kw):
        unknown = sorted(set(kw) - set(OPTIONS))
        if unknown:
            raise ConfigError("unknown option %s" % ", ".join(unknown))
        for name, (section, key, default, rule) in OPTIONS.items():
            value = kw.get(name, default)
            label = "[%s] %s" % (section, key)
            if name == "alpha" and value is None:
                value = spaces.default_alpha(self.degree)
            if rule is None:
                value = _domain(value)
            elif rule[0] in (int, float):
                value = _number(label, value, *rule)
            elif value not in rule:
                raise ConfigError("%s must be one of %s, not %r"
                                  % (label, ", ".join(rule), value))
            setattr(self, name, value)

    @classmethod
    def from_file(cls, path):
        """RunConfig from an INI file of `OPTIONS` keys, read literally
        (no `%` interpolation).  ConfigError for an unknown section or
        key and for a file that cannot be read or parsed."""
        parser = configparser.ConfigParser(
            inline_comment_prefixes=(";", "#"), interpolation=None)
        try:
            read = parser.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError("cannot parse config file %r: %s"
                              % (path, exc)) from None
        if not read:
            raise ConfigError("cannot read config file %r" % path)
        names = {(section, key): name
                 for name, (section, key, _, _) in OPTIONS.items()}
        sections = {section for section, _ in names}
        kw = {}
        # configparser keeps [DEFAULT] out of sections() and merges its
        # keys into every section, so it is refused first
        for section in (["DEFAULT"] * bool(parser.defaults())
                        + parser.sections()):
            if section not in sections:
                raise ConfigError("unknown section [%s]" % section)
            for key, value in parser.items(section):
                if (section, key) not in names:
                    raise ConfigError("unknown option %r in section [%s]"
                                      % (key, section))
                kw[names[section, key]] = value
        return cls(**kw)


def with_options(cfg, **changes):
    """A RunConfig of cfg's options with `changes`, validated anew."""
    return RunConfig(**{**vars(cfg), **changes})


def json_default(obj):
    """`json.dump` hook: numpy arrays and scalars as lists and Python
    numbers."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError("%s is not JSON serializable" % type(obj).__name__)


def csr_hash(A):
    """Deterministic digest of a CSR matrix."""
    A = A.tocsr().copy()
    A.sum_duplicates()
    A.sort_indices()
    h = hashlib.sha256()
    h.update(np.asarray(A.shape, dtype=np.int64).tobytes())
    h.update(A.indptr.astype(np.int64).tobytes())
    h.update(A.indices.astype(np.int64).tobytes())
    h.update(A.data.tobytes())
    return h.hexdigest()


def _generate(cfg, nx, ny):
    """The configured mesh at nx x ny; ConfigError when the domain is
    too small or too large for the cells to have finite, positive
    floating-point geometry."""
    try:
        return _mesh.generate(nx, ny, cfg.shape, cfg.domain,
                              jitter=cfg.jitter, seed=cfg.seed)
    except ValueError as exc:
        raise ConfigError("[mesh] domain = %g %g %g %g cannot be meshed "
                          "with %d x %d cells: %s"
                          % (*cfg.domain, nx, ny, exc)) from None


def _mesh_ladder(cfg, nx, ny, levels):
    """Doubling sequence of meshes of the same structured family.

    Regenerating at doubled resolution keeps every level in one cell
    family; uniform refinement of a structured triangulation would mix
    in rotated cells at the first step and perturb the level-0 spectra."""
    return [_generate(cfg, nx << lvl, ny << lvl) for lvl in range(levels)]


def _problem(cfg):
    if cfg.problem == "cavity":
        return spaces.lid_driven_cavity(cfg.degree, cfg.alpha, cfg.domain)
    return spaces.ProblemSpec(degree=cfg.degree, alpha=cfg.alpha)


def discretize(cfg, m):
    """Discretization stage on mesh m: spaces, assembly, the flux check
    of the eliminated boundary datum, the coercivity guard, and static
    condensation.  Returns (spaces, bs, cs)."""
    sp_ = spaces.build_spaces(m, cfg.degree)
    bs = assembly.build_block_system(sp_, _problem(cfg))
    g = bs.g_values
    flux = assembly.boundary_flux_per_facet(sp_, g)
    scale = max(np.abs(g).max(), 1.0)
    if flux.size and np.abs(flux).max() > 1e-10 * scale:
        raise ConfigError("boundary datum has nonzero normal flux; "
                          "elimination would break mass conservation")
    if not bs.coercive:
        # a larger alpha is coercive in exact arithmetic: past 1 / eps
        # the penalty swamps the rest of the form in double precision
        reason = ("alpha is too large for double precision"
                  if bs.alpha * np.finfo(float).eps >= 1.0 else
                  "raise alpha or use less distorted cells")
        raise ConfigError("the local velocity form is not positive "
                          "definite for alpha = %g on these cells; %s"
                          % (bs.alpha, reason))
    return sp_, bs, condense.condense(bs)


def krylov_solve(cfg, cs):
    """Solve stage: the preconditioner `cfg.pc` (velocity block
    `cfg.rbar`, `cfg.cycles`) and `cfg.method` to `cfg.tol` on the
    condensed system.  Returns the SolverReport (solution in .x)."""
    pc = precond.build_preconditioner(cs, kind=cfg.pc, rbar_mode=cfg.rbar,
                                      cycles=cfg.cycles)
    opts = {"tol": cfg.tol, "maxiter": cfg.maxiter,
            "nullspace": cs.nullspace_vector(), "label": cfg.pc}
    if cfg.method == "minres":
        return krylov.minres(cs.K, cs.rhs, pc.apply, **opts)
    return krylov.gmres(cs.K, cs.rhs, pc.apply, restart=cfg.restart, **opts)


def solve_once(cfg, cs):
    """The solve stage of `cfg` and the velocity recovery on a
    condensed system `cs`, what `discretize` made of a mesh.

    Returns (result dict, fields, solver report)."""
    sp_ = cs.spaces
    m = sp_.mesh
    rep = krylov_solve(cfg, cs)

    ubar, p, pbar = cs.split(rep.x)
    u = condense.recover_velocity(cs, ubar, p, pbar)

    # report pressures with mass-weighted zero mean
    c = sp_.constant_pressure
    pp = np.concatenate([p, pbar])
    shift = (c @ (cs.mass * pp)) / (c @ (cs.mass * c))
    pp = pp - shift * c
    p, pbar = pp[:sp_.n_p], pp[sp_.n_p:]

    checks = spectra.field_checks(sp_, u)
    result = {
        "mesh": {"cells": m.num_cells, "facets": m.num_facets,
                 "shape": m.cell_type, "h_max": float(m.h.max()),
                 "mesh_ratio": float(m.mesh_ratio)},
        "dofs": {"cell_velocity": sp_.n_u, "cell_pressure": sp_.n_p,
                 "facet_velocity": sp_.n_ubar, "facet_pressure": sp_.n_pbar,
                 "condensed": cs.size},
        "solver": rep.to_dict(),
        "field_checks": checks,
        "pressure_mean_shift": float(shift),
    }
    fields = {"u": u, "ubar": ubar, "p": p, "pbar": pbar}
    return result, fields, rep


def run_solve(cfg, outdir, save_solution=False):
    os.makedirs(outdir, exist_ok=True)
    m = _generate(cfg, cfg.nx, cfg.ny)
    result, fields, rep = solve_once(cfg, discretize(cfg, m)[2])
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        json.dump(result, fh, indent=2)
    if save_solution:
        np.savez(os.path.join(outdir, "solution.npz"), **fields)
    _mesh.write_mesh(m, os.path.join(outdir, "mesh.txt"))
    return 0 if rep.converged else 1


def run_study(cfg, outdir):
    """Iteration counts of all four preconditioners under cfg.method
    over a refinement ladder; one CSV row per level."""
    os.makedirs(outdir, exist_ok=True)
    rows = []
    detail = []
    failed = False
    for level, m in enumerate(_mesh_ladder(cfg, cfg.nx, cfg.ny, cfg.levels)):
        _, _, cs = discretize(cfg, m)
        row = {"level": level, "cells": m.num_cells, "dofs": cs.size}
        for kind in precond.KINDS:
            rep = krylov_solve(with_options(cfg, pc=kind), cs)
            row[kind] = rep.iterations if rep.converged else -1
            failed = failed or not rep.converged
            detail.append({"level": level, **rep.to_dict()})
        row["matrix_hash"] = csr_hash(cs.K)
        rows.append(row)

    cols = ["level", "cells", "dofs", *precond.KINDS, "matrix_hash"]
    with open(os.path.join(outdir, "study.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols)
        writer.writeheader()
        writer.writerows(rows)
    with open(os.path.join(outdir, "study.json"), "w") as fh:
        json.dump({"rows": rows, "reports": detail}, fh, indent=2)
    return 1 if failed else 0


def run_verify(cfg, outdir):
    """Spectral verification ladder; writes verify.json and returns a
    nonzero exit code when any check fails."""
    if cfg.jitter > 0:
        raise ConfigError("[mesh] jitter = %g: verify compares spectra "
                          "across mesh levels, and a jittered mesh is "
                          "drawn anew at each level; use [mesh] jitter = 0"
                          % cfg.jitter)
    os.makedirs(outdir, exist_ok=True)
    checks = []

    def record(name, passed, **data):
        checks.append({"name": name, "passed": bool(passed), **data})

    ladder = _mesh_ladder(cfg, cfg.verify_nx, cfg.verify_nx,
                          cfg.verify_levels)
    # the trace-form bracket is a ratio of seminorms of fields that
    # vanish on the boundary: 0/0 on a base without an interior facet
    if ladder[0].boundary_mask.all():
        raise ConfigError("[verify] nx = %d gives a base mesh with no "
                          "interior facet; use a larger [verify] nx"
                          % cfg.verify_nx)
    two_cell = discretize(cfg, _generate(cfg, 1, 1))
    probes = [(m, *discretize(cfg, m)) for m in ladder]
    base = probes[0]

    # condensation identity on a 2-cell mesh and the base mesh
    for label, (_, bs, cs) in (("2cell", two_cell), ("base", base[1:])):
        res = spectra.condensed_schur_identity(bs, cs)
        record("schur_identity_" + label, res <= 1e-9, residual=res)

    # spectra of the pressure Schur complement and of its element blocks
    full = [spectra.schur_spectrum(cs) for _, _, _, cs in probes]
    cond = [spectra.element_block_spectrum(cs) for _, _, _, cs in probes]

    def drift_ok(seq):
        ok = all(lo > 0 for lo, _ in seq)
        for (l0, u0), (l1, u1) in zip(seq, seq[1:]):
            ok = ok and abs(l1 - l0) < 0.2 * min(l0, l1)
            ok = ok and abs(u1 - u0) < 0.2 * min(u0, u1)
        return ok

    record("schur_spectrum_drift", drift_ok(full), extremes=full)
    record("element_block_spectrum_drift", drift_ok(cond), extremes=cond)

    # coercivity (unconstrained form) on the base, whatever its size,
    # and on the finer levels of at most 4000 unknowns (8x8 triangles
    # at k = 2): its Lanczos pencil needs more steps on every finer
    # mesh, and the steps cost more, so the finer levels would dominate
    # verify's time
    coer = [spectra.coercivity_bounds(sp_, cfg.alpha)
            for i, (_, sp_, _, _) in enumerate(probes)
            if i == 0 or sp_.n_u + sp_.n_ubar <= 4000]
    record("coercivity_positive", all(lo > 0 for lo, _ in coer),
           bounds=coer, alpha=cfg.alpha)

    # the detector must flag a known-bad stabilization
    lo, hi = spectra.coercivity_bounds(base[1], 0.01)
    record("coercivity_failure_detected", lo <= 0, bounds=[(lo, hi)],
           alpha=0.01)

    # local inf-sup constants
    betas = [spectra.cell_infsup(bs).min() for _, _, bs, _ in probes]
    record("cell_infsup_positive", all(b > 1e-8 for b in betas),
           minima=betas)
    fb = [spectra.facet_infsup(bs) for _, _, bs, _ in probes]
    record("facet_infsup_positive", all(b > 1e-8 for b in fb), values=fb)

    # trace-form equivalence bracket across levels
    lows, highs = [], []
    for _, _, _, cs in probes:
        r = spectra.trace_form_ratios(cs)
        lows.append(r.min())
        highs.append(r.max())
    stable = (max(lows) - min(lows) <= 0.25 * min(lows)
              and max(highs) - min(highs) <= 0.25 * min(highs))
    record("trace_form_bracket_stable", stable, lower=lows, upper=highs)

    # one converged solve: conservation and kernel hygiene; the
    # pointwise bounds hold only on triangles (`spectra.field_checks`),
    # so on quadrilaterals they are recorded, not gated
    result, _, rep = solve_once(
        with_options(cfg, pc="PM", method="minres", tol=1e-10), base[3])
    fc = result["field_checks"]
    scale = max(fc["velocity_scale"], 1e-300)
    ok = rep.converged and rep.nullspace_residual <= 1e-10
    if cfg.shape == "triangle":
        ok = ok and (fc["max_divergence"] <= 1e-8 * scale
                     and fc["max_normal_jump"] <= 1e-8 * scale)
    record("conservation_and_kernel", ok, field_checks=fc,
           nullspace_residual=rep.nullspace_residual,
           converged=rep.converged)

    passed = all(c["passed"] for c in checks)
    with open(os.path.join(outdir, "verify.json"), "w") as fh:
        json.dump({"passed": passed, "checks": checks}, fh, indent=2,
                  default=json_default)
    for c in checks:
        print("%-34s %s" % (c["name"], "pass" if c["passed"] else "FAIL"))
    return 0 if passed else 1


def run_export(cfg, outdir):
    os.makedirs(outdir, exist_ok=True)
    m = _generate(cfg, cfg.nx, cfg.ny)
    _, bs, cs = discretize(cfg, m)
    out = {
        "A": bs.velocity_matrix(), "B": bs.divergence_matrix(),
        "M": bs.pressure_mass(), "saddle": bs.saddle_matrix(),
        "condensed": cs.K,
    }
    for name, mat in out.items():
        scipy.io.mmwrite(os.path.join(outdir, name + ".mtx"), mat)
    scipy.io.mmwrite(os.path.join(outdir, "rhs_full.mtx"),
                     bs.full_rhs()[:, None])
    scipy.io.mmwrite(os.path.join(outdir, "rhs_condensed.mtx"),
                     cs.rhs[:, None])
    _mesh.write_mesh(m, os.path.join(outdir, "mesh.txt"))
    with open(os.path.join(outdir, "sizes.json"), "w") as fh:
        json.dump({k: v.shape for k, v in out.items()}, fh, indent=2,
                  default=list)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hdg-stokes",
        description="Hybridized DG Stokes solver and verification suite")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI configuration file")
    common.add_argument("--out", default="out")
    parser.add_argument("--config", dest="config_global",
                        help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", parents=[common],
                             help="one solve, JSON report")
    p_solve.add_argument("--save-solution", action="store_true")
    sub.add_parser("study", parents=[common],
                   help="preconditioner comparison ladder")
    sub.add_parser("verify", parents=[common],
                   help="spectral verification suite")
    sub.add_parser("export-matrices", parents=[common],
                   help="Matrix Market dump")
    args = parser.parse_args(argv)

    config = args.config or getattr(args, "config_global", None)
    try:
        cfg = RunConfig.from_file(config) if config else RunConfig()
        if args.command == "solve":
            return run_solve(cfg, args.out, args.save_solution)
        if args.command == "study":
            return run_study(cfg, args.out)
        if args.command == "verify":
            return run_verify(cfg, args.out)
        return run_export(cfg, args.out)
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver.

Subcommands: solve (one cavity solve, JSON report), study (iteration
counts per preconditioner over a refinement ladder, CSV + JSON),
verify (spectral verification suite, JSON, nonzero exit on failure),
export-matrices (Matrix Market dump of the full and condensed
systems).  Configuration is an INI file; every run is deterministic
for a fixed configuration.

All four share one pipeline of two stages: `discretize` (spaces,
boundary-flux check, assembly, static condensation) and
`krylov_solve` (block preconditioner, MINRES or GMRES).

Exit codes: 0 success, 1 failed verification or non-converged solve,
2 configuration errors.
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


_DEFAULTS = {
    "shape": "triangle", "nx": 8, "ny": 8, "jitter": 0.0, "seed": 0,
    "domain": (-1.0, -1.0, 1.0, 1.0),
    "degree": 2, "alpha": None,     # None: spaces.default_alpha(degree)
    "problem": "cavity",
    "method": "minres", "tol": 1e-8, "maxiter": 1000, "restart": 50,
    "pc": "PM", "rbar": "exact", "cycles": 4,
    "levels": 4,
    "verify_nx": 4, "verify_levels": 3,
}


def _convert(name, value, kind):
    """value as an int or a float; ConfigError naming the option if it
    is not one, a number with a fractional part included for an int."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or (kind is int and isinstance(value, (float, np.floating))
                       and out != value):
        raise ConfigError("%s must be %s, not %r"
                          % (name, "an integer" if kind is int else
                             "a number", value))
    return out


class RunConfig:
    """Validated run configuration with INI loading."""

    def __init__(self, **kw):
        unknown = sorted(set(kw) - set(_DEFAULTS))
        if unknown:
            raise ConfigError("unknown option %s" % ", ".join(unknown))
        vals = dict(_DEFAULTS)
        vals.update(kw)
        for k, v in vals.items():
            setattr(self, k, v)
        self._validate()

    def _validate(self):
        if self.shape not in ("triangle", "quadrilateral"):
            raise ConfigError("mesh shape must be triangle or quadrilateral")
        positive = ("nx", "ny", "maxiter", "restart", "cycles", "levels",
                    "verify_nx", "verify_levels")
        for name in ("degree", "seed") + positive:
            setattr(self, name, _convert(name, getattr(self, name), int))
        if self.degree not in (1, 2, 3):
            raise ConfigError("degree must be 1, 2 or 3")
        if self.pc not in precond.KINDS:
            raise ConfigError("unknown preconditioner %r; expected one of %s"
                              % (self.pc, ", ".join(precond.KINDS)))
        if self.method not in ("minres", "gmres"):
            raise ConfigError("solver method must be minres or gmres")
        if self.rbar not in ("exact", "multigrid"):
            raise ConfigError("rbar mode must be exact or multigrid")
        if self.problem not in ("cavity", "zero"):
            raise ConfigError("problem must be cavity or zero")
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError("%s must be positive" % name)
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.alpha is None:
            self.alpha = spaces.default_alpha(self.degree)
        for name in ("alpha", "tol", "jitter"):
            setattr(self, name, _convert(name, getattr(self, name), float))
        if not 0.0 <= self.jitter <= _mesh.MAX_JITTER:
            raise ConfigError("mesh jitter must lie in [0, %g]"
                              % _mesh.MAX_JITTER)
        if not 0.0 < self.alpha < np.inf:
            raise ConfigError("alpha must be positive and finite")
        if not 0.0 < self.tol < np.inf:
            raise ConfigError("tol must be positive and finite")
        try:
            self.domain = tuple(float(t) for t in self.domain)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError("domain must be four numbers x0 y0 x1 y1, "
                              "not %r" % (self.domain,)) from None
        if len(self.domain) != 4:
            raise ConfigError("domain needs four numbers: x0 y0 x1 y1")
        if not np.isfinite(self.domain).all():
            raise ConfigError("domain must be finite")
        x0, y0, x1, y1 = self.domain
        if not (x1 > x0 and y1 > y0):
            raise ConfigError("domain needs x0 < x1 and y0 < y1")

    @classmethod
    def from_file(cls, path):
        parser = configparser.ConfigParser(
            inline_comment_prefixes=(";", "#"))
        read = parser.read(path)
        if not read:
            raise ConfigError("cannot read config file %r" % path)
        kw = {}
        section_keys = {
            "mesh": ("shape", "nx", "ny", "jitter", "seed", "domain"),
            "discretization": ("degree", "alpha"),
            "problem": ("problem",),
            "solver": ("method", "tol", "maxiter", "restart"),
            "preconditioner": ("pc", "rbar", "cycles"),
            "study": ("levels",),
            "verify": ("verify_nx", "verify_levels"),
        }
        # configparser keeps [DEFAULT] out of sections()
        sections = parser.sections() + (["DEFAULT"] if parser.defaults()
                                        else [])
        for section in sections:
            if section not in section_keys:
                raise ConfigError("unknown section [%s]" % section)
        for section, keys in section_keys.items():
            if not parser.has_section(section):
                continue
            for key in parser.options(section):
                target = "verify_" + key if section == "verify" \
                    and not key.startswith("verify_") else key
                if target == "kind" or key == "kind":
                    target = "problem" if section == "problem" else "pc"
                if target not in keys:
                    raise ConfigError("unknown option %r in section [%s]"
                                      % (key, section))
                kw[target] = parser.get(section, key)
        if "domain" in kw:
            kw["domain"] = kw["domain"].replace(",", " ").split()
        return cls(**kw)


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


def _mesh_ladder(cfg, nx, ny, levels):
    """Doubling sequence of meshes of the same structured family.

    Regenerating at doubled resolution keeps every level in one cell
    family; uniform refinement of a structured triangulation would mix
    in rotated cells at the first step and perturb the level-0 spectra."""
    return [_mesh.generate(nx << lvl, ny << lvl, cfg.shape, cfg.domain,
                           jitter=cfg.jitter, seed=cfg.seed)
            for lvl in range(levels)]


def _problem(cfg):
    if cfg.problem == "cavity":
        return spaces.lid_driven_cavity(cfg.degree, cfg.alpha)
    return spaces.ProblemSpec(degree=cfg.degree, alpha=cfg.alpha)


def check_coercive(bs):
    """ConfigError unless every cell's unconstrained velocity form is
    positive definite off its constant pair.  That suffices for
    coercivity: the cell-wise sum is then positive off the constant
    fields, so the condensed velocity block is SPD, and so is every
    cell block that `condense` factors.  The check is a batched
    Cholesky of L + sigma c c^T, with the local forms L and unit
    constant pairs c of `assembly.local_velocity_form` and sigma the
    largest diagonal entry of L."""
    L, c = assembly.local_velocity_form(bs)
    c /= np.linalg.norm(c, axis=1)[:, None]
    sigma = np.einsum("cii->ci", L).max(axis=1)
    try:
        # 512 cells at a time, each a shifted copy (L is bs.local_form):
        # one factor of all 8,192 cells of 64x64 triangles (k = 2),
        # though freed at once, raised the later process peak inside
        # `condense` from 347 to 354 MiB
        for i in range(0, len(L), 512):
            s = slice(i, i + 512)
            np.linalg.cholesky(L[s] + sigma[s, None, None]
                               * c[s, :, None] * c[s, None, :])
    except np.linalg.LinAlgError:
        raise ConfigError("the local velocity form is not positive "
                          "definite for alpha = %g on these cells; raise "
                          "alpha or use less distorted cells"
                          % bs.alpha) from None


def discretize(cfg, m, problem=None):
    """Discretization stage on mesh m: spaces, boundary-flux check,
    assembly, coercivity check and static condensation.  Returns
    (spaces, bs, cs).

    problem defaults to the configured one."""
    sp_ = spaces.build_spaces(m, cfg.degree)
    prob = _problem(cfg) if problem is None else problem
    g = spaces.interpolate_boundary(sp_, prob.boundary_velocity)
    flux = assembly.boundary_flux_per_facet(sp_, g)
    scale = max(np.abs(g).max(), 1.0)
    if flux.size and np.abs(flux).max() > 1e-10 * scale:
        raise ConfigError("boundary datum has nonzero normal flux; "
                          "elimination would break mass conservation")

    bs = assembly.build_block_system(sp_, prob)
    check_coercive(bs)
    # the guard is the only reader of the local forms: dropped, they stay
    # out of the memory peak inside `condense`
    bs.local_form = None
    return sp_, bs, condense.condense(bs)


def krylov_solve(cfg, bs, cs, kind, method, tol):
    """Solve stage: preconditioner `kind` and MINRES or GMRES on the
    condensed system.  Returns the SolverReport (solution in .x)."""
    pc = precond.build_preconditioner(cs, bs.M_p, bs.M_s, kind=kind,
                                      rbar_mode=cfg.rbar, cycles=cfg.cycles)
    opts = {"tol": tol, "maxiter": cfg.maxiter,
            "nullspace": cs.nullspace_vector(), "label": kind}
    if method == "minres":
        return krylov.minres(cs.K, cs.rhs, pc.apply, **opts)
    return krylov.gmres(cs.K, cs.rhs, pc.apply, restart=cfg.restart, **opts)


def solve_once(cfg, m, pc_kind=None, method=None, tol=None):
    """Both stages and the velocity recovery on a given mesh.

    Returns (result dict, fields, condensed system, solver report)."""
    sp_, bs, cs = discretize(cfg, m)
    rep = krylov_solve(cfg, bs, cs, pc_kind or cfg.pc, method or cfg.method,
                       cfg.tol if tol is None else tol)

    ubar, p, pbar = cs.split(rep.x)
    u = condense.recover_velocity(cs, ubar, p, pbar)

    # report pressures with mass-weighted zero mean
    c = spaces.constant_pressure_vector(sp_)
    M = bs.pressure_mass()
    pp = np.concatenate([p, pbar])
    shift = (c @ (M @ pp)) / (c @ (M @ c))
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
    return result, fields, cs, rep


def run_solve(cfg, outdir, save_solution=False):
    os.makedirs(outdir, exist_ok=True)
    (m,) = _mesh_ladder(cfg, cfg.nx, cfg.ny, 1)
    result, fields, _, rep = solve_once(cfg, m)
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        json.dump(result, fh, indent=2)
    if save_solution:
        np.savez(os.path.join(outdir, "solution.npz"), **fields)
    _mesh.write_mesh(m, os.path.join(outdir, "mesh.txt"))
    return 0 if rep.converged else 1


def run_study(cfg, outdir):
    """Iteration counts of all four preconditioners over a refinement
    ladder; one CSV row per level."""
    os.makedirs(outdir, exist_ok=True)
    rows = []
    detail = []
    failed = False
    for level, m in enumerate(_mesh_ladder(cfg, cfg.nx, cfg.ny, cfg.levels)):
        _, bs, cs = discretize(cfg, m)
        row = {"level": level, "cells": m.num_cells, "dofs": cs.size}
        for kind in precond.KINDS:
            rep = krylov_solve(cfg, bs, cs, kind, "minres", cfg.tol)
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
    os.makedirs(outdir, exist_ok=True)
    checks = []

    def record(name, passed, **data):
        checks.append({"name": name, "passed": bool(passed), **data})

    zero = spaces.ProblemSpec(degree=cfg.degree, alpha=cfg.alpha)
    two_cell = discretize(cfg, _mesh.generate(1, 1, cfg.shape, cfg.domain),
                          zero)
    probes = [(m, *discretize(cfg, m, zero))
              for m in _mesh_ladder(cfg, cfg.verify_nx, cfg.verify_nx,
                                    cfg.verify_levels)]
    base = probes[0]

    # condensation identity on a 2-cell mesh and the base mesh
    for label, (_, bs, cs) in (("2cell", two_cell), ("base", base[1:])):
        res = spectra.condensed_schur_identity(bs, cs)
        record("schur_identity_" + label, res <= 1e-9, residual=res)

    # spectra of the full and condensed pressure Schur complements
    full = [spectra.schur_spectrum(bs) for _, _, bs, _ in probes]
    cond = [spectra.element_block_spectrum(cs, bs.M_p, bs.M_s)
            for _, _, bs, cs in probes]

    def drift_ok(seq):
        ok = all(lo > 0 for lo, _ in seq)
        for (l0, u0), (l1, u1) in zip(seq, seq[1:]):
            ok = ok and abs(l1 - l0) < 0.2 * min(l0, l1)
            ok = ok and abs(u1 - u0) < 0.2 * min(u0, u1)
        return ok

    record("schur_spectrum_drift", drift_ok(full), extremes=full)
    record("element_block_spectrum_drift", drift_ok(cond), extremes=cond)

    # coercivity (unconstrained form), on meshes small enough for a
    # dense eigensolver
    def coercivity(sp_, prob):
        raw = assembly.build_block_system(sp_, prob, bcs=False)
        return spectra.coercivity_bounds(raw)

    coer = [coercivity(sp_, zero) for _, sp_, _, _ in probes
            if sp_.n_u + sp_.n_ubar <= 4000]
    record("coercivity_positive", all(lo > 0 for lo, _ in coer),
           bounds=coer, alpha=cfg.alpha)

    # the detector must flag a known-bad stabilization
    weak = spaces.ProblemSpec(degree=cfg.degree, alpha=0.01)
    lo, hi = coercivity(base[1], weak)
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
        r = spectra.trace_form_ratios(cs, cfg.alpha)
        lows.append(r.min())
        highs.append(r.max())
    stable = (max(lows) - min(lows) <= 0.25 * min(lows)
              and max(highs) - min(highs) <= 0.25 * min(highs))
    record("trace_form_bracket_stable", stable, lower=lows, upper=highs)

    # one converged solve: conservation and kernel hygiene
    result, _, _, rep = solve_once(cfg, base[0], pc_kind="PM",
                                   method="minres", tol=1e-10)
    fc = result["field_checks"]
    scale = max(fc["velocity_scale"], 1e-300)
    ok = (rep.converged
          and fc["max_divergence"] <= 1e-8 * scale
          and fc["max_normal_jump"] <= 1e-8 * scale
          and rep.nullspace_residual <= 1e-10)
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
    (m,) = _mesh_ladder(cfg, cfg.nx, cfg.ny, 1)
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

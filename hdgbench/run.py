"""End-to-end and per-layer benchmark of the `hdg-stokes` solver.

Usage (from the root of a checkout):

    python3 hdgbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one `hdgstokes.cli.main` call (`solve` or `verify`
on an INI file generated here from the workload and the seed), run in
a fresh process so that its peak resident set is its own.  Operations
run closed-loop: one at a time, the next one started only after the
previous one has finished and been checked.

`--trace 0` measures the end-to-end metrics.  `--trace 1` runs
untraced and traced operations in turn, reports the per-layer metrics
from the traced ones and checks that both write the same report bytes.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; a results file with
every sample and the provenance of the run goes to `.hdgbench_out/`.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".hdgbench_out")

# A seed kept out of every tuning run, for confirming later claims.
HELD_OUT_SEED = 7919

# An operation must finish inside this, so that a run ends within the
# three minutes it is allowed.
RUN_LIMIT_S = 170.0

# Triangles give pointwise divergence-free velocities with continuous
# normal components, up to the solver residual: at tol = 1e-8 the
# measured maxima are 0.2e-6 to 2.6e-6 times the velocity scale on the
# two triangle workloads.  The gate leaves a 40x margin and still sits
# four orders below a velocity that is not divergence-free (quads reach
# max_divergence = 2.3 at k = 3, so they are not gated on these).
FIELD_CHECK_MULTIPLE = 1e-4

# ROADMAP baseline row: triangle 64x64, k = 2, PM, exact, MINRES.
BASELINE = {"tri-k2-lu": {"dofs": 136320, "iterations": 140}}

SOLVE_WORKLOADS = {
    # name: (mesh, discretization, solver, preconditioner, condensed dofs)
    "tri-k2-lu": (
        {"shape": "triangle", "nx": 64, "ny": 64},
        {"degree": 2, "alpha": 24.0},
        {"method": "minres", "tol": 1e-8, "maxiter": 1000},
        {"kind": "PM", "rbar": "exact"},
        136320),
    "tri-k2-amg": (
        {"shape": "triangle", "nx": 32, "ny": 32},
        {"degree": 2, "alpha": 24.0},
        {"method": "minres", "tol": 1e-8, "maxiter": 1000},
        {"kind": "PM-SGS", "rbar": "multigrid", "cycles": 4},
        34368),
    # alpha is pinned: a change of the default penalty must not change
    # the input of this workload.  The mesh jitter takes the seed.
    "quad-k3-gmres": (
        {"shape": "quadrilateral", "nx": 48, "ny": 48, "jitter": 0.2},
        {"degree": 3, "alpha": 54.0},
        {"method": "gmres", "tol": 1e-8, "maxiter": 1000, "restart": 50},
        {"kind": "PC", "rbar": "exact"},
        77184),
}
VERIFY_CHECKS = 10
WORKLOADS = (*SOLVE_WORKLOADS, "verify")

END_TO_END = {
    "time_to_solution_s": "s", "setup_s": "s", "iterations": "count",
    "peak_rss_mb": "MiB",
}
# `solve_s`, the duration of the Krylov call, is recorded and printed
# for every untraced operation but is not an end-to-end metric: on
# `verify` the call takes 15 to 30 ms, flipping between the two with
# the load of the host, so no bound could hold it there.  Traced runs
# report it per layer as `krylov.solve_s`.

# Per-layer metrics.  Times are summed over every span of that name in
# one operation; `_ms` metrics are the mean per call.
SPAN_TOTALS = {
    "mesh.generate_s": "mesh.generate",
    "spaces.build_spaces_s": "spaces.build_spaces",
    "assembly.build_block_system_s": "assembly.build_block_system",
    "condense.condense_s": "condense.condense",
    "condense.recover_velocity_s": "condense.recover_velocity",
    "precond.setup_s": "precond.build_preconditioner",
    "precond.rbar_setup_s": "precond.OperatorApprox",
    "amg.setup_s": "amg.SmoothedAggregation",
    "krylov.matvec_s": "krylov.matvec",
    "krylov.pc_s": "precond.apply",
    "spectra.field_checks_s": "spectra.field_checks",
    "spectra.schur_spectrum_s": "spectra.schur_spectrum",
    "spectra.element_block_spectrum_s": "spectra.element_block_spectrum",
    "spectra.coercivity_bounds_s": "spectra.coercivity_bounds",
    "spectra.cell_infsup_s": "spectra.cell_infsup",
    "spectra.facet_infsup_s": "spectra.facet_infsup",
    "spectra.trace_form_ratios_s": "spectra.trace_form_ratios",
    "spectra.condensed_schur_identity_s": "spectra.condensed_schur_identity",
}
# spans whose calls are counted, as `<span>_calls`
CALL_SPANS = ("precond.apply", "precond.rbar_apply", "krylov.matvec")
# Every per-layer metric of a traced run, with its unit.
PER_LAYER = dict(
    {name: "s" for name in SPAN_TOTALS},
    **{"precond.apply_calls": "count", "precond.apply_ms": "ms",
       "precond.rbar_apply_calls": "count", "precond.rbar_apply_ms": "ms",
       "krylov.matvec_calls": "count", "krylov.matvecs_per_iteration": "ratio",
       "krylov.solve_s": "s", "krylov.other_s": "s", "cli.self_s": "s",
       "condense.K_nnz": "count", "precond.lu_nnz": "count",
       "precond.lu_fill_ratio": "ratio", "amg.levels": "count",
       "amg.operator_complexity": "ratio", "amg.grid_complexity": "ratio",
       "precond.degraded": "count", "trace.overhead_s": "s"})
SETUP_COUNTS = ("condense.K_nnz", "precond.lu_nnz", "precond.lu_fill_ratio",
                "amg.levels", "amg.operator_complexity",
                "amg.grid_complexity", "precond.degraded")
KRYLOV_SPANS = ("krylov.minres", "krylov.gmres")


def write_ini(workload, seed, path):
    if workload == "verify":
        # the default configuration, written out so that a change of a
        # default does not change this workload's input
        sections = {
            "mesh": {"shape": "triangle", "nx": 8, "ny": 8},
            "discretization": {"degree": 2, "alpha": 24.0},
            "problem": {"kind": "cavity"},
            "solver": {"method": "minres", "tol": 1e-8, "maxiter": 1000},
            "preconditioner": {"kind": "PM", "rbar": "exact"},
            "verify": {"nx": 4, "levels": 3},
        }
    else:
        mesh, disc, solver, pc, _ = SOLVE_WORKLOADS[workload]
        sections = {"mesh": dict(mesh, seed=seed), "discretization": disc,
                    "problem": {"kind": "cavity"}, "solver": solver,
                    "preconditioner": pc}
    with open(path, "w") as fh:
        for name, opts in sections.items():
            fh.write("[%s]\n" % name)
            for key, value in opts.items():
                fh.write("%s = %s\n" % (key, value))
            fh.write("\n")


def blas_threads():
    return len(os.sched_getaffinity(0))


def run_operation(workload, ini, opdir, trace, limit):
    """One operation in a fresh process; returns (result, report path)."""
    os.makedirs(opdir)
    command = "verify" if workload == "verify" else "solve"
    spec = {"src": SRC, "command": command, "ini": ini,
            "out": os.path.join(opdir, "out"),
            "result": os.path.join(opdir, "result.json"), "trace": trace}
    spec_path = os.path.join(opdir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(blas_threads())
    env.pop("PYTHONPATH", None)
    with open(os.path.join(opdir, "stdout.txt"), "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=opdir,
                timeout=limit)
        except subprocess.TimeoutExpired:
            return None, None
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        return None, None
    with open(spec["result"]) as fh:
        result = json.load(fh)
    report = "verify.json" if command == "verify" else "report.json"
    return result, os.path.join(spec["out"], report)


def gate(workload, result, report_path):
    """Correctness checks of one operation; returns a list of failures."""
    if result is None:
        return ["worker failed or timed out"]
    problems = []
    if result["exit_code"] != 0:
        problems.append("exit code %r" % result["exit_code"])
    try:
        with open(report_path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return problems + ["unreadable report: %s" % exc]
    check = verify_problems if workload == "verify" else solve_problems
    try:
        return problems + check(workload, result, report)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        return problems + ["malformed report: %r" % exc]


def verify_problems(workload, result, report):
    problems = []
    checks = report["checks"]
    if report["passed"] is not True:
        problems.append("verify.json does not say passed")
    if len(checks) != VERIFY_CHECKS or not all(c["passed"] for c in checks):
        problems.append("verify.json has %d checks, %d passing; expected %d"
                        % (len(checks), sum(bool(c["passed"]) for c in checks),
                           VERIFY_CHECKS))
    return problems


def solve_problems(workload, result, report):
    problems = []
    solver = report["solver"]
    if not solver["converged"]:
        problems.append("solver did not converge")
    if not solver["residuals"] or solver["residuals"][-1] > solver["tol"]:
        problems.append("final residual above tol")
    dofs = SOLVE_WORKLOADS[workload][4]
    if report["dofs"]["condensed"] != dofs:
        problems.append("%d condensed unknowns, expected %d"
                        % (report["dofs"]["condensed"], dofs))
    if solver["iterations"] != result["stats"].get("iterations"):
        problems.append("report and solver disagree on iterations")
    if SOLVE_WORKLOADS[workload][0]["shape"] == "triangle":
        fc = report["field_checks"]
        limit = FIELD_CHECK_MULTIPLE * fc["velocity_scale"]
        for key in ("max_divergence", "max_normal_jump"):
            if not fc[key] <= limit:
                problems.append("%s %.3g above %.3g" % (key, fc[key], limit))
    return problems


def span_metrics(spans):
    """Per-layer metrics of one traced operation, with a check that the
    self times of all spans add up to the root span."""
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    selfs = [d - c for d, c in zip(dur, child)]
    by_name = {}
    for (name, _, _, _), d, s in zip(spans, dur, selfs):
        tot = by_name.setdefault(name, [0, 0.0, 0.0])
        tot[0] += 1
        tot[1] += d
        tot[2] += s
    get = lambda name, k: by_name.get(name, (0, 0.0, 0.0))[k]

    m = {metric: get(name, 1) for metric, name in SPAN_TOTALS.items()}
    for name in CALL_SPANS:
        m[name + "_calls"] = get(name, 0)
    for name in ("precond.apply", "precond.rbar_apply"):
        calls = get(name, 0)
        m[name + "_ms"] = 1e3 * get(name, 1) / calls if calls else 0.0
    m["krylov.solve_s"] = sum(get(name, 1) for name in KRYLOV_SPANS)
    m["krylov.other_s"] = sum(get(name, 2) for name in KRYLOV_SPANS)
    root = 0  # cli.main, which encloses every other span
    m["cli.self_s"] = selfs[root]
    m["time_to_solution_s"] = dur[root]
    m["unaccounted_s"] = dur[root] - sum(selfs)
    return m, {name: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
               for name, v in by_name.items()}


def tail_percentile(samples):
    """Highest of the usual percentiles with at least ten samples beyond
    it, as (percentile, value), or None when there are too few."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return p, cuts[int(round(p * 10)) - 1]
    return None


def provenance():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"git_commit": commit, "nproc": os.cpu_count(),
            "blas_threads": blas_threads(),
            "held_out_seed": HELD_OUT_SEED}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # exit through SystemExit, so that a running worker is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "hdgstokes", "cli.py")):
        print("no hdgstokes source tree at %s" % SRC, file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    run_id = "%s-s%d-t%d-%d" % (args.workload, args.seed, args.trace,
                                os.getpid())
    rundir = os.path.join(OUT, "runs", run_id)
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    ini = os.path.join(rundir, "run.ini")
    write_ini(args.workload, args.seed, ini)

    ops = []          # one dict per operation
    self_check = []   # failures of the benchmark's own consistency checks
    reports = {}      # traced flag -> report bytes of the first such op
    op_walls = []
    while True:
        elapsed = time.perf_counter() - t_start
        mean_op = statistics.fmean(op_walls) if op_walls else 0.0
        if args.trace:
            # untraced and traced operations in turn, in whole pairs
            traced = len(ops) % 2 == 1
            done = len(ops) >= 2 and not traced
        else:
            traced, done = False, len(ops) >= 1
        if done and elapsed + mean_op * (1 + args.trace) > args.seconds:
            break
        limit = RUN_LIMIT_S - elapsed
        if limit <= 0:
            self_check.append("run limit reached")
            break
        opdir = os.path.join(rundir, "op%03d" % len(ops))
        t0 = time.perf_counter()
        result, report_path = run_operation(args.workload, ini, opdir,
                                            traced, limit)
        op_walls.append(time.perf_counter() - t0)
        problems = gate(args.workload, result, report_path)
        op = {"traced": traced, "problems": problems, "result": result}
        if result is not None and "spans" in result:
            op["layers"], op["spans"] = span_metrics(result.pop("spans"))
        if not problems and traced not in reports:
            with open(report_path, "rb") as fh:
                reports[traced] = fh.read()
        ops.append(op)
        shutil.rmtree(opdir, ignore_errors=True)
        if result is None:
            break

    good = [op for op in ops if not op["problems"]]
    failed = len(ops) - len(good)

    # exact counts must repeat between operations of one code and seed
    seen_counts = {}
    for op in good:
        counts = {key: op["result"]["stats"].get(key)
                  for key in ("dofs", "iterations", *SETUP_COUNTS)}
        if "layers" in op:
            counts.update((key, op["layers"][key]) for key in (
                "krylov.matvec_calls", "precond.apply_calls",
                "precond.rbar_apply_calls"))
            if abs(op["layers"]["unaccounted_s"]) > 1e-6:
                self_check.append("span self times do not add up")
        for key, value in counts.items():
            if seen_counts.setdefault(key, value) != value:
                self_check.append("%s differs between operations" % key)
    if args.trace and len(reports) == 2 and reports[True] != reports[False]:
        self_check.append("traced and untraced reports differ")
    if args.trace and len(reports) != 2:
        self_check.append("no traced/untraced pair to compare")
    baseline = BASELINE.get(args.workload)
    crosscheck = None
    if baseline and good:
        stats = good[0]["result"]["stats"]
        crosscheck = {k: {"expected": v, "measured": stats.get(k)}
                      for k, v in baseline.items()}
        for k, v in crosscheck.items():
            if v["expected"] != v["measured"]:
                print("note: %s %s differs from the ROADMAP baseline %s"
                      % (args.workload, k, v["expected"]), file=sys.stderr)

    samples = {}
    for op in good:
        if op["traced"]:
            continue
        r = op["result"]
        for name in (*END_TO_END, "solve_s"):
            value = r["stats"]["iterations"] if name == "iterations" \
                else r.get(name)
            if value is not None:
                samples.setdefault(name, []).append(value)

    if args.trace:
        traced_ops = [op for op in good if op["traced"]]
        values = {}
        for name in PER_LAYER:
            if traced_ops and name in traced_ops[0]["layers"]:
                values[name] = statistics.median(
                    op["layers"][name] for op in traced_ops)
        values.update((key, seen_counts.get(key)) for key in SETUP_COUNTS)
        if traced_ops and seen_counts.get("iterations"):
            values["krylov.matvecs_per_iteration"] = (
                values["krylov.matvec_calls"] / seen_counts["iterations"])
        if traced_ops and samples.get("time_to_solution_s"):
            values["trace.overhead_s"] = (
                statistics.median(op["layers"]["time_to_solution_s"]
                                  for op in traced_ops)
                - statistics.median(samples["time_to_solution_s"]))
        units = PER_LAYER
    else:
        values = {name: statistics.median(v) for name, v in samples.items()}
        units = END_TO_END
    metrics = {name: values[name] for name in units
               if values.get(name) is not None}
    missing = [name for name in units if name not in metrics]
    if missing:
        self_check.append("no value for " + ", ".join(missing))

    correct = not failed and not self_check
    summary = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": dict(provenance(), **(good[0]["result"]["versions"]
                                            if good else {})),
        "samples": samples,
        "sample_count": len(samples.get("time_to_solution_s", [])),
        "time_to_solution_tail": tail_percentile(
            samples.get("time_to_solution_s", [])),
        "baseline_crosscheck": crosscheck,
        "self_check": self_check,
        "operations": [{"traced": op["traced"], "problems": op["problems"],
                        "stats": (op["result"] or {}).get("stats"),
                        "layers": op.get("layers"),
                        "spans": op.get("spans")} for op in ops],
        "metrics": metrics,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", run_id + ".json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    shutil.rmtree(rundir, ignore_errors=True)

    for op in ops:
        for problem in op["problems"]:
            print("FAILED operation: %s" % problem, file=sys.stderr)
    for problem in self_check:
        print("FAILED self-check: %s" % problem, file=sys.stderr)
    print("workload %s seed %d: %d operations, %d failed, %d samples"
          % (args.workload, args.seed, len(ops), failed,
             summary["sample_count"]))
    tail = summary["time_to_solution_tail"]
    print("time_to_solution_s tail: %s" % (
        "p%g = %.4f s" % tail if tail else
        "no percentile has 10 samples beyond it"))
    for name, value in metrics.items():
        print("%-36s %14.6g %s" % (name, value, units[name]))
    if samples.get("solve_s"):
        print("%-36s %14.6g s (recorded, no bound)"
              % ("solve_s", statistics.median(samples["solve_s"])))
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

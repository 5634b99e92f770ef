"""Run one `hdg-stokes` operation in a fresh process and record it.

Usage: python3 worker.py SPEC.json

SPEC names the source tree, the subcommand, the INI file, the output
directory, the result file and whether to trace.  The worker imports
`hdgstokes` from that source tree only, calls `hdgstokes.cli.main`
once and writes a JSON result: exit code, wall times, the setup
statistics read from the objects the operation built, the peak
resident set of this process and, when tracing, every span.

Untraced, the only hook is around the Krylov call (one timestamp on
entry and one on exit).  Traced, module attributes are wrapped so that
each call into a layer opens a span; spans are kept in memory and
written once at the end.  Neither hook changes an argument's value,
so the operation's reports are the same bytes either way.
"""

import json
import os
import resource
import sys
import time

# Functions wrapped by the traced run, by module.  Their callers look
# each of them up as a module attribute at call time, so replacing the
# attribute is enough to see every call.
TRACED = {
    "mesh": ("generate",),
    "spaces": ("build_spaces",),
    "assembly": ("build_block_system",),
    "condense": ("condense", "recover_velocity"),
    "precond": ("OperatorApprox", "SmoothedAggregation"),
    "spectra": ("condensed_schur_identity", "schur_spectrum",
                "element_block_spectrum", "coercivity_bounds",
                "cell_infsup", "facet_infsup", "trace_form_ratios",
                "field_checks"),
}
# precond.SmoothedAggregation is the name OperatorApprox calls; its
# span is reported under the module that defines it.
SPAN_NAMES = {"precond.SmoothedAggregation": "amg.SmoothedAggregation"}
KRYLOV = ("minres", "gmres")


class Tracer:
    """Span recorder: each span is [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[i][2] = clock()
                stack.pop()
        return traced


def import_package(src):
    """Import hdgstokes from `src` only; refuse any other copy."""
    sys.path.insert(0, src)
    import hdgstokes
    where = os.path.realpath(os.path.dirname(hdgstokes.__file__))
    if os.path.dirname(where) != os.path.realpath(src):
        raise ImportError("hdgstokes imported from %s, not from %s"
                          % (where, src))
    from hdgstokes import cli
    return cli


def install(tracer, seen):
    """Hook the Krylov boundary, and every layer when `tracer` is set.

    `seen` receives the Krylov entry/exit times and the objects the
    statistics are read from after the operation.  The hooks stay in
    place: the process runs one operation and exits."""
    module = lambda name: sys.modules["hdgstokes." + name]
    krylov, precond = module("krylov"), module("precond")
    wrap = tracer.wrap if tracer else None

    def boundary(name, orig):
        def call(A, b, pc=None, *args, **kwargs):
            seen.setdefault("krylov_enter", time.perf_counter())
            seen.setdefault("K", A)
            seen.setdefault("pc", getattr(pc, "__self__", None))
            if tracer:
                A = wrap(lambda x, K=A: K @ x, "krylov.matvec")
            rep = orig(A, b, pc, *args, **kwargs)
            seen.setdefault("krylov_exit", time.perf_counter())
            seen.setdefault("report", rep)
            return rep
        return wrap(call, "krylov." + name) if tracer else call

    for name in KRYLOV:
        setattr(krylov, name, boundary(name, getattr(krylov, name)))
    if not tracer:
        return

    for mod_name, attrs in TRACED.items():
        mod = module(mod_name)
        for attr in attrs:
            key = mod_name + "." + attr
            setattr(mod, attr,
                    wrap(getattr(mod, attr), SPAN_NAMES.get(key, key)))

    build = precond.build_preconditioner

    def build_traced(*args, **kwargs):
        pc = build(*args, **kwargs)
        seen.setdefault("pc", pc)
        # instance attributes shadow the methods for this object only
        pc.rbar.apply = wrap(pc.rbar.apply, "precond.rbar_apply")
        pc.apply = wrap(pc.apply, "precond.apply")
        return pc
    precond.build_preconditioner = wrap(build_traced,
                                        "precond.build_preconditioner")


def setup_stats(seen):
    """Exact counts read from the built objects, after the operation."""
    stats = {}
    K = seen.get("K")
    if K is not None:
        stats["condense.K_nnz"] = int(K.nnz)
        stats["dofs"] = int(K.shape[0])
    rep = seen.get("report")
    if rep is not None:
        stats["iterations"] = int(rep.iterations)
    pc = seen.get("pc")
    if pc is None:
        return stats
    rbar = pc.rbar
    lu_nnz = int(rbar.lu.nnz) if rbar.mode == "exact" else 0
    stats["precond.lu_nnz"] = lu_nnz
    stats["precond.lu_fill_ratio"] = lu_nnz / pc.cs.Abar.nnz
    stats["precond.degraded"] = int(rbar.degraded)
    levels = rbar.amg.levels if rbar.amg is not None else []
    stats["amg.levels"] = len(levels)
    if levels:
        stats["amg.operator_complexity"] = (
            sum(lv.A.nnz for lv in levels) / levels[0].A.nnz)
        stats["amg.grid_complexity"] = (
            sum(lv.A.shape[0] for lv in levels) / levels[0].A.shape[0])
    else:
        stats["amg.operator_complexity"] = 0.0
        stats["amg.grid_complexity"] = 0.0
    return stats


def versions():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version"))}


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    try:
        cli = import_package(spec["src"])
    except ImportError as exc:
        print("cannot import hdgstokes: %s" % exc, file=sys.stderr)
        return 3
    tracer = Tracer() if spec["trace"] else None
    seen = {}
    install(tracer, seen)
    argv = [spec["command"], "--config", spec["ini"], "--out", spec["out"]]
    main_fn = tracer.wrap(cli.main, "cli.main") if tracer else cli.main
    t0 = time.perf_counter()
    code = main_fn(argv)
    t1 = time.perf_counter()

    result = {
        "exit_code": code,
        "time_to_solution_s": t1 - t0,
        "stats": setup_stats(seen),
        "versions": versions(),
    }
    if "krylov_enter" in seen:
        result["setup_s"] = seen["krylov_enter"] - t0
        result["solve_s"] = seen["krylov_exit"] - seen["krylov_enter"]
    if tracer:
        result["spans"] = tracer.spans
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

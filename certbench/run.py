"""Certification benchmark for conecert: end-to-end and traced per-layer runs.

Run from the repository root:

    python3 certbench/run.py --workload grid --seed 0 --seconds 20 --trace 0

Workloads (closed loop: one caller, the next input goes in when the
previous call returns):

  grid        certify_exposed over the acceptance-grid class mix:
              (n, m) in {2,3,4}^2, every rank, both flags
  scale       certify_exposed on full-rank square A, n = m in {4, 5, 6}
  positivity  is_positive with default SearchParams on CP, ad, ad o T,
              omega_q and planted non-positive maps

--trace 0 measures the end-to-end metrics with no tracing.  --trace 1 runs
the same inputs untraced and then traced, checks that both give identical
results, and reports the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

import os
import sys

# One BLAS thread: the certificate's matrices are small, and a single thread
# keeps timings steady on a shared 2-core machine.  Must be set before numpy
# is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from refclock import ReferenceClock  # noqa: E402
from tracing import BINDINGS, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
BASELINE = BENCH_DIR / "baseline.json"

# Seconds of calls one pass takes at reference speed at the baseline commit
# (one BLAS thread, numpy backend).  A run measures ceil(seconds / pass_s)
# whole passes, so its input list depends only on --seed and --seconds: the
# parent and the child of a change measure the same inputs, and the tail is
# taken at the same percentile on both.
PASS_SECONDS = {"grid": 9.3, "scale": 5.0, "positivity": 0.83}
TRACED_LAYERS = {name for _, _, name in BINDINGS}
SETUP_REPEATS = 7
SETUP_A = np.array([[1.0, 0.5j], [0.25, 1.0]])
TAIL_BEYOND = 10

END_TO_END = ("ops_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb")
UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _calls(name):
    return "count", "lower", lambda t: t.calls(name)


def _self(name, parent_kind=None):
    return "s", "lower", lambda t: t.self_s(name, parent_kind)


def _count(key):
    return "count", "lower", lambda t: t.counts[key]


def _ratio(num, den, better):
    return "ratio", better, lambda t: t.counts[num] / t.counts[den] if t.counts[den] else 0.0


# metric name -> (unit, better, value from the tracer); the layer a metric
# belongs to is its name up to the second dot
PER_LAYER = {
    "faces._pairs_from_etas.calls": _calls("faces._pairs_from_etas"),
    "faces._pairs_from_etas.self_s": _self("faces._pairs_from_etas"),
    "faces.pairs_used": ("count", "lower", None),
    "faces.assemble_constraints.calls": _calls("faces.assemble_constraints"),
    "faces.assemble_constraints.self_s": _self("faces.assemble_constraints"),
    "faces.assemble_constraints.rows": _count("faces.assemble_constraints.rows"),
    "faces._narrow.calls": _calls("faces._narrow"),
    "faces._narrow.self_s": _self("faces._narrow"),
    "faces.double_prime_nullspace.calls": _calls("faces.double_prime_nullspace"),
    "faces.double_prime_nullspace.self_s": _self("faces.double_prime_nullspace"),
    "linalg.null_space.calls": _calls("linalg.null_space"),
    "linalg.null_space.narrow.self_s": _self("linalg.null_space", "narrow"),
    "linalg.null_space.final.self_s": _self("linalg.null_space", "final"),
    "linalg.null_space.pairs.self_s": _self("linalg.null_space", "pairs"),
    "linalg.null_space.elems": _count("linalg.null_space.elems"),
    "linalg.params_to_herm.calls": _calls("linalg.params_to_herm"),
    "linalg.params_to_herm.self_s": _self("linalg.params_to_herm"),
    "exposedness.membership_residual.calls": _calls("exposedness.membership_residual"),
    "exposedness.membership_residual.self_s": _self("exposedness.membership_residual"),
    "exposedness.cone_fallback.calls": _calls("exposedness.cone_fallback"),
    "exposedness.cone_fallback.self_s": _self("exposedness.cone_fallback"),
    "exposedness.cone_fallback.points": _count("exposedness.cone_fallback.points"),
    "exposedness.cone_fallback.violation_ratio": _ratio(
        "exposedness.cone_fallback.violations", "exposedness.cone_fallback.points", "higher"
    ),
    "maps.informed_starts.calls": _calls("maps.informed_starts"),
    "maps.informed_starts.self_s": _self("maps.informed_starts"),
    "kernels.block_minimize.calls": _calls("kernels.block_minimize"),
    "kernels.block_minimize.self_s": _self("kernels.block_minimize"),
    "kernels.block_minimize.restarts_offered": _count("kernels.block_minimize.restarts_offered"),
    "kernels.block_minimize.restarts_used": _count("kernels.block_minimize.restarts_used"),
    "kernels.block_minimize.used_ratio": _ratio(
        "kernels.block_minimize.restarts_used", "kernels.block_minimize.restarts_offered", "lower"
    ),
    "maps.is_positive.self_s": _self("maps.is_positive"),
    "exposedness.certify_exposed.self_s": _self("exposedness.certify_exposed"),
    "trace.overhead_frac": ("ratio", "lower", None),
    "trace.absent_bindings": ("count", "lower", lambda t: len(t.absent)),
}


def load_conecert():
    """Import conecert from this checkout's src/, never from elsewhere."""
    if not (SRC_DIR / "conecert" / "__init__.py").is_file():
        sys.exit(f"certbench: no conecert sources under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    pkg = importlib.import_module("conecert")
    if Path(pkg.__file__).resolve().parent != SRC_DIR / "conecert":
        sys.exit(f"certbench: imported conecert from {pkg.__file__}, not {SRC_DIR}")
    return pkg


def first_call(pkg, workload):
    if workload == "positivity":
        pkg.is_positive(pkg.MapRep(2, 2, wl.ad_choi(SETUP_A, False)))
    else:
        pkg.certify_exposed(SETUP_A)


def measure_setup(workload, clock):
    """Median reference seconds to import conecert afresh and make a first call.

    numpy is imported already; each repeat drops every conecert module so the
    import and any lazy set-up on the first call run again.
    """
    times = []
    clock.tick()
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "conecert" or n.startswith("conecert.")]:
            del sys.modules[name]
        before = len(clock.slices) - 1
        t0 = time.perf_counter()
        pkg = importlib.import_module("conecert")
        first_call(pkg, workload)
        elapsed = time.perf_counter() - t0
        clock.tick()
        times.append(clock.scale(elapsed, before))
    return statistics.median(times), pkg


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        kernels = importlib.import_module("conecert._kernels")
        backend = kernels.resolve_backend()
    except (ImportError, AttributeError):
        backend = "absent"
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "backend": backend,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def env_versus_baseline(env):
    if not BASELINE.is_file():
        return "no recorded baseline to compare with"
    recorded = json.loads(BASELINE.read_text())["env"]
    differs = sorted(k for k in set(env) | set(recorded) if env.get(k) != recorded.get(k))
    if not differs:
        return "environment matches the recorded baseline"
    detail = ", ".join(f"{k}: {recorded.get(k)!r} -> {env.get(k)!r}" for k in differs)
    return f"WARNING environment differs from the recorded baseline ({detail}); not comparable"


def build_inputs(workload, seed, passes):
    cases = []
    for k in range(passes):
        rng = wl.pass_rng(workload, seed, k)
        if workload == "grid":
            cases += wl.grid_pass(rng)
        elif workload == "scale":
            cases += wl.scale_pass(rng, k)
        else:
            cases += wl.positivity_pass(rng)
    return cases


def make_op(pkg, workload):
    """The call under test, its root span name, its oracle and its result key."""
    if workload == "positivity":
        def op(case):
            return pkg.is_positive(pkg.MapRep(case.n, case.m, case.choi))

        def key(res):
            return (res.positive, res.min_value, res.xi.tobytes(), res.eta.tobytes(),
                    res.restarts_used)

        return op, "maps.is_positive", wl.check_positivity, key

    report_to_dict = importlib.import_module("conecert.serialization").report_to_dict

    def op(case):
        return pkg.certify_exposed(case.a, transposed=case.transposed)

    def key(report):
        return report_to_dict(report, include_timing=False)

    return op, "exposedness.certify_exposed", wl.check_certificate, key


def run_cases(cases, op, check, errors, clock, tracer=None, root=None):
    """Closed loop over the cases.

    Returns per-input latencies at reference speed, the measured wall-clock
    latencies, outputs (None where the call raised) and failures as
    {input index: reason}, all in seconds.  Oracles and reference slices run
    outside the timed calls.
    """
    measured, befores, outputs, failures = [], [], [], {}
    gc.collect()
    clock.tick()
    for i, case in enumerate(cases):
        befores.append(len(clock.slices) - 1)
        t0 = time.perf_counter()
        try:
            out = op(case) if tracer is None else tracer.call(root, op, case)
        except errors as exc:
            out = None
            failures[i] = f"raised {type(exc).__name__}: {exc}"
        measured.append(time.perf_counter() - t0)
        outputs.append(out)
        if out is not None:
            problem = check(case, out)
            if problem is not None:
                failures[i] = problem
        clock.maybe_tick()
    clock.tick()
    latencies = [clock.scale(t, b) for t, b in zip(measured, befores)]
    return latencies, measured, outputs, failures


def tail_percentile(count):
    """Highest whole percentile with at least TAIL_BEYOND samples above it."""
    for p in range(99, -1, -1):
        index = p / 100 * (count - 1)  # numpy's linear interpolation
        if count - 1 - int(index) >= TAIL_BEYOND:
            return p
    return 100


def band_not_certified(pkg):
    cases = wl.band_cases()
    verdicts = [pkg.certify_exposed(c.a, transposed=c.transposed).verdict.value for c in cases]
    return sum(v == "NOT_CERTIFIED" for v in verdicts), len(cases)


def emit(name, value, unit, note=""):
    print(f"metric {name} {value!r} {unit}{'  ' + note if note else ''}")


def latency_metrics(lat):
    lat_ms = np.array(lat) * 1000.0
    p = tail_percentile(len(lat_ms))
    return {
        "ops_per_s": len(lat_ms) / float(np.sum(lat)),
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "latency_tail_ms": float(np.percentile(lat_ms, p)),
    }, p


def end_to_end(workload, pkg, cases, setup_s, clock):
    op, _, check, _ = make_op(pkg, workload)
    errors = (pkg.ConecertError, np.linalg.LinAlgError)
    lat, measured, _, failures = run_cases(cases, op, check, errors, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics, p = latency_metrics(lat)
    metrics.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    beyond = int(np.sum(np.array(lat) * 1000.0 > metrics["latency_tail_ms"]))
    print(f"machine speed {clock.speed()!r} of reference ({len(clock.slices)} reference slices)")
    for name, value in latency_metrics(measured)[0].items():
        print(f"measured {name} {value!r} {UNITS[name]}  (wall clock, before the speed scaling)")
    for name in END_TO_END:
        note = f"(p{p} of {len(lat)} samples, {beyond} beyond)" if name == "latency_tail_ms" else ""
        emit(name, metrics[name], UNITS[name], note)
    if workload == "scale":
        for n in (4, 5, 6):
            sel = [t * 1000.0 for t, c in zip(lat, cases) if c.label == f"n{n}"]
            emit(f"latency_p50_ms.n{n}", float(np.median(sel)), "ms", f"({len(sel)} samples)")
    emit("fail_frac", len(failures) / len(cases), "ratio", f"({len(failures)} of {len(cases)})")
    if workload == "grid":
        count, total = band_not_certified(pkg)
        emit("band_not_certified", count, "count",
             f"(of {total}: 3x3 U diag(1, s2, 0) V*, s2 in logspace(-12, -2, 11), both flags)")
    return metrics, failures


def per_layer(workload, pkg, cases, clock):
    op, root, check, key = make_op(pkg, workload)
    errors = (pkg.ConecertError, np.linalg.LinAlgError)
    lat_plain, _, out_plain, failures = run_cases(cases, op, check, errors, clock)
    tracer = Tracer()
    tracer.install()
    try:
        lat_traced, _, out_traced, traced_failures = run_cases(
            cases, op, check, errors, clock, tracer, root
        )
    finally:
        tracer.uninstall()
    failures.update(traced_failures)
    for i, (a, b) in enumerate(zip(out_plain, out_traced)):
        if a is not None and b is not None and key(a) != key(b):
            failures[i] = "traced result differs from untraced"

    metrics = {}
    for name, (unit, _, value) in PER_LAYER.items():
        if name == "faces.pairs_used":
            v = sum(int(r.nullspace.pairs_used) for r in out_traced
                    if r is not None and hasattr(r, "nullspace"))
        elif name == "trace.overhead_frac":
            v = float(np.sum(lat_traced)) / float(np.sum(lat_plain)) - 1.0
        else:
            v = value(tracer)
        metrics[name] = float(v)
        layer = ".".join(name.split(".")[:2])
        absent = layer in TRACED_LAYERS and layer not in tracer.installed
        emit(name, metrics[name], unit, "(absent at this commit)" if absent else "")
    for binding in tracer.absent:
        print(f"absent binding {binding}")
    for counter in sorted(tracer.broken):
        print(f"counter unavailable {counter} (argument or result shape changed)")
    for (parent, name), (calls, total, own) in sorted(tracer.edges.items(), key=lambda e: -e[1][1]):
        print(f"span {parent or '-'} > {name} calls={calls} total_s={total:.6f} self_s={own:.6f}")
    return metrics, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    load_conecert()
    clock = ReferenceClock()
    setup_s, pkg = measure_setup(args.workload, clock)
    env = environment()
    passes = max(1, math.ceil(args.seconds / PASS_SECONDS[args.workload]))
    if args.trace:
        passes = max(1, passes // 2)  # the same inputs run twice: untraced, then traced
    cases = build_inputs(args.workload, args.seed, passes)
    print(f"certbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={passes} inputs={len(cases)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(env_versus_baseline(env))

    if args.trace:
        metrics, failures = per_layer(args.workload, pkg, cases, clock)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        metrics, failures = end_to_end(args.workload, pkg, cases, setup_s, clock)
        units = UNITS
    for i, reason in sorted(failures.items()):
        print(f"FAIL input {i} {cases[i].label}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(cases),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()

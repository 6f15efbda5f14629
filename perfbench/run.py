"""The qminor benchmark: one workload, closed loop, cold caches.

    python3 perfbench/run.py --workload scan|basis|gram --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
All of qminor's caches are module globals, so each timed run is a fresh
interpreter (worker.py) and runs start one after another until --seconds
is used up: one client, one single-threaded process, the next call
starting when the previous one returns.  --trace 0 reports the end-to-end
metrics as medians over those runs, and the call latency percentiles
over the calls of all of them.  --trace 1 alternates untraced and
traced runs and reports the per-layer metrics of the traced ones.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_RUNS = 3            # untraced runs per measurement, whatever --seconds
RUN_LIMIT_S = 150       # start no run that would end after this
CHILD_TIMEOUT_S = 170

END_TO_END = (("wall_s", "s"), ("items_per_s", "1/s"),
              ("call_p50_ms", "ms"), ("call_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def per_layer_units():
    """The per-layer metric names, in report order, with their units."""
    out = []
    for name in tracing.SPANS:
        out += [(name + ".calls", "count"), (name + ".incl_s", "s"),
                (name + ".self_s", "s")]
    out += [(layer + ".errors", "count") for layer in tracing.LAYERS]
    out.append(("scalars.laurent_gcd.trivial_ratio", "ratio"))
    out += [(name + ".reuse_ratio", "ratio") for name in tracing.REUSE]
    out.append(("canonical.dual_product.per_pair", "calls/pair"))
    out.append(("trace_overhead_ratio", "ratio"))
    return out


def run_child(inputs, traced):
    """One cold run; returns the worker's result with setup_s added, or
    None if the worker failed."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(inputs),
           "1" if traced else "0"]
    t_launch = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=str(ROOT), text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: worker timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: worker failed (exit %d)\n%s"
              % (proc.returncode, proc.stderr[-2000:]), file=sys.stderr)
        return None
    res = json.loads(lines[-1])
    res["setup_s"] = res["t_first"] - t_launch
    return res


def repeat(seconds, run_once, minimum):
    """Call run_once until the next call would overrun `seconds` (after at
    least `minimum` calls) or RUN_LIMIT_S; stop at the first failure."""
    results = []
    start = time.monotonic()
    while True:
        res = run_once()
        if res is None:
            return results, False
        results.append(res)
        elapsed = time.monotonic() - start
        step = elapsed / len(results)
        if elapsed + step > RUN_LIMIT_S:
            break
        if len(results) >= minimum and elapsed + step > seconds:
            break
    return results, True


def _pair(untraced, traced):
    if untraced is None or traced is None:
        return None
    return untraced, traced


def call_percentiles(latencies):
    ms = [1e3 * x for x in latencies]
    if len(ms) < 2:
        return ms[0], ms[0]
    return (statistics.median(ms),
            statistics.quantiles(ms, n=10, method="inclusive")[8])


def end_to_end(runs):
    """Medians over the runs; the call percentiles are taken over the
    calls of all runs together, which is steadier than a median of
    per-run percentiles."""
    walls = [r["wall_s"] for r in runs]
    wall = statistics.median(walls)
    p50, p90 = call_percentiles(
        [x for r in runs for x in r["latencies_s"]])
    return {
        "wall_s": wall,
        "items_per_s": statistics.median(
            r["items_completed"] for r in runs) / wall,
        "call_p50_ms": p50,
        "call_p90_ms": p90,
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def layer_metrics(traced, untraced):
    """Per-layer metrics: medians over the traced runs."""
    def med(fn):
        return statistics.median(fn(r["trace"], r) for r in traced)

    out = {}
    for name in tracing.SPANS:
        for i, suffix in enumerate(("calls", "incl_s", "self_s")):
            out["%s.%s" % (name, suffix)] = med(
                lambda t, r, name=name, i=i: t["spans"][name][i])
    for layer in tracing.LAYERS:
        out[layer + ".errors"] = med(lambda t, r, l=layer: t["errors"][l])
    out["scalars.laurent_gcd.trivial_ratio"] = med(
        lambda t, r: _ratio(t["gcd_trivial"],
                            t["spans"]["scalars.laurent_gcd"][0]))
    for name in tracing.REUSE:
        out[name + ".reuse_ratio"] = med(
            lambda t, r, name=name: 1.0 - _ratio(t["distinct_args"][name],
                                                 t["spans"][name][0])
            if t["spans"][name][0] else 0.0)
    out["canonical.dual_product.per_pair"] = med(
        lambda t, r: _ratio(t["spans"]["canonical.dual_product"][0],
                            r["pairs_scanned"]))
    out["trace_overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced) - 1.0)
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def layer_shares(traced):
    """Informational: each layer's self time as a share of the traced
    wall time (the rest is benchmark loop and unwrapped code)."""
    run = min(traced, key=lambda r: r["wall_s"])
    shares = dict.fromkeys(tracing.LAYERS, 0.0)
    for name, (_, _, self_s) in run["trace"]["spans"].items():
        shares[name.split(".", 1)[0]] += self_s / run["wall_s"]
    return {k: round(v, 4) for k, v in shares.items()}


def src_line_count():
    return sum(len(p.read_text().splitlines())
               for p in sorted(SRC.rglob("*.py")))


def machine():
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg())}


def print_metrics(metrics, units, runs, calls=None):
    """One line per metric with its sample count: the runs, or for the
    call percentiles the calls of all runs."""
    for name, unit in units:
        n = calls if calls and name.startswith("call_") else runs
        print("  %-44s %14.6g %-10s (n=%d)" % (name, metrics[name], unit, n))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("scan", "basis", "gram"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qminor" / "__init__.py").is_file():
        print("perfbench: no qminor package under %s; run from the root "
              "of a checkout" % SRC, file=sys.stderr)
        return 2
    # Write bytecode once, as an installed package has it, so that setup_s
    # does not include compiling qminor in every run.
    for tree in (SRC, HERE):
        compileall.compile_dir(str(tree), quiet=1)
    sys.path.insert(0, str(SRC))
    import workloads

    info = {"machine_before": machine(), "src_lines": src_line_count(),
            "workload": args.workload, "seed": args.seed}
    inputs = workloads.inputs_for(args.workload, args.seed)
    items = workloads.items_for(inputs)
    info["entry_point_calls"] = len(items)
    info["items"] = sum(it.size for it in items)
    pinned = (workloads.DIGESTS[args.workload]
              if args.seed == workloads.DEFAULT_SEED else None)

    if args.trace:
        pairs, finished = repeat(
            args.seconds,
            lambda: _pair(run_child(inputs, False), run_child(inputs, True)),
            1)
        untraced = [p[0] for p in pairs]
        traced = [p[1] for p in pairs]
    else:
        untraced, finished = repeat(
            args.seconds,
            lambda: run_child(inputs, False), MIN_RUNS)
        traced = []
    runs = untraced + traced
    digests = {r["digest"] for r in runs}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if not finished:            # a worker crashed: its items all failed
        attempted += info["items"]
        failed += info["items"]
    correct = (finished and failed == 0 and attempted > 0
               and len(digests) == 1
               and (pinned is None or digests == {pinned}))
    info["runs"] = len(runs)
    info["run_wall_s"] = [round(r["wall_s"], 3) for r in runs]
    info["digest"] = sorted(digests)
    info["machine_after"] = machine()
    errors = [e for r in runs for e in r["errors"]]
    if errors:
        info["errors"] = errors[:5]

    print("perfbench %s seed=%d: %d cold runs, closed loop, 1 client, "
          "%d entry-point calls and %d items per run"
          % (args.workload, args.seed, len(runs), len(items),
             info["items"]))
    metrics = {}
    if not runs:
        units = []
    elif args.trace:
        units = per_layer_units()
        metrics = layer_metrics(traced, untraced)
        info["layer_self_share"] = layer_shares(traced)
        print_metrics(metrics, units, len(traced))
    else:
        units = END_TO_END
        metrics = end_to_end(untraced)
        print_metrics(metrics, units, len(untraced),
                      sum(len(r["latencies_s"]) for r in untraced))
    print("  %-44s %14.6g ratio      (%d/%d)"
          % ("fail_ratio", _ratio(failed, attempted), failed, attempted))
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

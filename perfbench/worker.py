"""One cold run of one workload in a fresh interpreter.

Usage: python3 worker.py <inputs as JSON> <trace 0|1>, with the checkout's
src/ on PYTHONPATH; the inputs come from `workloads.inputs_for`.
Everything before the first entry-point call (interpreter start, import
qminor, root data, words or orientations, input enumeration) is set-up;
the timed section is the closed loop of calls, one at a time.  Checks and
rendering run after the timed section.  Prints one JSON line.
"""

import json
import resource
import sys
import time

import workloads


def main(argv):
    inputs, traced = json.loads(argv[0]), argv[1] == "1"
    workload = inputs["workload"]
    items = workloads.items_for(inputs)
    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    outputs = []
    latencies = []
    clock = time.perf_counter
    t_first = time.monotonic()
    start = clock()
    for item in items:
        t0 = clock()
        try:
            out = item.call()
        except Exception as exc:    # counted as a failed item below
            out = exc
        latencies.append(clock() - t0)
        outputs.append(out)
    wall = clock() - start

    attempted = failed = completed = 0
    errors = []
    rendered = []
    for item, out in zip(items, outputs):
        attempted += item.size
        if isinstance(out, Exception):
            ok = False
            errors.append("%s: %r" % (item.key, out))
            rendered.append((item.key, "ERROR"))
        else:
            ok = item.check(out)
            rendered.append((item.key, item.render(out)))
        if ok:
            completed += out["pairs_scanned"] if workload == "scan" else 1
        else:
            failed += item.size
    latencies.sort()
    result = {
        "t_first": t_first,
        "wall_s": wall,
        "latencies_s": latencies,
        "items_completed": completed,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "digest": workloads.digest(rendered),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["pairs_scanned"] = sum(
            out["pairs_scanned"] for out in outputs
            if workload == "scan" and not isinstance(out, Exception))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run one workload in this fresh process and print its raw results as JSON.

Started by ``run.py``, which sets one BLAS thread and ``PYTHONPATH=src`` in
this process's environment and passes the monotonic clock reading taken
just before it started the process, so set-up time counts from process
start: interpreter start-up, ``import vaguetalk`` and building the
workload's fixed inputs and first op's inputs through the public
constructors.
"""

import os
import time

STARTED = float(os.environ.get("PERFBENCH_T0", time.monotonic()))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def run_op(workload, i: int, inp, tracer=None) -> tuple[float, str | None, object]:
    """Time one op, traced when a tracer is given, then check its output
    outside both; returns (seconds, failure or None, output)."""
    with tracing.traced_op(tracer, i) if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            out = workload.run(inp)
        except Exception as e:  # a raising op is a failed op, not a crashed run
            return time.perf_counter() - start, f"raised {type(e).__name__}: {e}", None
        elapsed = time.perf_counter() - start
    return elapsed, workload.check(i, inp, out), out


def main() -> int:
    args = parse_args()
    os.chdir(ROOT)
    import numpy
    import vaguetalk
    if Path(vaguetalk.__file__).resolve().parent != ROOT / "src" / "vaguetalk":
        sys.exit(f"imported vaguetalk from {vaguetalk.__file__}, not from {ROOT / 'src'}")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    inp = workload.make_input(0)
    setup_s = time.monotonic() - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    plain: list[float] = []   # durations of ops that passed, tracing off
    # with tracing on, ops 2k and 2k + 1 get the same input k, one traced
    # and one not, in alternating order; passed ones by (k, traced)
    paired: dict[tuple[int, bool], float] = {}
    failures: list[tuple[int, str]] = []
    stdout_bytes = 0
    i = 0
    begin = time.perf_counter()
    while i == 0 or time.perf_counter() - begin < args.seconds or (tracer is not None and i % 2):
        k = i // 2 if tracer is not None else i
        if i:
            inp = workload.make_input(k)
        traced_op = tracer is not None and i % 2 != k % 2
        elapsed, failure, out = run_op(workload, k, inp, tracer if traced_op else None)
        if traced_op and failure is None and hasattr(workload, "stdout_bytes"):
            stdout_bytes += workload.stdout_bytes(out)
        if failure is not None:
            failures.append((i, failure))
        elif tracer is None:
            plain.append(elapsed)
        else:
            paired[k, traced_op] = elapsed
        i += 1

    result = {
        "setup_s": setup_s,
        "durations_s": plain,
        "attempted": i,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                "numpy": numpy.__version__,
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
    }
    if tracer is not None:
        n_traced = len({s.op for s in tracer.spans})
        layers = tracing.summarize(tracer, n_traced)
        passed = [k for k in range(i // 2) if (k, False) in paired and (k, True) in paired]
        passed_traced = sum(traced for _, traced in paired)
        layers["cli.stdout_bytes"] = stdout_bytes / max(1, passed_traced)
        # traced against untraced throughput over the same inputs
        untraced_s = sum(paired[k, False] for k in passed)
        traced_s = sum(paired[k, True] for k in passed)
        layers["trace.overhead_pct"] = 100.0 * (1.0 - untraced_s / traced_s) if passed else 0.0
        result["layers"] = layers
        result["traced_ops"] = n_traced
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

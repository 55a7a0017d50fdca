"""The vaguetalk benchmark: one workload per invocation.

    python3 perfbench/run.py --workload ibr-wide --seed 1 --seconds 35 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``ibr-wide``,
``dominance-games``, ``cli-reports``. Ops are closed-loop from a single
caller: the next op starts only after the previous one finished and was
checked against its oracle.

With ``--trace 0`` the workload runs in a fresh worker process, and set-up
is timed in several more fresh processes; the end-to-end metrics are
printed. With ``--trace 1`` each input is run twice, once plain and once
with the library's public functions wrapped in spans, and the per-layer
metrics are printed instead;
the spans are written to ``perfbench/out/``. The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits non-zero, printing no result, when the library sources are missing,
a worker fails, or the run overruns its deadline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import tail_percentile

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("ibr-wide", "dominance-games", "cli-reports")
#: fresh processes that only set up, besides the measured one
SETUP_PROBES = 4
#: a run gives up, killing its worker, this long past ``--seconds``; it
#: covers the set-up probes, set-up of the measured process and its last op
DEADLINE_MARGIN_S = 60.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("VS_SEED", None)  # the CLI reads its default seed from here
    return env


def run_worker(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    env = child_env()
    env["PERFBENCH_T0"] = repr(time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker killed: the run overran {args.seconds} s "
                         f"by more than {DEADLINE_MARGIN_S:g} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(result: dict, setups: list[float]) -> dict[str, tuple[float, str, str]]:
    """Metric name -> (value, unit, note) from a worker's raw results."""
    samples = result["durations_s"]
    attempted, failed = result["attempted"], len(result["failures"])
    metrics = {"setup_s": (statistics.median(setups), "s",
                           f"median of {len(setups)} fresh processes")}
    if samples:
        pct, tail, beyond = tail_percentile(samples)
        metrics["throughput_ops_s"] = (len(samples) / sum(samples), "ops/s",
                                       f"{len(samples)} ops in {sum(samples):.3f} s of op time")
        metrics["op_p50_ms"] = (1000.0 * statistics.median(samples), "ms", "")
        metrics["op_tail_ms"] = (1000.0 * tail, "ms",
                                 f"p{pct:.2f} of {len(samples)} samples, {beyond} beyond it")
    metrics["error_rate"] = (failed / attempted, "failed/attempted",
                             f"{failed} of {attempted} ops failed")
    metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB", "ru_maxrss of the worker process")
    return metrics


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Run one vaguetalk benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "vaguetalk" / "__init__.py").is_file():
        print(f"error: no library sources at {ROOT / 'src' / 'vaguetalk'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S

    setups = []
    if not args.trace:
        setups = [run_worker(args, deadline, "--setup-only")["setup_s"]
                  for _ in range(SETUP_PROBES)]
    result = run_worker(args, deadline)
    setups.append(result["setup_s"])

    env = result["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  nproc {env['nproc']}  python {env['python']}  "
          f"numpy {env['numpy']}  blas threads {env['blas_threads']}")
    for i, reason in result["failures"]:
        print(f"FAILED op {i}: {reason}")
    if args.trace:
        print(f"per op, over {result['traced_ops']} traced ops")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = {m["name"]: (result["layers"][m["name"]], m["unit"], "")
                   for m in spec["per_layer"]}
    else:
        metrics = end_to_end(result, setups)
    for name, (value, unit, note) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit:16s} {note}".rstrip())

    # error_rate is 0 on a clean run, and a metric in the result line must
    # never be 0; "attempted" and "failed" carry it there instead
    metrics.pop("error_rate", None)
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

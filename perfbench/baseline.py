"""Run every workload over several seeds, twice, and report the run-to-run spread.

    python3 perfbench/baseline.py --runs 10 --first-seed 1000 [--write]

Each set runs every workload once per seed, and the workloads take turns
seed by seed, so a slow period of the machine falls on all of them rather
than on one workload's runs. Sets use distinct seeds. For each workload,
set and end-to-end metric this prints the median of the runs and the
spread: the distance between the first and third quartile as a share of
the median, next to the metric's bound from ``BENCHMARK.json``. It then
prints how far the last set's median moved from the first set's. A spread
or a move beyond the bound fails the script.

With ``--write`` it also makes one traced run per workload and records
everything, with the machine it ran on, in ``perfbench/baseline.json``. A
metric gets a reference ``median`` (over all runs of all sets) only where
every set is within its bound and the sets agree; otherwise it is marked
``unresolved`` and keeps only the per-set figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
BASELINE = Path(__file__).resolve().parent / "baseline.json"
#: sets of runs that must agree before a median becomes the reference
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[str, dict]:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return lines[0], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1000)
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--write", action="store_true")
    args = p.parse_args()
    workloads = args.workload or names
    seconds = spec["run_seconds"]
    seed_sets = [list(range(args.first_seed + s * args.runs, args.first_seed + (s + 1) * args.runs))
                 for s in range(SETS)]
    # values[workload][metric][set] -> one value per seed
    values = {w: {m["name"]: [[] for _ in seed_sets] for m in spec["end_to_end"]}
              for w in workloads}
    counts = {w: {"failed": 0, "attempted": 0} for w in workloads}
    machine = ""
    for s, seeds in enumerate(seed_sets):
        for seed in seeds:
            for workload in workloads:
                header, result = run(workload, seed, seconds, 0)
                machine = header.split("trace 0", 1)[1].strip()
                counts[workload]["failed"] += result["failed"]
                counts[workload]["attempted"] += result["attempted"]
                for name, per_set in values[workload].items():
                    per_set[s].append(result["metrics"][name]["value"])
                print(f"set {s} seed {seed} {workload}: {result['failed']} of "
                      f"{result['attempted']} ops failed", flush=True)

    record: dict = {"run_seconds": seconds, "seed_sets": seed_sets, "machine": machine,
                    "workloads": {}}
    ok = True
    for workload in workloads:
        print(f"{workload}: {counts[workload]['failed']} of "
              f"{counts[workload]['attempted']} ops failed")
        summary = {}
        for m in spec["end_to_end"]:
            entry: dict = {"unit": m["unit"], "sets": []}
            agreed = True
            for s, vals in enumerate(values[workload][m["name"]]):
                q1, median, q3 = statistics.quantiles(vals, n=4)
                spread = quartile_spread(vals)
                mark = "ok" if spread < m["bound"] / 3 else "WIDE"
                if spread >= m["bound"]:
                    mark, agreed = "OVER BOUND", False
                print(f"  {m['name']:18s} set {s} median {median:12.6g} {m['unit']:6s} "
                      f"spread {spread:7.4f}  bound {m['bound']:.2f}  {mark}  "
                      + " ".join(f"{v:.4g}" for v in vals))
                entry["sets"].append({"median": median, "q1": q1, "q3": q3,
                                      "spread": spread, "values": vals})
            first, last = entry["sets"][0]["median"], entry["sets"][-1]["median"]
            entry["shift"] = (last - first) / first
            if abs(entry["shift"]) > m["bound"]:
                agreed = False
            print(f"  {m['name']:18s} last set moved {entry['shift']:+.4f} from the first  "
                  f"{'agree' if agreed else 'UNRESOLVED'}")
            if agreed:
                entry["median"] = statistics.median(v for vals in values[workload][m["name"]]
                                                    for v in vals)
            else:
                entry["unresolved"] = True
                ok = False
            summary[m["name"]] = entry
        record["workloads"][workload] = {**counts[workload], "end_to_end": summary}
        if args.write:
            _, traced = run(workload, seed_sets[0][0], seconds, 1)
            record["workloads"][workload]["per_layer"] = {
                name: m["value"] for name, m in traced["metrics"].items()}
    if args.write:
        BASELINE.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {BASELINE.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark many times and record medians, quartiles and spreads.

Usage (from the repository root):

    python3 bench/record.py --traced --out bench/results/baseline.json
    python3 bench/record.py                  # print only

Each run is a separate process, ``bench/run.py --workload W --seed S``, with
``--seconds`` the ``run_seconds`` of BENCHMARK.json.  In round r of RUNS,
every workload runs twice at seed r, once for set "a" and once for set "b",
with the order of the two alternating from round to round.  So each set is
ten runs on ten seeds, and the two sets are two sets of runs of the same
code on the same inputs.  The workloads keep the cost of their inputs
steady across seeds (the q-side work of satake-rows differs by about 1%),
so the spread within a set is mostly run-to-run noise.

The spread of a set is the distance between the first and third quartile of
its values (``statistics.quantiles(values, n=4)``) as a share of their
median; the gap is how far the median of set "b" lies from that of set "a",
as a share of the latter.  A metric is "resolved" on a workload when both
spreads and the gap are within its bound (setup_s: the gap only).  With
``--traced`` one traced run per workload at the default seed is added.
With ``--out`` the record is rewritten after every round.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1
RUNS = 10
SETS = ("a", "b")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s failed with exit %d:\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def summaries(entry: dict, bounds: dict) -> dict:
    """Per metric: the summary of each set, the a/b median gap and the verdict."""
    out = {}
    for name, bound in bounds.items():
        sets = {s: summarize(entry["values"][s][name]) for s in SETS}
        a, b = sets["a"]["median"], sets["b"]["median"]
        gap = abs(b - a) / a if a else 0.0
        spreads = () if name == "setup_s" else (sets["a"]["spread"], sets["b"]["spread"])
        resolved = max(spreads + (gap,)) <= bound
        out[name] = dict(sets, unit=entry["units"][name], bound=bound, gap=gap, resolved=resolved)
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path, default=None, help="write the record as JSON")
    args = parser.parse_args(argv)

    record = {"seconds": seconds, "seeds": list(range(1, RUNS + 1)), "workloads": {}}
    entries = {w: {"correct": True, "attempted": 0, "failed": 0, "units": {},
                   "values": {s: {m: [] for m in bounds} for s in SETS}} for w in names}

    def write() -> None:
        if args.out:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for r in range(RUNS):
        order = ("a", "b") if r % 2 == 0 else ("b", "a")
        for workload in names:
            entry = entries[workload]
            for which in order:
                result = run_once(workload, r + 1, seconds, 0)
                entry["correct"] = entry["correct"] and result["correct"]
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                for m in bounds:
                    entry["values"][which][m].append(result["metrics"][m]["value"])
                    entry["units"][m] = result["metrics"][m]["unit"]
            if r > 0:
                record["workloads"][workload] = dict(
                    {k: entry[k] for k in ("correct", "attempted", "failed")},
                    rounds=r + 1, metrics=summaries(entry, bounds))
        print("round %d of %d done" % (r + 1, RUNS), flush=True)
        write()

    if args.traced:
        for workload in names:
            record["workloads"][workload]["traced"] = run_once(workload, DEFAULT_SEED, seconds, 1)["metrics"]
        write()

    for workload in names:
        entry = record["workloads"][workload]
        print("%s: correct=%s attempted=%d failed=%d" % (
            workload, entry["correct"], entry["attempted"], entry["failed"]))
        for name, m in entry["metrics"].items():
            print("  %-13s a %10.5g (spread %.3f)  b %10.5g (spread %.3f)  gap %.3f  bound %.2f  %s" % (
                name, m["a"]["median"], m["a"]["spread"], m["b"]["median"], m["b"]["spread"],
                m["gap"], m["bound"], "resolved" if m["resolved"] else "UNRESOLVED"))
    return 0


if __name__ == "__main__":
    sys.exit(main())

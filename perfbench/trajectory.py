"""Fold the result files of a set of benchmark runs into one trajectory entry.

After running the benchmark over several seeds (results land in
``.perfbench/results/``), run from the same directory:

    python3 perfbench/trajectory.py --label "<what was measured>"

It appends one JSON line to ``perfbench/trajectory.jsonl`` with, per
workload and metric, the median and quartiles over the runs found, the
number of runs, and the environment record of the first run. Entries are
only comparable when their environment records match.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--results", default=".perfbench/results")
    ap.add_argument("--out", default=str(HERE / "trajectory.jsonl"))
    args = ap.parse_args(argv)

    runs = [json.loads(p.read_text()) for p in sorted(Path(args.results).glob("*.json"))]
    if not runs:
        print(f"no result files under {args.results}", file=sys.stderr)
        return 2
    grouped: dict[str, dict] = {}
    for run in runs:
        slot = grouped.setdefault(run["workload"], {"seeds": {0: [], 1: []}, "values": {}})
        slot["seeds"][run["trace"]].append(run["seed"])
        for name, m in run["metrics"].items():
            slot["values"].setdefault((run["trace"], name, m["unit"]), []).append(m["value"])
        if not run["correct"]:
            slot.setdefault("incorrect_runs", []).append(
                {"seed": run["seed"], "trace": run["trace"], "problems": run["problems"][:3]})
    entry = {"label": args.label, "env": runs[0]["env"], "workloads": {}}
    for workload, slot in sorted(grouped.items()):
        out = {"seeds_untraced": sorted(slot["seeds"][0]), "seeds_traced": sorted(slot["seeds"][1]),
               "end_to_end": {}, "per_layer": {}}
        for (trace, name, unit), values in sorted(slot["values"].items()):
            key = "per_layer" if trace else "end_to_end"
            out[key][name] = {"unit": unit, "runs": len(values), **summarize(values)}
        if "incorrect_runs" in slot:
            out["incorrect_runs"] = slot["incorrect_runs"]
        entry["workloads"][workload] = out
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"appended '{args.label}' ({len(runs)} runs) to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

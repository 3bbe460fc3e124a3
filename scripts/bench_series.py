#!/usr/bin/env python3
"""Summarize a parent/change series of perf-ledger runs as one JSON file.

Each input file is the standard output of one
`python3 perfbench/run.py --workload W --seed S --seconds T --trace X` run:
its `host: ...` line and its final JSON result line. The file name says
which run it was:

    <side>_<workload>_s<seed>_t<trace>_<pair>.out

with `side` `parent` or `change` and `pair` the number of the
parent/change pair the run belongs to (runs of one pair ran back to back).
For example `parent_count-skew_s3_t0_01.out`.

Usage, from the repository root:

    python3 scripts/bench_series.py --pr N --parent-rev REV --change-rev REV \\
        --out BENCH_N.json series/*.out

where N numbers the change the series measures.

The output holds the two revisions, every run's host facts (nproc, steal,
SIMD tier) and ledger verdict, and for each workload/seed/trace series and
each metric: the parent's and the change's median and quartiles (linear
interpolation, as the ledger's own `quantile`), the relative change of the
medians, whether that change exceeds the parent's interquartile range, and
in how many pairs the change read better (the direction comes from
BENCHMARK.json). Traced series also list the exact counters (kernel work,
workload, spill and shard tallies) with every value each side read.
"""

import argparse
import json
import os
import re
import sys

NAME = re.compile(r"^(parent|change)_(.+)_s(\d+)_t([01])_(\d+)\.out$")
HOST = re.compile(r"^host: nproc=(\d+) simd_tier=(\S+) steal_pct=([0-9.]+)")
# Traced metrics that count work rather than time it: equal inputs and
# equal code read equal values, so any difference is a change in work.
EXACT_PREFIXES = (
    "intersect.",
    "workload.",
    "graph.spill_",
    "graph.file_bytes",
    "graph.peak_resident_bytes",
    "shard.workers",
    "shard.worker_failures",
    "shard.range_cost_max_over_min",
    "cpu.est_cost_max_over_min.",
)


def quantile(xs, q):
    v = sorted(xs)
    pos = q * (len(v) - 1)
    lo, hi = int(pos), min(int(pos) + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def summary(xs):
    return {k: round(quantile(xs, q), 4) for k, q in (("median", 0.5), ("q1", 0.25), ("q3", 0.75))}


def read_run(path):
    m = NAME.match(os.path.basename(path))
    if m is None:
        raise SystemExit(f"bench_series: {path}: name is not <side>_<workload>_s<seed>_t<trace>_<pair>.out")
    side, workload, seed, trace, pair = m.groups()
    host, result = None, None
    with open(path) as f:
        for line in f:
            h = HOST.match(line)
            if h:
                host = {"nproc": int(h[1]), "simd_tier": h[2], "steal_pct": float(h[3])}
            elif line.startswith("{"):
                result = json.loads(line)
    if result is None:
        raise SystemExit(f"bench_series: {path}: no result line")
    return {
        "key": (workload, int(seed), trace == "1"),
        "side": side,
        "pair": int(pair),
        "host": host,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "units": {k: v["unit"] for k, v in result["metrics"].items()},
    }


def series(runs, better):
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r
    pairs = sorted(p for p, sides in by_pair.items() if len(sides) == 2)
    names = sorted(set().union(*(r["metrics"] for r in runs)))
    units = {k: u for r in runs for k, u in r["units"].items()}
    out = {
        "pairs": len(pairs),
        "runs": [
            {k: r[k] for k in ("side", "pair", "host", "correct", "attempted", "failed")}
            for r in sorted(runs, key=lambda r: (r["pair"], r["side"] != "parent"))
        ],
        "metrics": {},
        "exact": {},
    }
    for name in names:
        vals = {s: [r["metrics"][name] for r in runs if r["side"] == s and name in r["metrics"]]
                for s in ("parent", "change")}
        if not vals["parent"] or not vals["change"]:
            continue
        if name.startswith(EXACT_PREFIXES):
            out["exact"][name] = {
                "parent": sorted(set(vals["parent"])),
                "change": sorted(set(vals["change"])),
                "repeat": set(vals["parent"]) == set(vals["change"]) and len(set(vals["parent"])) == 1,
            }
            continue
        p, c = summary(vals["parent"]), summary(vals["change"])
        lower = better.get(name, "lower") == "lower"
        wins = sum(
            1 for n in pairs
            if name in by_pair[n]["parent"]["metrics"] and name in by_pair[n]["change"]["metrics"]
            and (by_pair[n]["change"]["metrics"][name] < by_pair[n]["parent"]["metrics"][name]
                 if lower else
                 by_pair[n]["change"]["metrics"][name] > by_pair[n]["parent"]["metrics"][name])
        )
        out["metrics"][name] = {
            "unit": units.get(name),
            "better": "lower" if lower else "higher",
            "parent": p,
            "change": c,
            "delta_pct": round(100.0 * (c["median"] - p["median"]) / p["median"], 2)
            if p["median"] else None,
            "beyond_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
            "change_wins": wins,
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", required=True, type=int, help="number of the measured change")
    ap.add_argument("--parent-rev", required=True)
    ap.add_argument("--change-rev", required=True)
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--out", required=True)
    ap.add_argument("runs", nargs="+")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    groups = {}
    for path in args.runs:
        run = read_run(path)
        groups.setdefault(run["key"], []).append(run)
    doc = {
        "pr": args.pr,
        "revs": {"parent": args.parent_rev, "change": args.change_rev},
        "series": [
            dict({"workload": w, "seed": s, "trace": t}, **series(runs, better))
            for (w, s, t), runs in sorted(groups.items())
        ],
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=False)
        f.write("\n")
    for s in doc["series"]:
        print(f"{s['workload']} seed {s['seed']} trace {int(s['trace'])}: "
              f"{s['pairs']} pairs, {len(s['metrics'])} metrics, {len(s['exact'])} exact counters")
    return 0


if __name__ == "__main__":
    sys.exit(main())

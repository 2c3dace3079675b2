#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs against BENCHMARK.json.

    python3 benchmarks/e2e/compare.py SET_A SET_B [--save FILE]

A set is a directory of ``run.py --out`` records, one run per seed. For
every workload and end-to-end metric this prints each set's median,
quartiles (``statistics.quantiles(values, n=4)``), quartile spread
(q3 - q1 over the median) and max/min spread, then applies the metric's
bound from BENCHMARK.json: each set's quartile spread must be within the
bound, and set B's median must not be worse than set A's by more than
the bound. Exits 1 when any check fails or a workload is missing from
either set, 0 otherwise. Per-layer records (``--trace 1``) of both sets
are pooled and summarized as medians without a verdict.

``--save FILE`` writes the summary as JSON (the format of baseline.json):
the end-to-end comparison, the per-layer medians of the traced runs, and
the medians of the untraced runs' diagnostics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load_set(directory: pathlib.Path):
    """{(workload, trace): [record, ...]} of one set directory."""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        runs.setdefault((record["workload"], record["trace"]), []).append(record)
    return runs


def stats(values):
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "maxmin": max(values) / min(values) - 1.0,
    }


def worse_by(metric, a: float, b: float) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    change = (b - a) / a
    return change if metric["better"] == "lower" else -change


def compare(set_a, set_b, spec):
    """(summary, failures) over every workload present in either set."""
    summary, failures = {}, []
    workloads = sorted({w for w, t in set_a if t == 0} | {w for w, t in set_b if t == 0})
    for workload in workloads:
        runs_a, runs_b = set_a.get((workload, 0), []), set_b.get((workload, 0), [])
        if not runs_a or not runs_b:
            failures.append(f"{workload}: missing from a set")
            continue
        for runs, label in ((runs_a, "A"), (runs_b, "B")):
            bad = [r["seed"] for r in runs if not r["correct"] or r["failed"]]
            if bad:
                failures.append(f"{workload}: set {label} has incorrect runs (seeds {bad})")
        rows = summary.setdefault(workload, {})
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = stats([r["metrics"][name]["value"] for r in runs_a])
            b = stats([r["metrics"][name]["value"] for r in runs_b])
            worse = worse_by(metric, a["median"], b["median"])
            bound = metric["bound"]
            rows[name] = {"unit": metric["unit"], "bound": bound, "a": a, "b": b, "worse": worse}
            for label, s in (("A", a), ("B", b)):
                if s["spread"] > bound:
                    failures.append(
                        f"{workload} {name}: set {label} spread {s['spread']:.1%} > bound {bound:.0%}"
                    )
            if worse > bound:
                failures.append(f"{workload} {name}: B worse than A by {worse:.1%} > bound {bound:.0%}")
    return summary, failures


def print_summary(summary) -> None:
    print(f"{'workload':12s} {'metric':14s} {'unit':9s} {'median A':>12s} {'q1..q3 A':>23s} "
          f"{'spr A':>6s} {'mm A':>6s} {'median B':>12s} {'spr B':>6s} {'mm B':>6s} {'B-A':>7s} {'bound':>5s}")
    for workload, rows in summary.items():
        for name, m in rows.items():
            a, b = m["a"], m["b"]
            print(
                f"{workload:12s} {name:14s} {m['unit']:9s} {a['median']:12.4f} "
                f"{a['q1']:11.4f}..{a['q3']:<10.4f} {a['spread']:6.1%} {a['maxmin']:6.1%} "
                f"{b['median']:12.4f} {b['spread']:6.1%} {b['maxmin']:6.1%} "
                f"{m['worse']:+7.1%} {m['bound']:5.0%}"
            )


def medians(sets, trace: int, keys):
    """{workload: {name: {unit, median, spread, n}}} of the *keys*
    sections ("metrics", "extras") of the sets' ``--trace`` *trace*
    records; spread is the quartile spread over the median."""
    pooled = {}
    for runs in sets:
        for (workload, t), records in runs.items():
            if t == trace:
                pooled.setdefault(workload, []).extend(records)
    summary = {}
    for workload, records in sorted(pooled.items()):
        values = {}
        for record in records:
            for key in keys:
                for name, m in record[key].items():
                    values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        summary[workload] = {}
        for name, (unit, v) in values.items():
            median = statistics.median(v)
            q1, _q2, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
            summary[workload][name] = {
                "unit": unit, "median": median, "n": len(v),
                "spread": (q3 - q1) / abs(median) if median else 0.0,
            }
    return summary


def print_medians(title: str, summary) -> None:
    for workload, rows in summary.items():
        print(f"\n{workload}: {title}")
        for name, m in rows.items():
            print(f"  {name:28s} {m['median']:14.6f} {m['unit']:12s} "
                  f"spread {m['spread']:6.1%} n={m['n']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("set_a", type=pathlib.Path)
    parser.add_argument("set_b", type=pathlib.Path)
    parser.add_argument("--save", type=pathlib.Path, default=None, metavar="FILE")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for directory in (args.set_a, args.set_b):
        if not directory.is_dir():
            parser.error(f"{directory} is not a directory")
    set_a, set_b = load_set(args.set_a), load_set(args.set_b)
    summary, failures = compare(set_a, set_b, spec)
    layer_medians = medians((set_a, set_b), 1, ("metrics", "extras"))
    diagnostics = medians((set_a, set_b), 0, ("extras",))
    print_summary(summary)
    print_medians("per-layer medians of the traced runs", layer_medians)
    print_medians("diagnostic medians of the untraced runs", diagnostics)
    if args.save is not None:
        def seeds(*sets, trace):
            return sorted({
                r["seed"] for runs in sets
                for (_w, t), rs in runs.items() if t == trace for r in rs
            })

        saved = {
            "host": f"{os.cpu_count()} CPUs, {platform.machine()}, "
                    f"Python {platform.python_version()}",
            "seeds": {
                "a": seeds(set_a, trace=0), "b": seeds(set_b, trace=0),
                "traced": seeds(set_a, set_b, trace=1),
            },
            "run_seconds": spec["run_seconds"],
            "workloads": summary,
            "layers": layer_medians,
            "diagnostics": diagnostics,
        }
        args.save.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")
    for failure in failures:
        print(f"FAIL {failure}")
    print("sets agree" if not failures else f"{len(failures)} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

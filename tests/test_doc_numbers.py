"""Docs that quote benchmark numbers must agree with the BENCH files they cite.

``docs/performance.md`` quotes the extent-vs-per-block speedups of
``benchmarks/results/BENCH_hotpath.json`` in its hotpath table. Whenever
the bench is re-run and its payload committed, the table must be updated
with it: every ``~Nx`` cell has to equal the committed speedup rounded to
the precision the cell quotes (``~11x`` to the integer, ``~1.7x`` to one
decimal).
"""

import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFORMANCE_MD = ROOT / "docs" / "performance.md"
BENCH_HOTPATH = ROOT / "benchmarks" / "results" / "BENCH_hotpath.json"

#: One hotpath table row: | `scenario` | ~N[.D]x | what it prices |
_ROW = re.compile(r"^\|\s*`(\w+)`\s*\|\s*~(\d+(?:\.(\d+))?)x\s*\|")


def _quoted_speedups():
    rows = {}
    for line in PERFORMANCE_MD.read_text().splitlines():
        match = _ROW.match(line)
        if match:
            name, quoted, decimals = match.groups()
            rows[name] = (quoted, len(decimals or ""))
    return rows


def test_hotpath_table_matches_bench_payload():
    scenarios = json.loads(BENCH_HOTPATH.read_text())["scenarios"]
    quoted = _quoted_speedups()
    # the table must cover every committed scenario, and nothing else
    assert set(quoted) == set(scenarios), (sorted(quoted), sorted(scenarios))
    for name, (text, decimals) in quoted.items():
        committed = f"{scenarios[name]['speedup']:.{decimals}f}"
        assert text == committed, (
            f"docs/performance.md quotes {name} at ~{text}x but "
            f"BENCH_hotpath.json says {scenarios[name]['speedup']:.3f}x"
        )

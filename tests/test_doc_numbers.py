"""Docs that quote benchmark numbers must agree with the BENCH files they cite.

``docs/performance.md`` quotes the extent-vs-per-block speedups of
``benchmarks/results/BENCH_hotpath.json`` in its hotpath table, and the
store results of ``benchmarks/results/BENCH_store.json`` in the
bullets under "The copy-on-write store". Whenever a bench is re-run
and its payload committed, the docs must be updated with it: every quoted
number has to equal the committed value rounded to the precision the doc
quotes (``~11x`` to the integer, ``~1.7x`` to one decimal).
"""

import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFORMANCE_MD = ROOT / "docs" / "performance.md"
BENCH_HOTPATH = ROOT / "benchmarks" / "results" / "BENCH_hotpath.json"
BENCH_STORE = ROOT / "benchmarks" / "results" / "BENCH_store.json"

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


#: A quoted store number: ``~N[.D]x`` or ``~N[.D] ms``.
_STORE_NUMBER = re.compile(r"~(\d+(?:\.(\d+))?)\s*(x|ms)\b")

#: Bullet title -> the BENCH_store.json path of each number it quotes, in
#: order of appearance. Millisecond quotes read a seconds field.
_STORE_QUOTES = {
    "CoW checkpoint": [
        "cow_checkpoint.speedup",
        "cow_checkpoint.cow_checkpoint_s",
        "cow_checkpoint.full_reintern_s",
    ],
    "Fleet checkpoint (the SQLite half)": [
        "fleet_checkpoint.delta_checkpoint_s",
        "fleet_checkpoint.full_manifest_s",
        "fleet_checkpoint.speedup",
    ],
    "Hotpath guard": ["hotpath_ram.emmc_seq_write.speedup"],
}


def _store_bullets():
    """Bullet title -> its text, for the store results list."""
    text = PERFORMANCE_MD.read_text()
    start = text.index("Representative numbers from the committed baseline:")
    end = text.index("## Reading `BENCH_hotpath.json`")
    bullets = {}
    for chunk in text[start:end].split("\n* **")[1:]:
        title, _, body = chunk.partition(":**")
        bullets[title] = " ".join(body.split())
    return bullets


def _lookup(payload, path):
    for key in path.split("."):
        payload = payload[key]
    return payload


def test_store_bullets_match_bench_payload():
    payload = json.loads(BENCH_STORE.read_text())
    bullets = _store_bullets()
    assert set(bullets) == set(_STORE_QUOTES), sorted(bullets)
    for title, paths in _STORE_QUOTES.items():
        quotes = _STORE_NUMBER.findall(bullets[title])
        assert len(quotes) == len(paths), (title, quotes)
        for (text, decimals, unit), path in zip(quotes, paths):
            value = _lookup(payload, path) * (1e3 if unit == "ms" else 1)
            committed = f"{value:.{len(decimals)}f}"
            assert text == committed, (
                f"docs/performance.md quotes {title!r} as {text} but "
                f"BENCH_store.json {path} is {value:.3f}"
            )

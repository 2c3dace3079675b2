"""Docs that quote benchmark numbers must agree with the BENCH files they cite.

Every measured number a doc quotes has to equal the committed value
rounded to the precision the doc quotes (``~11x`` to the integer,
``~1.7x`` to one decimal, ``17,574±8`` to the integer). Whenever a bench
is re-run and its payload committed, the docs must be regenerated from it:

* ``docs/performance.md``: the hotpath table against
  ``BENCH_hotpath.json`` and the store bullets under "The copy-on-write
  store" against ``BENCH_store.json``;
* ``EXPERIMENTS.md``: Fig. 4 (table and shape-check percentages),
  Table I, Table II and the workload-mix table against ``BENCH_fig4``,
  ``BENCH_table1``, ``BENCH_table2`` and ``BENCH_workloads``, and the
  security-game table against ``security_game.txt``;
* ``README.md``: the Table II boot row against ``BENCH_table2``.
"""

import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFORMANCE_MD = ROOT / "docs" / "performance.md"
EXPERIMENTS_MD = ROOT / "EXPERIMENTS.md"
README_MD = ROOT / "README.md"
RESULTS = ROOT / "benchmarks" / "results"
BENCH_HOTPATH = RESULTS / "BENCH_hotpath.json"
BENCH_STORE = RESULTS / "BENCH_store.json"

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


# ---------------------------------------------------------------------------
# EXPERIMENTS.md and README.md
# ---------------------------------------------------------------------------

#: A quoted measurement: ``20min29s`` (whole seconds) or a decimal number
#: with optional thousands commas (``17,574``, ``0.29``, ``95.6``).
_QUOTED = re.compile(r"(\d+)min(\d+)s|\d[\d,]*(?:\.(\d+))?")


def _quoted(text):
    """Each number quoted in *text* as ``(digits, decimals)``."""
    quotes = []
    for match in _QUOTED.finditer(text):
        minutes, seconds, decimals = match.groups()
        if minutes is not None:
            quotes.append((str(int(minutes) * 60 + int(seconds)), 0))
        else:
            digits = match.group().replace(",", "")
            quotes.append((digits, len(decimals or "")))
    return quotes


def _assert_quotes(where, text, values):
    """*text* quotes exactly *values*, each at the precision it is quoted."""
    quotes = _quoted(text)
    assert len(quotes) == len(values), (where, text, values)
    for (digits, decimals), value in zip(quotes, values):
        committed = f"{value:.{decimals}f}"
        assert digits == committed, (
            f"{where} quotes {text!r}; the committed value is {committed}"
        )


def _payload(experiment):
    return json.loads((RESULTS / f"BENCH_{experiment}.json").read_text())


def _rows(experiment, key):
    """A row-table payload's rows, keyed by their *key* column."""
    return {row[key]: row for row in _payload(experiment)["results"]["rows"]}


def _section(heading):
    """The EXPERIMENTS.md section under the ``## `` *heading* prefix."""
    text = EXPERIMENTS_MD.read_text()
    start = text.index(f"\n## {heading}")
    end = text.find("\n## ", start + 1)
    return text[start:end if end != -1 else len(text)]


def _table(section):
    """The markdown table of *section* (each holds one) as row dicts."""
    lines = [
        line for line in section.splitlines() if line.startswith("|")
    ]
    cells = [[c.strip() for c in line.strip("|").split("|")] for line in lines]
    header, rows = cells[0], cells[2:]
    return [dict(zip(header, row)) for row in rows]


def _prose(section):
    return " ".join(section.split())


def _percent_quote(where, prose, pattern, fraction):
    match = re.search(pattern, prose)
    assert match, (where, pattern)
    _assert_quotes(where, match.group(1), [100 * fraction])


FIG4_COLUMNS = ("dd-Write", "dd-Read", "B-Write", "B-Read")


def test_fig4_table_matches_bench_payload():
    payload = _payload("fig4")
    results, params = payload["results"], payload["params"]
    section = _section("Fig. 4")
    rows = _table(section)
    assert {r["setting"] for r in rows} == set(results)
    for row in rows:
        for column in FIG4_COLUMNS:
            stats = results[row["setting"]][column]
            _assert_quotes(
                f"Fig. 4 {row['setting']} {column}",
                row[column], [stats["mean"], stats["stdev"]],
            )
    _assert_quotes(
        "Fig. 4 run parameters",
        re.search(r"Measured \(([^)]*)\)", section).group(1),
        [
            params["trials"],
            params["file_bytes"] / 2**20,
            params["userdata_blocks"] * 4096 / 2**20,
        ],
    )


def test_fig4_shape_check_matches_bench_payload():
    results = _payload("fig4")["results"]
    prose = _prose(_section("Fig. 4") + _section("Calibration provenance"))

    def cost(setting, column):
        mean = results[setting][column]["mean"]
        return 1 - mean / results["android"][column]["mean"]

    for pattern, fraction in [
        (r"thin read overhead (\d+) %", cost("a-t-p", "dd-Read")),
        (r"thin write overhead (\d+) %", cost("a-t-p", "dd-Write")),
        (r"dd-write overhead vs Android measures ~(\d+) %",
         cost("mc-p", "dd-Write")),
        (r"B-Write lands at ~(\d+) %", cost("mc-p", "B-Write")),
        (r"MC-P dd-write overhead ~(\d+) %", cost("mc-p", "dd-Write")),
    ]:
        _percent_quote("Fig. 4 shape check", prose, pattern, fraction)


def test_table1_matches_bench_payload():
    results = _rows("table1", "system")
    rows = _table(_section("Table I"))
    assert {r["system"] for r in rows} == set(results)
    for row in rows:
        committed = results[row["system"]]
        where = f"Table I {row['system']}"
        _assert_quotes(where, row["measured Ext4"], [committed["ext4_mb_s"]])
        _assert_quotes(
            where, row["measured Enc"], [committed["encrypted_mb_s"]]
        )
        _assert_quotes(
            where, row["measured OH"], [100 * committed["overhead"]]
        )
    prose = _prose(_section("Calibration provenance"))
    match = re.search(r"HIVE raw SSD throughput (\d+) vs", prose)
    assert match, "Calibration provenance: HIVE raw SSD throughput"
    _assert_quotes(
        "Calibration provenance", match.group(1),
        [results["HIVE"]["ext4_mb_s"]],
    )


#: Table II metric label -> the payload fields its measured cell quotes.
TABLE2_FIELDS = {
    "initialization": ("initialization",),
    "booting": ("booting",),
    "switch in / out": ("switch_in", "switch_out"),
}


def test_table2_matches_bench_payload():
    results = _rows("table2", "system")
    rows = _table(_section("Table II"))
    assert {r["system"] for r in rows} == set(results)
    for row in rows:
        committed = results[row["system"]]
        _assert_quotes(
            f"Table II {row['system']} {row['metric']}",
            row["measured"],
            [committed[f]["mean"] for f in TABLE2_FIELDS[row["metric"]]],
        )


def test_readme_boot_row_matches_bench_payload():
    results = _rows("table2", "system")
    match = re.search(
        r"boot (\d\.\d+/\d\.\d+/\d\.\d+) s", README_MD.read_text()
    )
    assert match, "README.md lost its Table II boot row"
    _assert_quotes(
        "README.md Table II boot row",
        match.group(1),
        [
            results[system]["booting"]["mean"]
            for system in ("Android FDE", "MobiPluto", "MobiCeal")
        ],
    )


def test_workload_mix_matches_bench_payload():
    results = _rows("workloads", "setting")
    params = _payload("workloads")["params"]
    section = _section("Workload mix")
    rows = _table(section)
    assert {r["setting"] for r in rows} == set(results)
    for row in rows:
        committed = results[row["setting"]]
        where = f"workload mix {row['setting']}"
        _assert_quotes(where, row["busy (s)"], [committed["busy_s"]])
        if committed["overhead"]:
            _assert_quotes(
                where, row["overhead"], [100 * committed["overhead"]]
            )
        else:
            assert row["overhead"] == "—", (where, row["overhead"])
    _assert_quotes(
        "workload mix run parameters",
        re.search(r"Measured \(([^)]*)\)", section).group(1),
        [
            params["ops"],
            params["seed"],
            params["userdata_blocks"] * 4096 / 2**20,
        ],
    )
    _percent_quote(
        "workload mix shape",
        _prose(section),
        r"dummy writes add ~(\d+) % on top",
        results["mc-p"]["busy_s"] / results["a-t-p"]["busy_s"] - 1,
    )


def _security_game_rows():
    """``security_game.txt`` as system -> advantage."""
    lines = (RESULTS / "security_game.txt").read_text().splitlines()
    body = lines[[line.startswith("---") for line in lines].index(True) + 1:]
    rows = {}
    for line in filter(str.strip, body):
        system, *_, advantage = re.split(r"\s{2,}", line.strip())
        rows[system] = float(advantage)
    return rows


def test_security_game_table_matches_results():
    committed = _security_game_rows()
    rows = _table(_section("Multi-snapshot security game"))
    assert len(rows) == len(committed)
    for row in rows:
        system, advantage = list(row.values())
        name = system.split()[0]
        _assert_quotes(
            f"security game {name}", advantage, [committed[name]]
        )

"""Text rendering of experiment results in the paper's table formats."""

from __future__ import annotations

from typing import Dict, List

from repro.bench.runners import OverheadRow, TimingRow
from repro.util.stats import Summary
from repro.util.units import format_duration, render_table


def render_fig4(results: Dict[str, Dict[str, Summary]]) -> str:
    """Fig. 4: average throughput and standard deviation in KB/s."""
    metrics = ("dd-Write", "dd-Read", "B-Write", "B-Read")
    headers = ["setting"] + list(metrics)
    rows: List[List[str]] = []
    for setting, per_metric in results.items():
        row = [setting]
        for metric in metrics:
            s = per_metric[metric]
            row.append(f"{s.mean:,.0f}±{s.stdev:,.0f}")
        rows.append(row)
    return (
        "Fig. 4 — sequential throughput in KB/s (mean±stdev)\n"
        + render_table(headers, rows)
    )


def render_table1(rows: Sequence[OverheadRow]) -> str:
    """Table I: overhead comparison."""
    headers = ["system", "Ext4 (MB/s)", "Encrypted (MB/s)", "Overhead"]
    body = [
        [
            r.system,
            f"{r.ext4_mb_s:,.2f}",
            f"{r.encrypted_mb_s:,.2f}",
            f"{100 * r.overhead:.2f}%",
        ]
        for r in rows
    ]
    return "Table I — overhead comparison\n" + render_table(headers, body)


def render_workloads(rows: Sequence[Dict[str, object]]) -> str:
    """Workload-mix replay: per-stack busy time and overhead vs baseline."""
    headers = [
        "setting", "ops", "MB written", "busy (s)", "MB/s", "overhead",
    ]
    body = [
        [
            str(r["setting"]),
            str(r["ops"]),
            f"{r['bytes_written'] / 1e6:,.1f}",
            f"{r['busy_s']:,.3f}",
            f"{r['write_mb_s']:,.2f}",
            f"{100 * r['overhead']:+.2f}%",
        ]
        for r in rows
    ]
    return (
        "Workload mix — trace replay overhead vs baseline\n"
        + render_table(headers, body)
    )


def _fmt_timing(summary) -> str:
    if summary is None:
        return "N/A"
    return f"{format_duration(summary.mean)}±{summary.stdev:.2f}s"


def render_table2(rows: Sequence[TimingRow]) -> str:
    """Table II: initialization, booting and switching times."""
    headers = [
        "system",
        "Initialization",
        "booting (decoy pwd)",
        "switch (enter hid)",
        "switch (exit hid)",
    ]
    body = [
        [
            r.system,
            _fmt_timing(r.initialization),
            _fmt_timing(r.booting),
            _fmt_timing(r.switch_in),
            _fmt_timing(r.switch_out),
        ]
        for r in rows
    ]
    return (
        "Table II — initialization, booting and switching times\n"
        + render_table(headers, body)
    )

"""Streaming fleet telemetry at population scale — 1000 simulated phones.

The tentpole acceptance benchmark for ``repro.obs.stream``: a
1000-device fleet streams ``telemetry.v1`` spools, the incremental
reducer folds them with peak memory that does not scale with the device
count (asserted with :mod:`tracemalloc` against a 10x smaller shard set),
and the per-device summaries are scored into the committed
``BENCH_fleet_health.json`` population-health baseline.

Everything persisted here is deterministic: health metrics and the
throughput percentiles derive from the sim clock only (worker wall times
stay in the spools and never enter the committed payloads).
"""

import dataclasses
import gc
import tracemalloc

import pytest

from repro.obs import health as obs_health
from repro.obs.stream import reduce_spools
from repro.util.stats import percentile
from repro.workload import FleetSpec, run_fleet
from tests.oracles.percentile import nearest_rank

DEVICES = 1000
FLEET = FleetSpec(
    devices=DEVICES,
    setting="mc-p",
    personality="mixed_daily",
    ops=5,
    base_seed=11,
    userdata_blocks=1024,  # 4 MiB userdata keeps 1000 stacks affordable
    processes=1,
)


@pytest.fixture(scope="module")
def streamed_fleet(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fleet-stream")
    payload = run_fleet(FLEET, stream_dir=directory)
    return directory, payload


def _reduce_peak(spools):
    """Peak tracemalloc bytes of one reduce pass with no per-device state."""
    gc.collect()
    tracemalloc.start()
    reduce_spools(spools, keep_summaries=False)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def test_fleet_stream_scale(benchmark, streamed_fleet, save_result,
                            save_json):
    directory, payload = streamed_fleet
    spool_files = sorted(directory.glob("spool-*.jsonl"))
    assert len(spool_files) == DEVICES
    assert payload["stream"]["finished"] == DEVICES
    assert payload["stream"]["crashed"] == 0
    assert payload["obs_merged"]["merged_from"] == DEVICES

    # wall time of one full incremental reduce over all 1000 spools
    reduced = benchmark.pedantic(
        lambda: reduce_spools(directory), rounds=1, iterations=1
    )
    assert reduced.finished == DEVICES

    # --- reducer peak memory: independent of device count ----------------
    # A 10x larger spool set must not cost a 10x larger working set; the
    # fold holds one payload plus the metric-name universe at a time.
    _reduce_peak(spool_files[:100])  # warm import/alloc caches
    peak_small = _reduce_peak(spool_files[:100])
    peak_full = _reduce_peak(spool_files)
    spool_bytes = sum(path.stat().st_size for path in spool_files)
    assert peak_full <= max(peak_small, 256 * 1024) * 3, (
        peak_small, peak_full
    )
    assert peak_full < 0.15 * spool_bytes, (peak_full, spool_bytes)
    benchmark.extra_info["reduce_peak_bytes"] = peak_full
    benchmark.extra_info["spool_bytes"] = spool_bytes

    # --- population health scoring (committed baseline) ------------------
    medians = obs_health.fleet_medians(reduced.summaries)
    scores = obs_health.score_devices(reduced.summaries, medians)
    assert len(scores) == DEVICES
    health = obs_health.health_payload(
        scores, medians, params=dataclasses.asdict(FLEET)
    )
    save_json("fleet_health", health)

    throughput = [
        summary["result"]["write_mb_s"]
        for summary in reduced.summaries
        if not summary["crashed"]
    ]
    qs = (0.5, 0.95, 0.99)
    p50, p95, p99 = (percentile(throughput, q) for q in qs)
    assert [p50, p95, p99] == [nearest_rank(throughput, q) for q in qs]
    lines = [
        f"Streaming fleet telemetry: {DEVICES} devices x {FLEET.ops} ops "
        f"({FLEET.setting}, {FLEET.personality})",
        f"events: {reduced.events} total "
        + " ".join(
            f"{kind}:{n}" for kind, n in sorted(reduced.by_event.items())
        ),
        f"throughput MB/s (sim): p50 {p50:.3f}  "
        f"p95 {p95:.3f}  p99 {p99:.3f}",
        obs_health.render_health(health),
    ]
    save_result("fleet_stream", "\n".join(lines))

    results = health["results"]
    assert results["devices"] == DEVICES
    # 5-op micro-workloads have a legitimate outlier tail (write
    # amplification spans ~8x against the median), so the gate only
    # requires a majority-healthy, crash-free fleet; exact values are
    # byte-pinned by the committed-results drift gate
    assert results["healthy"] >= DEVICES * 0.75
    assert results["mean_score"] >= 0.7
    assert results["flag_counts"].get("crash", 0) == 0
    assert results["flag_counts"].get("stalled-clock", 0) == 0

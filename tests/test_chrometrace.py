"""Tests for the profiling exporters (chrome trace, flame) and the
clock-ledger attribution."""

import json

import pytest

from repro import obs
from repro.android.profiles import NEXUS4
from repro.blockdev import EMMCDevice, LatencyModel, RAMBlockDevice, SimClock
from repro.dm import create_crypt_device
from repro.dm.crypt import NEXUS4_CRYPTO_BYTE_COST_S
from repro.dm.thin import ThinPool
from repro.errors import ObsError
from tests.oracles.per_block import per_block_baseline

BS = 4096
EXTENT_BLOCKS = 32


def _session_recorder(wall=False):
    """A small end-to-end PDE session (the `repro trace` workload)."""
    from repro.cli import _observed_session

    return _observed_session(0, 4096, wall=wall)


@pytest.fixture(scope="module")
def session():
    return _session_recorder()


def _hotpath_stack(clock):
    """A crypt-over-thin-over-eMMC stack whose first 2 * EXTENT_BLOCKS
    virtual blocks are already mapped, so crypt I/O takes the extent path
    (provisioning writes stay per block)."""
    emmc = EMMCDevice(8 * EXTENT_BLOCKS, clock=clock, latency=LatencyModel())
    pool = ThinPool.format(
        RAMBlockDevice(16), emmc, allocation="sequential", clock=clock,
        costs=NEXUS4.thin_costs,
    )
    pool.create_thin(1, 4 * EXTENT_BLOCKS)
    thin = pool.get_thin(1)
    thin.write_blocks(0, bytes(BS * 2 * EXTENT_BLOCKS))
    return create_crypt_device(
        "hot", thin, key=bytes(32), clock=clock,
        crypto_byte_cost_s=NEXUS4_CRYPTO_BYTE_COST_S,
    )


def _hotpath_clock():
    """The clock of crypt-over-thin-over-eMMC extent traffic."""
    clock = SimClock()
    crypt = _hotpath_stack(clock)
    crypt.write_blocks(0, b"\x5a" * (BS * EXTENT_BLOCKS))
    crypt.read_blocks(0, EXTENT_BLOCKS)
    for block in range(0, EXTENT_BLOCKS, 4):
        crypt.read_block(block)
    return clock


class TestChromeTrace:
    def test_session_trace_is_well_formed(self, session):
        events = obs.chrome_trace_events(session, "sim")
        assert events, "session produced no trace events"
        assert obs.validate_trace_events(events) == []

    def test_every_b_has_matching_e(self, session):
        events = obs.chrome_trace_events(session, "sim")
        begins = [e for e in events if e["ph"] == "B"]
        ends = [e for e in events if e["ph"] == "E"]
        assert len(begins) == len(ends) == len(session.spans)

    def test_per_track_timestamps_monotonic(self, session):
        last = {}
        for event in obs.chrome_trace_events(session, "sim"):
            if event["ph"] == "M":
                continue
            track = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(track, float("-inf"))
            last[track] = event["ts"]

    def test_counter_tracks_carry_deniability_gauges(self, session):
        counters = {
            e["name"]
            for e in obs.chrome_trace_events(session, "sim")
            if e["ph"] == "C"
        }
        assert any(name.startswith("pde.") for name in counters)

    def test_track_metadata_names_layers(self, session):
        events = obs.chrome_trace_events(session, "sim")
        thread_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"system", "ext4", "thin", "pde", "io"} <= thread_names

    def test_wall_timeline_requires_wall_capture(self, session):
        with pytest.raises(ObsError, match="wall"):
            obs.chrome_trace_events(session, "wall")

    def test_wall_timeline_well_formed_and_zero_based(self):
        recorder = _session_recorder(wall=True)
        events = obs.chrome_trace_events(recorder, "wall")
        assert obs.validate_trace_events(events) == []
        timestamps = [e["ts"] for e in events if e["ph"] != "M"]
        assert min(timestamps) == 0.0

    def test_unknown_timeline_rejected(self, session):
        with pytest.raises(ObsError, match="timeline"):
            obs.chrome_trace_events(session, "cpu")

    def test_render_is_valid_json_with_trace_events(self, session):
        parsed = json.loads(obs.render_chrome_trace(session, "sim"))
        assert parsed["metadata"]["timeline"] == "sim"
        assert obs.validate_trace_events(parsed["traceEvents"]) == []

    def test_unclosed_span_closed_and_flagged(self):
        clock = SimClock()
        with obs.observe() as recorder:
            span = recorder.span("pool.commit", clock=clock)
            span.__enter__()  # crash-style unwind: never exited
            clock.advance(1.0, "workload.idle")
            with recorder.span("pool.recover", clock=clock):
                clock.advance(2.0, "workload.idle")
        events = obs.chrome_trace_events(recorder, "sim")
        assert obs.validate_trace_events(events) == []
        unclosed = [
            e for e in events
            if e["ph"] == "E" and e["args"].get("unclosed")
        ]
        assert [e["name"] for e in unclosed] == ["pool.commit"]

    def test_validator_catches_broken_traces(self):
        bad = [
            {"name": "a", "ph": "B", "ts": 1.0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "E", "ts": 2.0, "pid": 1, "tid": 1},
            {"name": "c", "ph": "i", "ts": 0.5, "pid": 1, "tid": 1},
        ]
        problems = obs.validate_trace_events(bad)
        assert any("closes" in p for p in problems)
        assert any("backwards" in p for p in problems)


class TestFlame:
    def test_folded_round_trip(self, session):
        stacks = obs.folded_stacks(session, "sim")
        text = obs.render_folded(stacks)
        parsed = obs.parse_folded(text)
        scale = {
            path: int(round(seconds * 1e6))
            for path, seconds in stacks.items()
            if int(round(seconds * 1e6)) > 0
        }
        assert parsed == scale

    def test_stack_paths_reflect_nesting(self, session):
        stacks = obs.folded_stacks(session, "sim")
        assert "system.initialize;ext4.flush;pool.commit" in stacks

    def test_parse_folded_rejects_garbage(self):
        with pytest.raises(ObsError):
            obs.parse_folded("no-count-line\n")
        with pytest.raises(ObsError):
            obs.parse_folded("path notanumber\n")

    def test_self_time_partition(self, session):
        """Folded-stack counts partition the total root time exactly."""
        stacks = obs.folded_stacks(session, "sim")
        total_roots = sum(
            s.duration for s in session.spans if s.parent is None
        )
        assert sum(stacks.values()) == pytest.approx(total_roots)

    def test_wall_stacks_require_wall_capture(self, session):
        with pytest.raises(ObsError, match="wall"):
            obs.folded_stacks(session, "wall")


def _assert_partitions(report, clock):
    """The report's rows cover the clock delta, with no unknown layer."""
    layers = report["layers"]
    assert "other" not in layers
    assert report["total_s"] == clock.now > 0
    rows = sum(entry["seconds"] for entry in layers.values())
    assert rows == pytest.approx(clock.now, rel=1e-9, abs=0)


class TestAttribution:
    def test_hotpath_is_all_crypt_thin_emmc(self):
        clock = _hotpath_clock()
        report = obs.attribution(clock.charged, clock.now)
        assert set(report["layers"]) == {"crypt", "thin", "emmc"}
        _assert_partitions(report, clock)

    def test_session_layers_partition_the_clock(self, session):
        clock = session.clock
        _assert_partitions(obs.attribution(clock.charged, clock.now), clock)

    def test_extent_ledger_matches_per_block_oracle(self):
        """A 64-block extent write books every charge where the per-block
        path books it: same ledger, bit for bit, and dm-crypt holds its
        CPU time instead of the eMMC leaf that replays it."""
        count = 2 * EXTENT_BLOCKS
        payload = b"\xa7" * (BS * count)

        def ledger(per_block):
            clock = SimClock()
            crypt = _hotpath_stack(clock)
            assert "crypt.cpu" not in clock.charged
            if per_block:
                with per_block_baseline():
                    crypt.write_blocks(0, payload)
            else:
                crypt.write_blocks(0, payload)
            return clock.now, clock.charged

        extent = ledger(per_block=False)
        assert extent == ledger(per_block=True)
        charge = BS * NEXUS4_CRYPTO_BYTE_COST_S
        crypt_s = 0.0
        for _ in range(count):
            crypt_s += charge
        assert extent[1]["crypt.cpu"] == crypt_s
        assert crypt_s == pytest.approx(count * charge, rel=1e-12)

    def test_unknown_reason_rejected(self):
        with pytest.raises(ObsError, match="layer"):
            obs.attribution({"emmc.write": 1.0, "mystery": 2.0}, 3.0)

    def test_render_attribution_lists_layers(self):
        clock = _hotpath_clock()
        text = obs.render_attribution(
            obs.attribution(clock.charged, clock.now)
        )
        for name in ("crypt", "thin", "emmc", "crypt.cpu", "thin.lookup",
                     "emmc.write", "emmc.read"):
            assert name in text
        assert "other" not in text

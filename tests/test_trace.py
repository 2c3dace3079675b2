"""Tests for the I/O tracing device."""

from repro.blockdev import RAMBlockDevice, SimClock
from repro.blockdev.trace import TracingDevice
from repro.crypto import Rng

BS = 4096


def block(byte: int) -> bytes:
    return bytes([byte]) * BS


class TestTracingDevice:
    def test_passthrough_semantics(self):
        base = RAMBlockDevice(8)
        traced = TracingDevice(base)
        traced.write_block(3, block(1))
        assert traced.read_block(3) == block(1)
        assert base.read_block(3) == block(1)

    def test_events_recorded_in_order(self):
        traced = TracingDevice(RAMBlockDevice(8))
        traced.write_block(0, block(1))
        traced.read_block(0)
        traced.discard(0)
        traced.flush()
        assert [e.op for e in traced.events] == [
            "write", "read", "discard", "flush"
        ]
        assert traced.events[0].block == 0
        assert traced.events[3].block == -1

    def test_timestamps_from_clock(self):
        clock = SimClock()
        traced = TracingDevice(RAMBlockDevice(8), clock=clock)
        traced.write_block(0, block(1))
        clock.advance(5.0, "workload.idle")
        traced.write_block(1, block(2))
        assert traced.events[0].at == 0.0
        assert traced.events[1].at == 5.0

    def test_op_counts_and_filtering(self):
        traced = TracingDevice(RAMBlockDevice(8))
        for i in range(3):
            traced.write_block(i, block(i))
        traced.read_block(0)
        assert len(traced.ops("write")) == 3
        assert len(traced.ops("read")) == 1
        assert len(traced.ops()) == 4

    def test_peek_poke_not_traced(self):
        traced = TracingDevice(RAMBlockDevice(8))
        traced.poke(0, block(9))
        assert traced.peek(0) == block(9)
        assert traced.events == []

    def test_clear(self):
        traced = TracingDevice(RAMBlockDevice(8))
        traced.write_block(0, block(1))
        traced.clear()
        assert traced.events == []

    def test_sequentiality_metric(self):
        traced = TracingDevice(RAMBlockDevice(64))
        for i in range(10):
            traced.write_block(i, block(1))
        assert traced.sequentiality("write") == 1.0
        traced.clear()
        for i in (5, 1, 9, 3, 30):
            traced.write_block(i, block(1))
        assert traced.sequentiality("write") == 0.0

    def test_sequentiality_undefined_below_two_ops(self):
        """No adjacency evidence -> 0.0, never 'perfectly sequential'."""
        traced = TracingDevice(RAMBlockDevice(8))
        assert traced.sequentiality("write") == 0.0
        traced.write_block(0, block(1))
        assert traced.sequentiality("write") == 0.0
        traced.write_block(1, block(2))
        assert traced.sequentiality("write") == 1.0

    def test_events_published_to_sink(self):
        seen = []
        traced = TracingDevice(RAMBlockDevice(8), sink=seen.append)
        traced.write_block(0, block(1))
        traced.read_block(0)
        assert [e.op for e in seen] == ["write", "read"]
        assert seen == traced.events

    def test_events_published_to_obs_recorder(self):
        from repro import obs

        traced = TracingDevice(RAMBlockDevice(8))
        traced.write_block(0, block(1))  # no recorder: not retained
        with obs.observe() as recorder:
            traced.write_block(1, block(2))
            traced.flush()
        traced.write_block(2, block(3))  # after the window: not retained
        assert [e.op for e in recorder.io_events] == ["write", "flush"]
        assert len(traced.events) == 4  # local list keeps everything


class TestTraceRevealsAllocationStrategy:
    """The trace-level view of the paper's random-allocation argument."""

    def _pool_write_trace(self, allocation: str):
        from repro.dm.thin import ThinPool

        data = TracingDevice(RAMBlockDevice(256))
        md = RAMBlockDevice(16)
        pool = ThinPool.format(md, data, allocation=allocation, rng=Rng(3))
        pool.create_thin(1, 256)
        thin = pool.get_thin(1)
        for i in range(64):
            thin.write_block(i, block(i))
        return data

    def test_sequential_pool_writes_sequentially(self):
        trace = self._pool_write_trace("sequential")
        assert trace.sequentiality("write") > 0.9

    def test_random_pool_writes_scattered(self):
        trace = self._pool_write_trace("random")
        assert trace.sequentiality("write") < 0.2

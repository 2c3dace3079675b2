"""Tests for the bench harness: workloads, stacks, runners, reporting."""

import pytest

from repro.bench import (
    FIG4_SETTINGS,
    ThroughputSample,
    bonnie_block_read,
    bonnie_block_write,
    build_defy_stack,
    build_fig4_stack,
    build_hive_stack,
    build_raw_ext4_stack,
    render_fig4,
    render_table,
    render_table1,
    render_table2,
    run_fig4,
    run_table1,
    sequential_read,
    sequential_write,
)
from repro.android.profiles import NANDSIM
from repro.bench.runners import OverheadRow, TimingRow
from repro.util.stats import summarize

MB = 1024 * 1024


class TestThroughputSample:
    def test_units(self):
        s = ThroughputSample(nbytes=2_000_000, seconds=2.0)
        assert s.bytes_per_second == 1_000_000
        assert s.kb_per_second == 1000.0
        assert s.mb_per_second == 1.0

    def test_zero_time(self):
        assert ThroughputSample(10, 0.0).bytes_per_second == float("inf")


class TestWorkloads:
    def make_stack(self):
        return build_raw_ext4_stack(NANDSIM, 4096, seed=0)

    def test_sequential_write_then_read(self):
        stack = self.make_stack()
        w = sequential_write(stack.fs, stack.clock, "/f.bin", 2 * MB)
        assert w.nbytes == 2 * MB
        assert w.seconds > 0
        r = sequential_read(stack.fs, stack.clock, "/f.bin")
        assert r.nbytes == 2 * MB

    def test_bonnie_workloads(self):
        stack = self.make_stack()
        w = bonnie_block_write(stack.fs, stack.clock, "/b.bin", MB)
        r = bonnie_block_read(stack.fs, stack.clock, "/b.bin")
        assert w.nbytes == r.nbytes == MB

    def test_write_content_is_persisted(self):
        stack = self.make_stack()
        sequential_write(stack.fs, stack.clock, "/f.bin", MB)
        assert stack.fs.stat("/f.bin").size == MB


class TestStacks:
    @pytest.mark.parametrize("setting", FIG4_SETTINGS)
    def test_every_fig4_stack_builds_and_works(self, setting):
        stack = build_fig4_stack(setting, seed=1, userdata_blocks=8192)
        assert stack.name == setting
        stack.fs.write_file("/probe.bin", b"p" * 8192)
        assert stack.fs.read_file("/probe.bin") == b"p" * 8192

    def test_unknown_setting(self):
        with pytest.raises(ValueError):
            build_fig4_stack("macbook", seed=0)

    def test_defy_stack(self):
        stack = build_defy_stack(num_blocks=2048, seed=0)
        stack.fs.write_file("/x", b"y" * 100000)
        assert stack.fs.read_file("/x") == b"y" * 100000
        assert stack.clock.now > 0

    def test_hive_stack(self):
        stack = build_hive_stack(num_blocks=2048, seed=0)
        stack.fs.write_file("/x", b"z" * 50000)
        assert stack.fs.read_file("/x") == b"z" * 50000

    def test_encrypted_stacks_slower_than_raw(self):
        raw = build_raw_ext4_stack(NANDSIM, 4096, seed=0)
        defy = build_defy_stack(num_blocks=4096, seed=0)
        raw_s = sequential_write(raw.fs, raw.clock, "/t", MB)
        defy_s = sequential_write(defy.fs, defy.clock, "/t", MB)
        assert defy_s.bytes_per_second < raw_s.bytes_per_second


class TestRunners:
    def test_run_fig4_small(self):
        results = run_fig4(
            settings=("android", "mc-p"), trials=2, file_bytes=MB,
            userdata_blocks=8192, seed=9,
        )
        assert set(results) == {"android", "mc-p"}
        for metrics in results.values():
            assert set(metrics) == {"dd-Write", "dd-Read", "B-Write", "B-Read"}
            for summary in metrics.values():
                assert summary.n == 2
                assert summary.mean > 0

    def test_run_table1_small(self):
        rows = run_table1(file_bytes=MB, seed=9)
        names = [r.system for r in rows]
        assert names == ["DEFY", "HIVE", "MobiCeal"]
        for row in rows:
            assert 0 <= row.overhead < 1
            assert row.encrypted_mb_s < row.ext4_mb_s


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["a", "bee"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_render_fig4(self):
        results = {
            "android": {
                m: summarize([100.0, 110.0])
                for m in ("dd-Write", "dd-Read", "B-Write", "B-Read")
            }
        }
        text = render_fig4(results)
        assert "android" in text and "KB/s" in text

    def test_render_table1(self):
        text = render_table1(
            [OverheadRow("X", ext4_mb_s=100.0, encrypted_mb_s=50.0)]
        )
        assert "50.00%" in text

    def test_render_table2_handles_na(self):
        row = TimingRow(
            "Android FDE",
            initialization=summarize([1103.0]),
            booting=summarize([0.29]),
        )
        text = render_table2([row])
        assert "N/A" in text
        assert "18min23s" in text


class TestCharWorkloads:
    def test_char_write_read_roundtrip(self):
        from repro.bench import bonnie_char_read, bonnie_char_write

        stack = build_raw_ext4_stack(NANDSIM, 4096, seed=0)
        w = bonnie_char_write(stack.fs, stack.clock, "/c.bin", MB)
        r = bonnie_char_read(stack.fs, stack.clock, "/c.bin")
        assert w.nbytes == r.nbytes == MB
        assert stack.fs.stat("/c.bin").size == MB

    def test_char_tests_cpu_bound(self):
        """putc throughput is far below the medium's raw bandwidth."""
        from repro.bench import bonnie_char_write, sequential_write

        stack = build_raw_ext4_stack(NANDSIM, 4096, seed=0)
        block = sequential_write(stack.fs, stack.clock, "/b.bin", MB)
        char = bonnie_char_write(stack.fs, stack.clock, "/c.bin", MB)
        assert char.bytes_per_second < 0.2 * block.bytes_per_second

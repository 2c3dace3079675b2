"""Unit tests for the fault-injection layer (FaultyBlockDevice, FaultPlan,
crash points) and the recovery-I/O accounting it relies on."""

import sys
import threading

import pytest

from repro.blockdev.device import RAMBlockDevice, in_recovery, recovery_io
from repro.blockdev.faults import (
    REGISTRY,
    SECTOR_SIZE,
    FaultPlan,
    FaultyBlockDevice,
    crash_point,
    inject,
)
from repro.dm.thin.metadata import MetadataStore, PoolMetadata, VolumeRecord
from repro.errors import PowerCutError, TransientIOError

BS = 4096


def make_faulty(blocks=64, plan=None):
    return FaultyBlockDevice(RAMBlockDevice(blocks, BS), plan=plan)


def block(byte):
    return bytes([byte]) * BS


class TestTransparentPassThrough:
    def test_unarmed_device_is_transparent(self):
        dev = make_faulty()
        dev.write_block(3, block(0xAB))
        assert dev.read_block(3) == block(0xAB)
        dev.flush()
        dev.discard(3)
        assert dev.writes_since_arm == 0  # index only counts while armed

    def test_geometry_matches_base(self):
        dev = make_faulty(blocks=17)
        assert dev.num_blocks == 17
        assert dev.block_size == BS


class TestPowerCut:
    def test_cut_at_index_kills_device(self):
        dev = make_faulty()
        dev.arm(FaultPlan(seed=7, power_cut_after_writes=2))
        dev.write_block(0, block(1))
        dev.write_block(1, block(2))
        with pytest.raises(PowerCutError):
            dev.write_block(2, block(3))
        # completed writes are durable; the device is dead until revive()
        with pytest.raises(PowerCutError):
            dev.read_block(0)
        with pytest.raises(PowerCutError):
            dev.write_block(5, block(9))
        dev.revive()
        assert dev.read_block(0) == block(1)
        assert dev.read_block(1) == block(2)

    def test_interrupted_write_lands_as_sector_prefix(self):
        # sweep seeds until we see a strictly partial (torn) write
        saw_partial = False
        for seed in range(40):
            dev = make_faulty()
            dev.poke(0, block(0x00))
            dev.arm(FaultPlan(seed=seed, power_cut_after_writes=0))
            with pytest.raises(PowerCutError):
                dev.write_block(0, block(0xFF))
            data = dev.peek(0)
            assert dev.torn_write is not None
            _, kept = dev.torn_write
            assert data[: kept * SECTOR_SIZE] == b"\xff" * (kept * SECTOR_SIZE)
            assert data[kept * SECTOR_SIZE :] == b"\x00" * (BS - kept * SECTOR_SIZE)
            if 0 < kept < BS // SECTOR_SIZE:
                saw_partial = True
        assert saw_partial

    def test_torn_writes_disabled_drops_interrupted_write(self):
        dev = make_faulty()
        dev.poke(0, block(0x11))
        dev.arm(
            FaultPlan(seed=3, power_cut_after_writes=0, torn_writes=False)
        )
        with pytest.raises(PowerCutError):
            dev.write_block(0, block(0xFF))
        assert dev.peek(0) == block(0x11)

    def test_plan_is_single_shot(self):
        plan = FaultPlan(seed=1, power_cut_after_writes=1)
        dev = make_faulty(plan=plan)
        dev.write_block(0, block(1))
        with pytest.raises(PowerCutError):
            dev.write_block(1, block(2))
        assert plan.fired
        dev.revive(disarm=False)
        dev.write_block(2, block(3))  # fired plan does not re-trigger
        assert dev.read_block(2) == block(3)


    def test_cut_extent_books_the_blocks_that_landed(self):
        dev = make_faulty()
        dev.arm(FaultPlan(seed=7, power_cut_after_writes=2))
        with pytest.raises(PowerCutError):
            dev.write_blocks(0, block(1) + block(2) + block(3) + block(4))
        assert dev.stats.writes == dev.base.stats.writes == 2
        assert dev.stats.bytes_written == 2 * BS


class TestVolatileCache:
    def test_unflushed_writes_may_be_dropped(self):
        dropped_somewhere = False
        for seed in range(30):
            dev = make_faulty()
            for i in range(8):
                dev.poke(i, block(0x00))
            dev.arm(
                FaultPlan(
                    seed=seed,
                    power_cut_after_writes=8,
                    volatile_cache=True,
                    survive_probability=0.5,
                    torn_writes=False,
                )
            )
            for i in range(8):
                dev.write_block(i, block(0xEE))
            with pytest.raises(PowerCutError):
                dev.write_block(8, block(0xEE))
            for i in range(8):
                data = dev.peek(i)
                assert data in (block(0x00), block(0xEE))  # never torn
                if data == block(0x00):
                    dropped_somewhere = True
            assert dev.dropped_writes >= 0
        assert dropped_somewhere

    def test_flush_makes_cache_window_durable(self):
        dev = make_faulty()
        dev.poke(0, block(0x00))
        dev.arm(
            FaultPlan(
                seed=5,
                power_cut_after_writes=1,
                volatile_cache=True,
                survive_probability=0.0,  # drop everything unflushed
                torn_writes=False,
            )
        )
        dev.write_block(0, block(0xCC))
        dev.flush()  # now durable: the cache window is empty again
        with pytest.raises(PowerCutError):
            dev.write_block(1, block(0xDD))
        assert dev.peek(0) == block(0xCC)


class TestTransientErrorsAndBitrot:
    def test_write_error_rate_injects_bounded_errors(self):
        dev = make_faulty()
        dev.arm(
            FaultPlan(seed=11, write_error_rate=1.0, transient_error_budget=2)
        )
        for _ in range(2):
            with pytest.raises(TransientIOError):
                dev.write_block(0, block(1))
        dev.write_block(0, block(1))  # budget exhausted: I/O flows again
        assert dev.plan.errors_injected == 2

    def test_read_errors_leave_medium_intact(self):
        dev = make_faulty()
        dev.write_block(0, block(0x42))
        dev.arm(
            FaultPlan(seed=2, read_error_rate=1.0, transient_error_budget=1)
        )
        with pytest.raises(TransientIOError):
            dev.read_block(0)
        assert dev.read_block(0) == block(0x42)

    def test_failed_extent_read_books_the_blocks_read(self):
        # the wrapper books exactly the blocks its base served before the
        # error; sweep seeds until an error lands mid-extent
        saw_partial = False
        for seed in range(40):
            dev = make_faulty()
            dev.arm(FaultPlan(seed=seed, read_error_rate=0.5))
            try:
                dev.read_blocks(0, 4)
            except TransientIOError:
                pass
            assert dev.stats.reads == dev.base.stats.reads
            saw_partial |= 0 < dev.base.stats.reads < 4
        assert saw_partial

    def test_bitrot_flips_exactly_one_bit_and_not_the_medium(self):
        dev = make_faulty()
        dev.write_block(0, block(0x00))
        dev.arm(FaultPlan(seed=9, bitrot_rate=1.0))
        data = dev.read_block(0)
        flipped = sum(bin(b).count("1") for b in data)
        assert flipped == 1
        assert dev.bitrot_events == 1
        assert dev.peek(0) == block(0x00)  # read-disturb only

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(read_error_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(crash_point_hit=0)


class TestCrashPoints:
    def test_noop_without_active_plan(self):
        crash_point("some.site")  # no plan: must be silent and free

    def test_named_point_fires_power_cut(self):
        dev = make_faulty()
        plan = FaultPlan(seed=1, crash_point="unit.test.site")
        dev.arm(plan)
        with inject(plan):
            dev.write_block(0, block(1))
            with pytest.raises(PowerCutError):
                crash_point("unit.test.site")
        assert plan.fired
        assert dev.is_dead
        dev.revive()
        assert dev.peek(0) == block(1)

    def test_nth_hit_selection(self):
        plan = FaultPlan(seed=1, crash_point="site.x", crash_point_hit=3)
        with inject(plan):
            crash_point("site.x")
            crash_point("site.x")
            with pytest.raises(PowerCutError):
                crash_point("site.x")

    def test_registry_counts_hits(self):
        REGISTRY.reset()
        plan = FaultPlan(seed=1)  # active but fires nothing
        with inject(plan):
            crash_point("reg.a")
            crash_point("reg.a")
            crash_point("reg.b")
        assert REGISTRY.hits("reg.a") == 2
        assert REGISTRY.hits("reg.b") == 1
        assert REGISTRY.names() == ["reg.a", "reg.b"]
        REGISTRY.reset()

    def test_instrumented_commit_reaches_named_sites(self):
        """The shipped crash points in MetadataStore are actually wired."""
        REGISTRY.reset()
        store = MetadataStore(RAMBlockDevice(32, BS))
        meta = PoolMetadata.fresh(64)
        plan = FaultPlan(seed=1)
        with inject(plan):
            store.format(meta)
        assert REGISTRY.hits("thin.meta.area-written") >= 1
        assert REGISTRY.hits("thin.meta.superblock-written") >= 1
        REGISTRY.reset()

    def test_plan_fires_only_in_the_injecting_thread(self):
        """A plan injected on one thread is invisible to every other: a
        daemon worker reaching the named site while another worker runs
        a crash sweep must not lose power."""
        REGISTRY.reset()
        plan = FaultPlan(seed=1, crash_point="ctx.site")
        outcome = {}

        def other_thread():
            try:
                crash_point("ctx.site")
                outcome["other"] = "ok"
            except PowerCutError:  # pragma: no cover - the bug
                outcome["other"] = "power cut"

        with inject(plan):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert outcome == {"other": "ok"}
            assert not plan.fired
            assert REGISTRY.hits("ctx.site") == 0
            with pytest.raises(PowerCutError):
                crash_point("ctx.site")
        assert plan.fired
        REGISTRY.reset()


class TestRecoveryIOAccounting:
    """Satellite: recovery I/O must never be booked as workload I/O."""

    def test_recovery_io_context_segregates_counters(self):
        dev = RAMBlockDevice(8, BS)
        dev.write_block(0, block(1))
        before = dev.stats.snapshot()
        with recovery_io():
            dev.read_block(0)
            dev.write_block(1, block(2))
        delta = dev.stats.delta(before)
        assert delta.reads == 0 and delta.writes == 0
        assert delta.bytes_read == 0 and delta.bytes_written == 0
        assert delta.recovery_reads == 1 and delta.recovery_writes == 1

    def test_recovery_section_is_scoped_to_its_thread(self):
        """One thread's recovery never reclassifies another thread's I/O.

        The daemon serves devices from a thread pool: thread A holds a
        recovery section open (a crash→attach in progress) while thread B
        writes to a different device; B's write is workload I/O.
        """
        recovering, other = RAMBlockDevice(8, BS), RAMBlockDevice(8, BS)
        entered, release = threading.Event(), threading.Event()
        seen = {}

        def recover():
            with recovery_io():
                recovering.write_block(0, block(1))
                entered.set()
                release.wait(timeout=10)

        def work():
            seen["in_recovery"] = in_recovery()
            other.write_block(0, block(2))

        a = threading.Thread(target=recover)
        a.start()
        try:
            assert entered.wait(timeout=10)
            b = threading.Thread(target=work)
            b.start()
            b.join(timeout=10)
            assert not b.is_alive()
        finally:
            release.set()
            a.join(timeout=10)
        assert not a.is_alive()
        assert seen == {"in_recovery": False}
        assert other.stats.writes == 1 and other.stats.recovery_writes == 0
        assert recovering.stats.recovery_writes == 1
        assert recovering.stats.writes == 0

    def test_concurrent_recovery_sections_never_leak_depth(self):
        """Many threads entering/leaving recovery at once: no lost update."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        devices = [RAMBlockDevice(8, BS) for _ in range(8)]
        rounds = 200

        def churn(dev):
            for _ in range(rounds):
                with recovery_io():
                    with recovery_io():
                        pass
                dev.write_block(0, block(3))

        threads = [threading.Thread(target=churn, args=(d,)) for d in devices]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert not in_recovery()
        for dev in devices:
            assert dev.stats.writes == rounds
            assert dev.stats.recovery_writes == 0

    def test_metadata_recover_counts_as_recovery_io(self):
        dev = RAMBlockDevice(32, BS)
        store = MetadataStore(dev)
        meta = PoolMetadata.fresh(64)
        meta.volumes[1] = VolumeRecord(1, 128)
        store.format(meta)
        before = dev.stats.snapshot()
        recovered, report = MetadataStore(dev).recover()
        delta = dev.stats.delta(before)
        assert delta.reads == 0 and delta.writes == 0
        assert delta.recovery_reads > 0
        assert recovered.to_payload() == meta.to_payload()
        assert not report.superblock_repaired

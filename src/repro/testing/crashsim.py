"""Crash-recovery simulation: "crash at every write index, then recover".

The harness turns MobiCeal's crash-safety claims into something sweepable:

1. a :class:`CrashScenario` builds a stack over a
   :class:`~repro.blockdev.faults.FaultyBlockDevice`, runs a deterministic
   workload, and knows how to recover and self-check afterwards;
2. :func:`crash_sweep` first runs the workload once uninterrupted to count
   its device writes, then re-runs it once per write index ``k`` with a
   power cut injected at exactly that write, recovering and checking each
   time;
3. the per-index outcomes aggregate into a :class:`SweepReport` (recovery
   rate, failing indices) consumed by the tests, the crash benchmarks and
   the ``repro crashsim`` CLI.

A scenario passes only if *every* crash index recovers to a state where
fsck is clean, the pool invariants hold and pre-crash durable data is
intact — the strongest statement this simulator can make short of a proof.

See ``docs/fault_model.md`` for the fault taxonomy and for how to write a
new scenario.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

from repro.adversary.game import AccessPattern
from repro.adversary.harnesses import MobiCealHarness
from repro.android.phone import Phone
from repro.blockdev.device import BlockDevice, RAMBlockDevice, SubDevice
from repro.blockdev.faults import FaultPlan, FaultyBlockDevice, inject
from repro.core.config import MobiCealConfig
from repro.core.system import MobiCealSystem
from repro.crypto.rng import Rng
from repro.dm.thin.metadata import MetadataStore, PoolMetadata, VolumeRecord
from repro.dm.thin.pool import ThinPool
from repro.errors import PowerCutError
from repro.fs.ext4 import Ext4Filesystem
from repro.fs.fsck import fsck_ext4


# ---------------------------------------------------------------------------
# Invariant checks
# ---------------------------------------------------------------------------


def pool_invariants(pool: ThinPool) -> List[str]:
    """Check the thin pool's cross-volume invariants; return violations.

    * every mapped physical block is marked allocated in the global bitmap;
    * no physical block is mapped by two (volume, vblock) pairs — the
      deniability-critical invariant: a double mapping would let a hidden
      write clobber public data (or vice versa);
    * the bitmap population equals the number of mappings (no leaked
      "allocated but unowned" blocks);
    * the allocator's free count agrees with the bitmap;
    * no allocation is left uncommitted (recovery must close the book).
    """
    issues: List[str] = []
    meta = pool.metadata
    owners = {}
    for vol_id in sorted(meta.volumes):
        record = meta.volumes[vol_id]
        for vblock in sorted(record.mappings):
            pblock = record.mappings[vblock]
            if not meta.bitmap.test(pblock):
                issues.append(
                    f"volume {vol_id} maps vblock {vblock} to pblock "
                    f"{pblock} which the bitmap says is free"
                )
            prior = owners.get(pblock)
            if prior is not None:
                issues.append(
                    f"pblock {pblock} double-mapped: volume {prior[0]} "
                    f"vblock {prior[1]} and volume {vol_id} vblock {vblock}"
                )
            else:
                owners[pblock] = (vol_id, vblock)
    allocated = meta.bitmap.allocated_count
    if allocated != len(owners):
        issues.append(
            f"bitmap marks {allocated} blocks allocated but {len(owners)} "
            "are mapped by a volume"
        )
    expected_free = meta.num_data_blocks - allocated
    if pool.free_data_blocks != expected_free:
        issues.append(
            f"allocator reports {pool.free_data_blocks} free blocks, "
            f"bitmap implies {expected_free}"
        )
    if pool.uncommitted_allocations:
        issues.append(
            f"{len(pool.uncommitted_allocations)} allocations left "
            "uncommitted after recovery"
        )
    return issues


# ---------------------------------------------------------------------------
# Sweep outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrashOutcome:
    """Result of one crash-and-recover run at a single write index."""

    write_index: int
    crashed: bool               # the injected cut actually fired
    issues: Tuple[str, ...]     # invariant / fsck / durability violations
    error: Optional[str]        # unexpected exception (workload or recovery)

    @property
    def ok(self) -> bool:
        return not self.issues and self.error is None


@dataclass
class SweepReport:
    """Aggregate of a full crash sweep over one scenario."""

    scenario: str
    total_writes: int
    outcomes: List[CrashOutcome] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def crashes(self) -> int:
        return sum(1 for o in self.outcomes if o.crashed)

    @property
    def failures(self) -> List[CrashOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def recovery_rate(self) -> float:
        if not self.outcomes:
            return 1.0
        return 1.0 - len(self.failures) / len(self.outcomes)

    def render(self) -> str:
        lines = [
            f"scenario {self.scenario}: workload performs "
            f"{self.total_writes} device writes",
            f"  crash indices swept : {self.attempted}",
            f"  cuts fired          : {self.crashes}",
            f"  recovered cleanly   : {self.attempted - len(self.failures)}"
            f" ({self.recovery_rate:.1%})",
        ]
        for outcome in self.failures[:10]:
            what = outcome.error or "; ".join(outcome.issues)
            lines.append(f"  FAIL @ write {outcome.write_index}: {what}")
        if len(self.failures) > 10:
            lines.append(f"  ... and {len(self.failures) - 10} more failures")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Scenario protocol and the sweep driver
# ---------------------------------------------------------------------------


class CrashScenario(ABC):
    """One crash-recovery experiment over a faulty device.

    Lifecycle per run: :meth:`build` constructs the stack (fault injection
    not yet armed, so setup writes are free), the driver arms a plan on
    :attr:`faulty`, :meth:`workload` runs until the cut fires, then the
    driver revives the medium and calls :meth:`recover_and_check`.

    Scenarios must be deterministic in *seed*: the sweep relies on every
    run issuing the identical write sequence up to the cut.
    """

    name: str = "scenario"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.faulty: FaultyBlockDevice = None  # type: ignore[assignment]

    @abstractmethod
    def build(self) -> None:
        """Construct the stack; must set :attr:`faulty`."""

    @abstractmethod
    def workload(self) -> None:
        """Run the deterministic workload (writes through ``faulty``)."""

    @abstractmethod
    def recover_and_check(self) -> List[str]:
        """Recover the stack from the medium; return invariant violations."""


ScenarioFactory = Callable[[int], CrashScenario]


def count_workload_writes(factory: ScenarioFactory, seed: int = 0) -> int:
    """Run the workload once, uninterrupted, and count its device writes."""
    probe = factory(seed)
    probe.build()
    probe.faulty.arm(FaultPlan(seed=seed))  # benign plan: counts writes
    probe.workload()
    return probe.faulty.writes_since_arm


def crash_sweep(
    factory: ScenarioFactory,
    indices: Optional[Iterable[int]] = None,
    seed: int = 0,
) -> SweepReport:
    """Crash at each write index, recover, check; aggregate the outcomes.

    *indices* defaults to every write index of the workload (exhaustive);
    pass a subrange or a stride for the cheaper tier-1 variant.
    """
    total = count_workload_writes(factory, seed)
    sweep = range(total) if indices is None else indices
    first = factory(seed)
    report = SweepReport(scenario=first.name, total_writes=total)
    for k in sweep:
        scenario = factory(seed)
        scenario.build()
        plan = FaultPlan(seed=seed * 100_003 + k, power_cut_after_writes=k)
        scenario.faulty.arm(plan)
        crashed = False
        error: Optional[str] = None
        issues: List[str] = []
        try:
            with inject(plan):
                scenario.workload()
        except PowerCutError:
            crashed = True
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            error = f"workload raised {type(exc).__name__}: {exc}"
        if error is None:
            scenario.faulty.revive()
            try:
                issues = list(scenario.recover_and_check())
            except Exception as exc:  # noqa: BLE001
                error = f"recovery raised {type(exc).__name__}: {exc}"
        report.outcomes.append(
            CrashOutcome(
                write_index=k,
                crashed=crashed,
                issues=tuple(issues),
                error=error,
            )
        )
    return report


def stride_indices(total: int, stride: int, offset: int = 0) -> List[int]:
    """Every *stride*-th write index — the cheap tier-1 sampling."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    return list(range(offset, total, stride))


# ---------------------------------------------------------------------------
# Scenario: the MetadataStore two-phase commit
# ---------------------------------------------------------------------------


class MetadataCommitScenario(CrashScenario):
    """Crash inside :meth:`MetadataStore.commit`.

    Checks the shadow-paging contract: whatever write the cut lands on, a
    subsequent :meth:`MetadataStore.recover` returns either the last
    generation whose commit *returned* or the one that was being written —
    never a torn hybrid, and never anything older.
    """

    name = "metadata"
    META_BLOCKS = 48
    DATA_BLOCKS = 256
    COMMITS = 3

    def build(self) -> None:
        base = RAMBlockDevice(self.META_BLOCKS, 4096)
        self.faulty = FaultyBlockDevice(base)
        self.store = MetadataStore(self.faulty)
        self.meta = PoolMetadata.fresh(self.DATA_BLOCKS)
        self.store.format(self.meta)
        rng = Rng(self.seed).fork("meta-scenario")
        self._mutations = [
            [rng.randint(0, self.DATA_BLOCKS - 1) for _ in range(8)]
            for _ in range(self.COMMITS)
        ]
        # acceptable recovery targets: last completed commit + in-flight
        self.last_completed = self.meta.to_payload()
        self.in_flight: Optional[bytes] = None

    def workload(self) -> None:
        for commit_no, blocks in enumerate(self._mutations):
            vol_id = commit_no + 1
            self.meta.volumes.setdefault(vol_id, VolumeRecord(vol_id, 1024))
            record = self.meta.volumes[vol_id]
            for vblock, pblock in enumerate(blocks):
                if not self.meta.bitmap.test(pblock):
                    self.meta.bitmap.set(pblock)
                    record.map(vblock, pblock)
            self.in_flight = self.meta.to_payload()
            self.store.commit(self.meta)
            self.last_completed = self.in_flight
            self.in_flight = None

    def recover_and_check(self) -> List[str]:
        issues: List[str] = []
        store = MetadataStore(self.faulty)
        metadata, report = store.recover()
        payload = metadata.to_payload()
        acceptable = [self.last_completed]
        if self.in_flight is not None:
            acceptable.append(self.in_flight)
        if payload not in acceptable:
            issues.append(
                "recovered metadata is neither the last completed commit "
                "nor the interrupted one (generation "
                f"{report.generation}, tx {report.transaction_id})"
            )
        # the recovered state must itself survive a reload round-trip
        reloaded = store.load()
        if reloaded.to_payload() != payload:
            issues.append("recovered metadata does not reload identically")
        return issues


# ---------------------------------------------------------------------------
# Scenario: the thin pool (mappings + bitmap + discard passdown)
# ---------------------------------------------------------------------------


class ThinPoolScenario(CrashScenario):
    """Crash across provisioning, discard and commit of a shared pool."""

    name = "pool"
    META_BLOCKS = 16
    DATA_BLOCKS = 96
    VOLUMES = 3

    def _devices(self) -> Tuple[BlockDevice, BlockDevice]:
        meta = SubDevice(self.faulty, 0, self.META_BLOCKS)
        data = SubDevice(self.faulty, self.META_BLOCKS, self.DATA_BLOCKS)
        return meta, data

    def build(self) -> None:
        base = RAMBlockDevice(self.META_BLOCKS + self.DATA_BLOCKS, 4096)
        self.faulty = FaultyBlockDevice(base)
        meta_dev, data_dev = self._devices()
        self.pool = ThinPool.format(
            meta_dev, data_dev,
            allocation="random", rng=Rng(self.seed).fork("alloc"),
        )
        for vol_id in range(1, self.VOLUMES + 1):
            self.pool.create_thin(vol_id, self.DATA_BLOCKS)
        self.pool.commit()
        self._rng = Rng(self.seed).fork("pool-workload")

    def workload(self) -> None:
        rng = self._rng
        block = b"\xaa" * self.pool.block_size
        thins = [self.pool.get_thin(v) for v in range(1, self.VOLUMES + 1)]
        for round_no in range(3):
            for thin in thins:
                for _ in range(4):
                    thin.write_block(rng.randint(0, 31), block)
            self.pool.commit()
            # unmap a few random blocks (exercises deferred discard passdown)
            for thin in thins:
                thin.discard(rng.randint(0, 31))
            self.pool.commit()

    def recover_and_check(self) -> List[str]:
        meta_dev, data_dev = self._devices()
        pool, _report = ThinPool.recover(
            meta_dev, data_dev,
            allocation="random", rng=Rng(self.seed).fork("alloc-recover"),
        )
        return pool_invariants(pool)


# ---------------------------------------------------------------------------
# Scenario: ext4 metadata journaling
# ---------------------------------------------------------------------------


class Ext4FlushScenario(CrashScenario):
    """Crash inside ext4 flushes (journal commit + checkpoint).

    A durable baseline file is created and flushed before injection is
    armed; every recovery must find it intact and fsck-clean no matter
    where the cut lands in the later metadata-heavy workload.
    """

    name = "ext4"
    NUM_BLOCKS = 512
    DURABLE = b"must survive every crash index" * 16

    def build(self) -> None:
        base = RAMBlockDevice(self.NUM_BLOCKS, 4096)
        self.faulty = FaultyBlockDevice(base)
        fs = Ext4Filesystem(self.faulty, journal=True)
        fs.format()
        fs.mount()
        fs.write_file("/durable.bin", self.DURABLE)
        fs.flush()
        self.fs = fs
        self._rng = Rng(self.seed).fork("ext4-workload")

    def workload(self) -> None:
        fs, rng = self.fs, self._rng
        fs.mkdir("/work")
        for i in range(4):
            fs.write_file(f"/work/f{i}", rng.random_bytes(5000))
        fs.flush()
        fs.rename("/work/f0", "/work/renamed")
        fs.unlink("/work/f1")
        fs.write_file("/work/f2", rng.random_bytes(9000))
        fs.flush()
        fs.unlink("/work/renamed")
        fs.write_file("/late.bin", rng.random_bytes(3000))
        fs.flush()

    def recover_and_check(self) -> List[str]:
        issues: List[str] = []
        fs = Ext4Filesystem(self.faulty)  # journal size read from superblock
        fs.mount()
        issues.extend(f"fsck: {msg}" for msg in fsck_ext4(fs))
        if not fs.exists("/durable.bin"):
            issues.append("durable file vanished")
        elif fs.read_file("/durable.bin") != self.DURABLE:
            issues.append("durable file corrupted")
        # a post-recovery write cycle must also work
        fs.write_file("/post-recovery", b"x" * 100)
        fs.flush()
        issues.extend(f"fsck(after write): {msg}" for msg in fsck_ext4(fs))
        return issues


# ---------------------------------------------------------------------------
# Scenario: the full MobiCeal system
# ---------------------------------------------------------------------------


class SystemCrashScenario(CrashScenario):
    """Crash the whole PDE stack mid-use, recover with a crash boot.

    The workload spans public writes, dummy bursts, the fast switch into
    the hidden mode, hidden writes and GC; recovery re-attaches the system
    the way a rebooting phone does and checks both volumes' filesystems,
    the pool invariants, and that pre-crash durable data (public *and*
    hidden) survived.
    """

    name = "system"
    USERDATA_BLOCKS = 2048
    DECOY = "decoy-pw"
    HIDDEN = "hidden-pw"
    PUBLIC_DURABLE = b"public baseline data " * 64
    HIDDEN_DURABLE = b"hidden baseline data " * 64

    def build(self) -> None:
        base = RAMBlockDevice(self.USERDATA_BLOCKS, 4096)
        self.faulty = FaultyBlockDevice(base)
        self.phone = Phone(seed=self.seed, userdata_device=self.faulty)
        self.config = MobiCealConfig(num_volumes=4, fs_journal=True)
        system = MobiCealSystem(self.phone, self.config)
        self.phone.framework.power_on()
        system.initialize(self.DECOY, hidden_passwords=(self.HIDDEN,))
        # durable hidden baseline
        system.boot_with_password(self.HIDDEN)
        system.store_file("/hidden-durable.bin", self.HIDDEN_DURABLE)
        system.sync()
        system.reboot()
        # durable public baseline; leave the system live in public mode
        system.boot_with_password(self.DECOY)
        system.start_framework()
        system.store_file("/public-durable.bin", self.PUBLIC_DURABLE)
        system.sync()
        self.system = system
        self._rng = Rng(self.seed).fork("system-workload")

    def workload(self) -> None:
        system, rng = self.system, self._rng
        for i in range(3):
            system.store_file(f"/doc{i}.bin", rng.random_bytes(6000))
        system.sync()
        assert system.switch_to_hidden(self.HIDDEN)
        for i in range(2):
            system.store_file(f"/secret{i}.bin", rng.random_bytes(6000))
        system.sync()
        system.run_gc()
        system.sync()

    def recover_and_check(self) -> List[str]:
        issues: List[str] = []
        self.system.crash()
        system = MobiCealSystem.attach(self.phone, self.config)
        system.power_on()
        # crash boot into the public mode: pool recovery + journal replay
        fs = system.boot_with_password(self.DECOY, after_crash=True)
        issues.extend(f"fsck(public): {m}" for m in fsck_ext4(fs))
        if (
            not fs.exists("/public-durable.bin")
            or fs.read_file("/public-durable.bin") != self.PUBLIC_DURABLE
        ):
            issues.append("public durable file lost or corrupted")
        issues.extend(pool_invariants(system.pool))
        # the hidden volume must have survived recovery untouched
        system.reboot()
        hidden_fs = system.boot_with_password(self.HIDDEN)
        issues.extend(f"fsck(hidden): {m}" for m in fsck_ext4(hidden_fs))
        if (
            not hidden_fs.exists("/hidden-durable.bin")
            or hidden_fs.read_file("/hidden-durable.bin")
            != self.HIDDEN_DURABLE
        ):
            issues.append("hidden durable file lost or corrupted")
        return issues


#: name -> factory, as used by the CLI and the benchmarks.
SCENARIOS = {
    cls.name: cls
    for cls in (
        MetadataCommitScenario,
        ThinPoolScenario,
        Ext4FlushScenario,
        SystemCrashScenario,
    )
}


# ---------------------------------------------------------------------------
# Crash-recovery game harness (post-crash deniability)
# ---------------------------------------------------------------------------


class CrashRecoveryHarness(MobiCealHarness):
    """A :class:`MobiCealHarness` whose phone power-fails mid-pattern.

    After every access pattern the phone suffers a power cut at a
    pseudo-random write index during trailing public traffic, then boots
    through the crash-recovery path. The adversary's snapshots therefore
    image *post-recovery* states — the game checks that recovery artifacts
    (rolled-back allocations, replayed journals) are not a distinguisher.
    """

    def __init__(
        self,
        seed: int,
        userdata_blocks: int = 4096,
        config: MobiCealConfig = MobiCealConfig(
            num_volumes=6, fs_journal=True
        ),
    ) -> None:
        base = RAMBlockDevice(userdata_blocks, 4096)
        faulty = FaultyBlockDevice(base)
        super().__init__(
            seed,
            userdata_blocks=userdata_blocks,
            config=config,
            userdata_device=faulty,
        )
        self.faulty = faulty
        self._crash_rng = Rng(seed).fork("crash-injection")

    def execute(self, pattern: AccessPattern) -> None:
        super().execute(pattern)
        self._crash_once()

    def _crash_once(self) -> None:
        from repro.adversary.harnesses import _DECOY, _LOCK

        rng = self._crash_rng
        plan = FaultPlan(
            seed=rng.randint(0, 2**31),
            power_cut_after_writes=rng.randint(5, 60),
        )
        self.faulty.arm(plan)
        filler = rng.random_bytes(4000)
        try:
            with inject(plan):
                for i in range(64):
                    self._system.store_file(f"/filler-{i}.bin", filler)
                    self._system.sync()
        except PowerCutError:
            pass
        self._system.crash()
        self.faulty.revive()
        system = MobiCealSystem.attach(
            self._phone, self._system.config, screenlock_password=_LOCK
        )
        self._system = system
        system.power_on()
        system.boot_with_password(_DECOY, after_crash=True)
        system.start_framework()

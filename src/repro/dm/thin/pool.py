"""The thin pool: data device + metadata + allocation + dummy-write hook.

This reproduces dm-thin-pool with MobiCeal's two kernel modifications
(Sec. V-A):

* the allocation strategy is pluggable, with MobiCeal using
  :class:`~repro.dm.thin.allocation.RandomAllocator`;
* a *dummy-write hook* fires after each data-block provisioning caused by a
  real volume write, letting the PDE policy inject noise blocks into dummy
  volumes through :meth:`append_noise`.

The pool also reproduces the transaction detail the paper calls out: blocks
allocated since the last metadata commit are recorded
(:attr:`uncommitted_allocations`) so a block can never be handed out twice
within one transaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Set

from repro import obs
from repro.blockdev.clock import SimClock
from repro.blockdev.device import BlockDevice, ExtentCosts, recovery_io
from repro.crypto.rng import Rng
from repro.dm.thin.allocation import make_allocator
from repro.dm.thin.metadata import (
    MetadataRecovery,
    MetadataStore,
    PoolMetadata,
    VolumeRecord,
)
from repro.errors import (
    MetadataError,
    NoSuchVolumeError,
    VolumeExistsError,
)


@dataclass(frozen=True)
class ThinCosts:
    """CPU costs of the thin layer, charged to the simulated clock.

    Calibrated so the A-T-* settings of the paper's Fig. 4 show the observed
    ~18 % read-side overhead of the extra mapping layer while writes are
    barely affected (Sec. VI-B).
    """

    lookup_read_s: float = 0.0
    lookup_write_s: float = 0.0
    provision_s: float = 0.0


@dataclass
class PoolStats:
    """Counters for benches and the ablation experiments."""

    provisions: int = 0
    real_writes: int = 0
    reads_mapped: int = 0
    reads_unmapped: int = 0
    dummy_bursts: int = 0
    dummy_blocks: int = 0
    discards: int = 0
    commits: int = 0


@dataclass(frozen=True)
class PoolRecovery:
    """Outcome report of :meth:`ThinPool.recover`.

    Deliberately *uniform* across volumes: recovery never records (and
    never needs to know) whether a reconciled block belonged to a public,
    hidden, or dummy volume, so the report itself leaks nothing.
    """

    metadata: MetadataRecovery
    orphan_blocks_freed: int      # bitmap bits with no surviving mapping
    double_mappings_dropped: int  # duplicate claims on one physical block
    recommitted: bool             # reconciliation forced a fresh commit

    @property
    def clean(self) -> bool:
        """True when the committed generation needed no reconciliation."""
        return (
            self.orphan_blocks_freed == 0
            and self.double_mappings_dropped == 0
            and not self.metadata.superblock_repaired
        )

    def summary(self) -> str:
        return (
            f"gen={self.metadata.generation} tx={self.metadata.transaction_id} "
            f"superblock_repaired={self.metadata.superblock_repaired} "
            f"orphans_freed={self.orphan_blocks_freed} "
            f"double_mappings_dropped={self.double_mappings_dropped}"
        )


# A dummy-write hook receives the pool and the volume id the real write hit.
DummyWriteHook = Callable[["ThinPool", int], None]


class ThinPool:
    """A pool of data blocks shared by thin volumes.

    Use :meth:`format` for a fresh pool and :meth:`open` to load one from
    its metadata device. All volume I/O goes through
    :class:`~repro.dm.thin.thin.ThinDevice` objects from :meth:`get_thin`.
    """

    def __init__(
        self,
        metadata_store: MetadataStore,
        data_device: BlockDevice,
        metadata: PoolMetadata,
        allocation: str = "random",
        rng: Optional[Rng] = None,
        clock: Optional[SimClock] = None,
        costs: ThinCosts = ThinCosts(),
    ) -> None:
        if metadata.num_data_blocks != data_device.num_blocks:
            raise MetadataError(
                f"metadata covers {metadata.num_data_blocks} blocks but data "
                f"device has {data_device.num_blocks}"
            )
        self._store = metadata_store
        self._data = data_device
        self._meta = metadata
        self._clock = clock
        self._costs = costs
        self.stats = PoolStats()
        self.uncommitted_allocations: Set[int] = set()
        # Discard passdown is deferred to commit: zeroing the data block
        # before the unmap is durable would corrupt a rolled-back mapping.
        self._pending_discards: List[int] = []
        self._dummy_hook: Optional[DummyWriteHook] = None
        self._in_dummy_write = False
        self._allocator = make_allocator(
            allocation,
            data_device.num_blocks,
            rng=rng,
            allocated_bitmap=metadata.bitmap.to_bytes(),
        )

    # -- constructors ----------------------------------------------------------

    @classmethod
    def format(
        cls,
        metadata_device: BlockDevice,
        data_device: BlockDevice,
        allocation: str = "random",
        rng: Optional[Rng] = None,
        clock: Optional[SimClock] = None,
        costs: ThinCosts = ThinCosts(),
    ) -> "ThinPool":
        """Create a fresh pool, writing initial metadata."""
        store = MetadataStore(metadata_device)
        metadata = PoolMetadata.fresh(data_device.num_blocks)
        store.format(metadata)
        return cls(
            store, data_device, metadata,
            allocation=allocation, rng=rng, clock=clock, costs=costs,
        )

    @classmethod
    def open(
        cls,
        metadata_device: BlockDevice,
        data_device: BlockDevice,
        allocation: str = "random",
        rng: Optional[Rng] = None,
        clock: Optional[SimClock] = None,
        costs: ThinCosts = ThinCosts(),
    ) -> "ThinPool":
        """Load an existing pool from its metadata device."""
        store = MetadataStore(metadata_device)
        metadata = store.load()
        return cls(
            store, data_device, metadata,
            allocation=allocation, rng=rng, clock=clock, costs=costs,
        )

    @classmethod
    def recover(
        cls,
        metadata_device: BlockDevice,
        data_device: BlockDevice,
        allocation: str = "random",
        rng: Optional[Rng] = None,
        clock: Optional[SimClock] = None,
        costs: ThinCosts = ThinCosts(),
    ) -> "tuple[ThinPool, PoolRecovery]":
        """Open a pool after a crash: roll back and reconcile.

        Rolls back to the newest intact metadata generation (see
        :meth:`MetadataStore.recover`), then reconciles the global bitmap
        against the surviving mappings: a physical block claimed by more
        than one volume keeps only its first claimant (volumes and virtual
        blocks visited in sorted order, so the outcome is deterministic),
        and bitmap bits with no surviving mapping are freed. The sweep is
        strictly uniform over volume ids — it never distinguishes hidden
        from dummy allocations, so recovery cannot become a distinguisher.
        """
        store = MetadataStore(metadata_device)
        metadata, meta_report = store.recover()
        owners: dict = {}
        dropped = 0
        for vol_id in sorted(metadata.volumes):
            record = metadata.volumes[vol_id]
            for vblock in sorted(record.mappings):
                pblock = record.mappings[vblock]
                if pblock in owners:
                    record.unmap(vblock)
                    dropped += 1
                else:
                    owners[pblock] = (vol_id, vblock)
        # from_payload guarantees mapped ⊆ bitmap, so orphans (if any) are
        # exactly the surplus; scan only when the counts disagree.
        orphans = 0
        if metadata.bitmap.allocated_count != len(owners):
            for pblock in range(metadata.num_data_blocks):
                if metadata.bitmap.test(pblock) and pblock not in owners:
                    metadata.bitmap.clear(pblock)
                    orphans += 1
        recommitted = bool(dropped or orphans)
        if recommitted:
            with recovery_io():
                store.commit(metadata)
        pool = cls(
            store, data_device, metadata,
            allocation=allocation, rng=rng, clock=clock, costs=costs,
        )
        report = PoolRecovery(
            metadata=meta_report,
            orphan_blocks_freed=orphans,
            double_mappings_dropped=dropped,
            recommitted=recommitted,
        )
        return pool, report

    # -- introspection ------------------------------------------------------------

    @property
    def block_size(self) -> int:
        return self._data.block_size

    @property
    def num_data_blocks(self) -> int:
        return self._meta.num_data_blocks

    @property
    def free_data_blocks(self) -> int:
        return self._allocator.free_count

    @property
    def allocated_data_blocks(self) -> int:
        return self._meta.bitmap.allocated_count

    @property
    def allocation_strategy(self) -> str:
        return self._allocator.name

    @property
    def data_device(self) -> BlockDevice:
        return self._data

    @property
    def metadata(self) -> PoolMetadata:
        return self._meta

    def volume_ids(self) -> List[int]:
        return sorted(self._meta.volumes)

    def volume_record(self, vol_id: int) -> VolumeRecord:
        record = self._meta.volumes.get(vol_id)
        if record is None:
            raise NoSuchVolumeError(f"no thin volume {vol_id}")
        return record

    # -- volume lifecycle -----------------------------------------------------------

    def create_thin(self, vol_id: int, virtual_blocks: int) -> None:
        """Create a thin volume; occupies no data blocks until written."""
        if vol_id in self._meta.volumes:
            raise VolumeExistsError(f"thin volume {vol_id} already exists")
        if virtual_blocks <= 0:
            raise ValueError("virtual_blocks must be positive")
        self._meta.volumes[vol_id] = VolumeRecord(vol_id, virtual_blocks)

    def get_thin(self, vol_id: int):
        """Return a :class:`ThinDevice` view of a volume."""
        from repro.dm.thin.thin import ThinDevice

        return ThinDevice(self, self.volume_record(vol_id))

    # -- dummy-write plumbing ----------------------------------------------------------

    def set_dummy_write_hook(self, hook: Optional[DummyWriteHook]) -> None:
        """Install the PDE dummy-write policy (or None to disable)."""
        self._dummy_hook = hook

    def append_noise(self, vol_id: int, noise: bytes, rng: Rng) -> Optional[int]:
        """Provision a random unmapped virtual block of *vol_id* with *noise*.

        Used by the dummy-write policy; the noise block is indistinguishable
        from ciphertext. Targeting a random *unmapped* virtual block keeps
        the write harmless even when the chosen volume happens to be a
        hidden volume (its filesystem never reads blocks it has not
        written). Returns the physical block used, or None if the volume's
        virtual space is fully mapped.
        """
        record = self.volume_record(vol_id)
        if len(record.mappings) >= record.virtual_blocks:
            return None
        vblock = None
        for _ in range(64):
            candidate = rng.randint(0, record.virtual_blocks - 1)
            if candidate not in record.mappings:
                vblock = candidate
                break
        if vblock is None:
            # dense volume: scan forward from a random start (always succeeds
            # because the volume is not fully mapped)
            start = rng.randint(0, record.virtual_blocks - 1)
            for offset in range(record.virtual_blocks):
                candidate = (start + offset) % record.virtual_blocks
                if candidate not in record.mappings:
                    vblock = candidate
                    break
        pblock = self._allocate()
        record.map(vblock, pblock)
        self._data.write_block(pblock, noise)
        self.stats.dummy_blocks += 1
        return pblock

    # -- block-level operations used by ThinDevice ----------------------------------------

    def _charge(self, seconds: float, reason: str) -> None:
        if self._clock is not None and seconds:
            self._clock.advance(seconds, reason)

    def _allocate(self) -> int:
        block = self._allocator.allocate()
        self._meta.bitmap.set(block)
        self.uncommitted_allocations.add(block)
        self.stats.provisions += 1
        self._charge(self._costs.provision_s, "thin.provision")
        return block

    def read_mapped(self, record: VolumeRecord, vblock: int) -> bytes:
        """Read a virtual block; unmapped blocks read as zeroes."""
        self._charge(self._costs.lookup_read_s, "thin.lookup")
        pblock = record.mappings.get(vblock)
        if pblock is None:
            self.stats.reads_unmapped += 1
            return b"\x00" * self.block_size
        self.stats.reads_mapped += 1
        return self._data.read_block(pblock)

    def write_mapped(self, record: VolumeRecord, vblock: int, data: bytes) -> None:
        """Write a virtual block, provisioning (and maybe dummy-writing)."""
        self._charge(self._costs.lookup_write_s, "thin.lookup")
        pblock = record.mappings.get(vblock)
        provisioned = pblock is None
        if provisioned:
            pblock = self._allocate()
            record.map(vblock, pblock)
        self._data.write_block(pblock, data)
        self.stats.real_writes += 1
        if provisioned and self._dummy_hook is not None and not self._in_dummy_write:
            self._in_dummy_write = True
            try:
                self.stats.dummy_bursts += 1
                self._dummy_hook(self, record.vol_id)
            finally:
                self._in_dummy_write = False

    def read_extent(
        self,
        record: VolumeRecord,
        vstart: int,
        count: int,
        costs: Optional[ExtentCosts] = None,
    ) -> bytes:
        """Read consecutive virtual blocks, batching contiguous mappings.

        Runs whose virtual→physical mapping is contiguous go down as one
        extent (with the lookup charge scheduled per block); holes and
        mapping discontinuities split the request.
        """
        parts: List[bytes] = []
        mappings = record.mappings
        bs = self.block_size
        lookup_s = self._costs.lookup_read_s
        charged = self._clock is not None and lookup_s
        i = 0
        while i < count:
            pblock = mappings.get(vstart + i)
            if pblock is None:
                if costs is not None:
                    costs.replay_pre()
                self._charge(lookup_s, "thin.lookup")
                self.stats.reads_unmapped += 1
                parts.append(b"\x00" * bs)
                if costs is not None:
                    costs.replay_post()
                i += 1
                continue
            run = 1
            while (
                i + run < count
                and mappings.get(vstart + i + run) == pblock + run
            ):
                run += 1
            if costs is None and not charged:
                plan = None
            else:
                plan = costs.clone() if costs is not None else ExtentCosts()
                if charged:
                    plan.add_pre(self._clock, lookup_s, "thin.lookup")
            self.stats.reads_mapped += run
            parts.append(self._data.read_blocks(pblock, run, plan))
            i += run
        return b"".join(parts)

    def write_extent(
        self,
        record: VolumeRecord,
        vstart: int,
        data: bytes,
        costs: Optional[ExtentCosts] = None,
    ) -> None:
        """Write consecutive virtual blocks, batching already-mapped runs.

        Provisioning writes keep the exact per-block sequence (allocator
        draws, provision charge, dummy-write hook firing) so the physical
        layout, RNG stream and noise interleaving are identical to the
        per-block path; only already-mapped contiguous runs batch.
        """
        bs = self.block_size
        count = len(data) // bs
        mappings = record.mappings
        lookup_s = self._costs.lookup_write_s
        charged = self._clock is not None and lookup_s
        i = 0
        while i < count:
            vblock = vstart + i
            pblock = mappings.get(vblock)
            if pblock is None:
                if costs is not None:
                    costs.replay_pre()
                self.write_mapped(record, vblock, data[i * bs : (i + 1) * bs])
                if costs is not None:
                    costs.replay_post()
                i += 1
                continue
            run = 1
            while (
                i + run < count
                and mappings.get(vstart + i + run) == pblock + run
            ):
                run += 1
            if costs is None and not charged:
                plan = None
            else:
                plan = costs.clone() if costs is not None else ExtentCosts()
                if charged:
                    plan.add_pre(self._clock, lookup_s, "thin.lookup")
            self._data.write_blocks(pblock, data[i * bs : (i + run) * bs], plan)
            self.stats.real_writes += run
            i += run

    def discard_mapped(self, record: VolumeRecord, vblock: int) -> None:
        """Unmap a virtual block and free its data block."""
        pblock = record.unmap(vblock)
        if pblock is None:
            return
        self._meta.bitmap.clear(pblock)
        self._allocator.free(pblock)
        self.uncommitted_allocations.discard(pblock)
        self._pending_discards.append(pblock)
        self.stats.discards += 1

    # -- persistence ----------------------------------------------------------------------

    def commit(self) -> None:
        """Persist metadata (shadow-paged) and close the transaction."""
        with obs.span("pool.commit", clock=self._clock):
            obs.mark("thin.pool.commit")
            self._store.commit(self._meta)
            self.uncommitted_allocations.clear()
            self.stats.commits += 1
            # The unmaps are durable now; pass the discards down, skipping any
            # block that was re-provisioned within the same transaction.
            pending, self._pending_discards = self._pending_discards, []
            for pblock in pending:
                if not self._meta.bitmap.test(pblock):
                    self._data.discard(pblock)
            obs.mark("thin.pool.commit.done")

    def flush(self) -> None:
        """Flush data and commit metadata."""
        self._data.flush()
        self.commit()

"""Tests for the adversary toolkit: forensics, metadata parsing, side channel."""

from repro.adversary import (
    RANDOMNESS_ENTROPY_THRESHOLD,
    analyze_changes,
    extract_pool_metadata,
    grep_snapshot,
    metadata_region,
    new_allocations_per_volume,
    side_channel_attack,
    snapshot_to_device,
    volume_allocations,
)
from repro.android import Phone
from repro.blockdev import RAMBlockDevice, capture
from repro.core import MobiCealConfig, MobiCealSystem
from repro.crypto import Rng

BS = 4096
DECOY, HIDDEN = "decoy", "hidden"


def booted(seed=3, blocks=4096, **cfg):
    cfg.setdefault("num_volumes", 4)
    phone = Phone(seed=seed, userdata_blocks=blocks)
    system = MobiCealSystem(phone, MobiCealConfig(**cfg))
    phone.framework.power_on()
    system.initialize(DECOY, hidden_passwords=(HIDDEN,))
    system.boot_with_password(DECOY)
    system.start_framework()
    return phone, system


class TestForensics:
    def test_analyze_changes(self):
        dev = RAMBlockDevice(16)
        before = capture(dev)
        dev.write_block(4, Rng(0).random_bytes(BS))
        dev.write_block(5, Rng(1).random_bytes(BS))
        dev.write_block(9, (b"plain text content " * 216)[:BS])
        after = capture(dev)
        analysis = analyze_changes(before, after)
        assert analysis.changed_blocks == 3
        assert analysis.changed_to_random == 2
        assert analysis.longest_run == 2
        assert analysis.num_runs == 2

    def test_grep_snapshot(self):
        dev = RAMBlockDevice(8)
        payload = b"prefix /secret/file.txt suffix".ljust(BS, b"\x00")
        dev.write_block(3, payload)
        hits = grep_snapshot(capture(dev), b"/secret/file.txt")
        assert hits == [3]


class TestMetadataExtraction:
    def test_region_matches_system_layout(self):
        phone, system = booted()
        start, length = metadata_region(phone.userdata.num_blocks)
        assert start == 0
        assert length >= 8

    def test_extract_and_volume_allocations(self):
        phone, system = booted()
        system.store_file("/f.bin", b"x" * 50000)
        system.sync()
        snap = capture(phone.userdata)
        meta = extract_pool_metadata(snap)
        allocs = volume_allocations(meta)
        assert set(allocs) == {1, 2, 3, 4}
        assert allocs[1] > 0

    def test_new_allocations_between_snapshots(self):
        phone, system = booted(seed=5)
        system.sync()
        before = extract_pool_metadata(capture(phone.userdata))
        system.store_file("/new.bin", b"y" * 40960)
        system.sync()
        after = extract_pool_metadata(capture(phone.userdata))
        fresh = new_allocations_per_volume(before, after)
        assert fresh[1] >= 10  # the public file

    def test_snapshot_to_device_roundtrip(self):
        dev = RAMBlockDevice(8)
        dev.write_block(2, b"\x42" * BS)
        clone = snapshot_to_device(capture(dev))
        assert clone.read_block(2) == b"\x42" * BS

    def test_metadata_readable_without_any_password(self):
        """The paper's premise: metadata is public, deniability must hold."""
        phone, system = booted(seed=7)
        system.screenlock.enter_password(HIDDEN)
        system.store_file("/secret.bin", b"s" * 30000)
        system.sync()
        meta = extract_pool_metadata(capture(phone.userdata))
        # adversary sees allocations on non-public volumes but cannot tell
        # which volume is hidden vs dummy
        allocs = volume_allocations(meta)
        non_public = {v: c for v, c in allocs.items() if v != 1}
        assert sum(non_public.values()) > 0


class TestSideChannelAttack:
    HIDDEN_PATH = "/secret/dissidents.txt"

    def run_attack(self, isolate: bool, seed=11):
        phone, system = booted(seed=seed, isolate_side_channels=isolate)
        system.store_file("/public/note.txt", b"hello")
        system.screenlock.enter_password(HIDDEN)
        system.store_file(self.HIDDEN_PATH, b"names")
        system.reboot()
        system.boot_with_password(DECOY)
        system.start_framework()
        return phone, side_channel_attack(phone, [self.HIDDEN_PATH])

    def test_mobiceal_leaks_nothing(self):
        _, report = self.run_attack(isolate=True)
        assert not report.any_leak
        assert report.describe() == "no leakage found on any medium"

    def test_strawman_leaks_via_log_partitions(self):
        _, report = self.run_attack(isolate=False)
        assert report.on_disk_leak
        assert self.HIDDEN_PATH in report.cache_hits
        assert self.HIDDEN_PATH in report.devlog_hits
        assert self.HIDDEN_PATH in report.describe()

    def test_ram_leak_when_captured_in_hidden_mode(self):
        phone, system = booted(seed=13)
        system.screenlock.enter_password(HIDDEN)
        system.store_file(self.HIDDEN_PATH, b"names")
        # seized while still in hidden mode: RAM has residue (the paper's
        # assumption is that this does not happen; the attack shows why)
        report = side_channel_attack(phone, [self.HIDDEN_PATH])
        assert self.HIDDEN_PATH in report.ram_hits

    def test_public_activity_on_disk_is_fine(self):
        """Public breadcrumbs on disk are accountable — not a leak."""
        phone, system = booted(seed=17)
        system.store_file("/public/p.txt", b"x")
        system.sync()
        report = side_channel_attack(phone, ["/public/p.txt"])
        # public path IS on cache/devlog — that's expected OS behaviour;
        # the attack only matters for hidden paths
        assert report.on_disk_leak

    def test_unsafe_switch_leaves_ram_residue(self):
        phone, system = booted(seed=19, one_way_switching=False)
        system.screenlock.enter_password(HIDDEN)
        system.store_file(self.HIDDEN_PATH, b"names")
        system.switch_to_public_unsafe(DECOY)
        report = side_channel_attack(phone, [self.HIDDEN_PATH])
        assert self.HIDDEN_PATH in report.ram_hits

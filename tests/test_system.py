"""End-to-end tests of MobiCealSystem: lifecycle, deniability, isolation."""

import pytest

from repro.android import Phone, PhoneState, UnlockResult
from repro.blockdev import capture, diff
from repro.core import Mode, MobiCealConfig, MobiCealSystem, PUBLIC_VOLUME_ID
from repro.errors import (
    BadPasswordError,
    ModeError,
    NotInitializedError,
    PDEError,
)
from repro.util.stats import shannon_entropy

DECOY = "decoy-pw"
HIDDEN = "hidden-pw"
HIDDEN2 = "second-hidden"
LOCK = "1234"


def make_system(seed=7, blocks=8192, **config_kwargs):
    config_kwargs.setdefault("num_volumes", 6)
    phone = Phone(seed=seed, userdata_blocks=blocks)
    system = MobiCealSystem(phone, MobiCealConfig(**config_kwargs))
    phone.framework.power_on()
    return phone, system


def booted_public(seed=7, hidden_passwords=(HIDDEN,), **config_kwargs):
    phone, system = make_system(seed=seed, **config_kwargs)
    system.initialize(DECOY, hidden_passwords=hidden_passwords,
                      screenlock_password=LOCK)
    system.boot_with_password(DECOY)
    system.start_framework()
    return phone, system


class TestInitialization:
    def test_initialize_validations(self):
        phone, system = make_system()
        with pytest.raises(PDEError):
            system.initialize(DECOY, hidden_passwords=(DECOY,))
        with pytest.raises(PDEError):
            system.initialize(DECOY, hidden_passwords=(LOCK,),
                              screenlock_password=LOCK)
        with pytest.raises(PDEError):
            system.initialize(
                DECOY, hidden_passwords=tuple(f"h{i}" for i in range(5))
            )  # 5 passwords for 6 volumes

    def test_initialize_ends_at_preboot(self):
        phone, system = make_system()
        system.initialize(DECOY, hidden_passwords=(HIDDEN,))
        assert phone.framework.state is PhoneState.PREBOOT
        assert system.mode is Mode.OFFLINE

    def test_boot_before_initialize_rejected(self):
        phone, system = make_system()
        with pytest.raises(NotInitializedError):
            system.boot_with_password(DECOY)

    def test_basic_scheme_no_hidden_passwords(self):
        phone, system = make_system()
        system.initialize(DECOY, hidden_passwords=())
        fs = system.boot_with_password(DECOY)
        assert system.mode is Mode.PUBLIC
        fs.write_file("/note.txt", b"x")


class TestBootPaths:
    def test_boot_public(self):
        phone, system = booted_public()
        assert system.mode is Mode.PUBLIC
        assert phone.framework.mounts.mounted("/data")
        assert phone.framework.mounts.mounted("/cache")
        assert phone.framework.mounts.mounted("/devlog")

    def test_boot_hidden_directly(self):
        phone, system = make_system()
        system.initialize(DECOY, hidden_passwords=(HIDDEN,))
        system.boot_with_password(HIDDEN)
        assert system.mode is Mode.HIDDEN
        assert system.hidden_volume_in_session is not None

    def test_boot_bad_password(self):
        phone, system = make_system()
        system.initialize(DECOY, hidden_passwords=(HIDDEN,))
        with pytest.raises(BadPasswordError):
            system.boot_with_password("not-a-password")
        # and the system remains bootable afterwards
        system.boot_with_password(DECOY)

    def test_double_boot_rejected(self):
        phone, system = booted_public()
        with pytest.raises(ModeError):
            system.boot_with_password(DECOY)

    def test_boot_times_match_table2(self):
        phone, system = make_system(blocks=8192)
        system.initialize(DECOY, hidden_passwords=(HIDDEN,))
        t0 = phone.clock.now
        system.boot_with_password(DECOY)
        assert phone.clock.now - t0 == pytest.approx(1.68, abs=0.25)


class TestDataPaths:
    def test_public_data_roundtrip(self):
        phone, system = booted_public()
        system.store_file("/photos/cat.jpg", b"meow" * 500)
        assert system.read_file("/photos/cat.jpg") == b"meow" * 500

    def test_hidden_data_roundtrip_across_reboots(self):
        phone, system = booted_public()
        assert system.screenlock.enter_password(HIDDEN) is UnlockResult.SWITCHED_HIDDEN
        system.store_file("/evidence/doc.pdf", b"%PDF" * 700)
        system.reboot()
        system.boot_with_password(HIDDEN)
        assert system.read_file("/evidence/doc.pdf") == b"%PDF" * 700

    def test_public_and_hidden_namespaces_disjoint(self):
        phone, system = booted_public()
        system.store_file("/pub.txt", b"public")
        system.screenlock.enter_password(HIDDEN)
        assert not system.userdata_fs.exists("/pub.txt")
        system.store_file("/hid.txt", b"hidden")
        system.reboot()
        fs = system.boot_with_password(DECOY)
        assert fs.exists("/pub.txt")
        assert not fs.exists("/hid.txt")

    def test_volume_usage_view(self):
        phone, system = booted_public()
        usage = system.volume_usage()
        assert set(usage) == set(range(1, 7))
        assert usage[PUBLIC_VOLUME_ID] > 0


class TestFastSwitching:
    def test_switch_via_screenlock(self):
        phone, system = booted_public()
        t0 = phone.clock.now
        result = system.screenlock.enter_password(HIDDEN)
        elapsed = phone.clock.now - t0
        assert result is UnlockResult.SWITCHED_HIDDEN
        assert system.mode is Mode.HIDDEN
        # Table II: fast switch is under 10 seconds
        assert elapsed < 10.0
        assert elapsed == pytest.approx(9.27, abs=1.0)

    def test_switch_rejects_wrong_password(self):
        phone, system = booted_public()
        assert system.screenlock.enter_password("garbage") is UnlockResult.REJECTED
        assert system.mode is Mode.PUBLIC

    def test_switch_requires_public_mode(self):
        phone, system = booted_public()
        system.screenlock.enter_password(HIDDEN)
        with pytest.raises(ModeError):
            system.switch_to_hidden(HIDDEN)

    def test_one_way_switching_enforced(self):
        phone, system = booted_public()
        system.screenlock.enter_password(HIDDEN)
        with pytest.raises(ModeError):
            system.switch_to_public_unsafe(DECOY)

    def test_exit_hidden_requires_reboot_and_clears_ram(self):
        phone, system = booted_public()
        system.screenlock.enter_password(HIDDEN)
        system.store_file("/secret/s.txt", b"s")
        assert phone.framework.ram_residue
        system.reboot()
        assert not phone.framework.ram_residue
        system.boot_with_password(DECOY)
        assert system.mode is Mode.PUBLIC

    def test_check_hidden_password(self):
        phone, system = booted_public()
        assert system.check_hidden_password("nope") is None
        checked = system.check_hidden_password(HIDDEN)
        assert checked is not None
        k, key = checked
        assert 2 <= k <= 6
        assert len(key) == 32


class TestSideChannelIsolation:
    def test_hidden_mode_uses_tmpfs_logs(self):
        phone, system = booted_public()
        system.screenlock.enter_password(HIDDEN)
        assert phone.framework.mounts.get("/cache").fstype == "tmpfs"
        assert phone.framework.mounts.get("/devlog").fstype == "tmpfs"

    def test_public_mode_uses_disk_logs(self):
        phone, system = booted_public()
        assert phone.framework.mounts.get("/cache").fstype == "ext4"
        assert phone.framework.mounts.get("/devlog").fstype == "ext4"

    def test_strawman_config_leaves_logs_on_disk(self):
        phone, system = booted_public(isolate_side_channels=False)
        system.screenlock.enter_password(HIDDEN)
        assert phone.framework.mounts.get("/cache").fstype == "ext4"

    def test_unsafe_switch_allowed_when_configured(self):
        phone, system = booted_public(one_way_switching=False)
        system.screenlock.enter_password(HIDDEN)
        system.store_file("/secret/x", b"x")
        system.switch_to_public_unsafe(DECOY)
        assert system.mode is Mode.PUBLIC
        assert "/secret/x" in phone.framework.ram_residue  # the leak


class TestMultiLevelDeniability:
    def test_two_hidden_volumes(self):
        phone, system = booted_public(
            seed=21, hidden_passwords=(HIDDEN, HIDDEN2)
        )
        system.screenlock.enter_password(HIDDEN)
        system.store_file("/level1.txt", b"one")
        system.reboot()
        system.boot_with_password(HIDDEN2)
        system.start_framework()
        system.store_file("/level2.txt", b"two")
        assert not system.userdata_fs.exists("/level1.txt")
        system.reboot()
        system.boot_with_password(HIDDEN)
        assert system.read_file("/level1.txt") == b"one"
        assert not system.userdata_fs.exists("/level2.txt")

    def test_hidden_volumes_have_distinct_indices(self):
        phone, system = booted_public(
            seed=22, hidden_passwords=(HIDDEN, HIDDEN2)
        )
        k1 = system.check_hidden_password(HIDDEN)[0]
        k2 = system.check_hidden_password(HIDDEN2)[0]
        assert k1 != k2


class TestGarbageCollectionIntegration:
    def test_gc_requires_hidden_mode(self):
        phone, system = booted_public()
        with pytest.raises(ModeError):
            system.run_gc()

    def test_gc_preserves_both_volumes_data(self):
        phone, system = booted_public(seed=31)
        system.store_file("/pub.bin", b"p" * 40960)
        system.screenlock.enter_password(HIDDEN)
        system.store_file("/hid.bin", b"h" * 40960)
        result = system.run_gc()
        assert result.blocks_examined >= 0
        assert system.read_file("/hid.bin") == b"h" * 40960
        system.reboot()
        system.boot_with_password(DECOY)
        assert system.read_file("/pub.bin") == b"p" * 40960


class TestDummyWriteIntegration:
    def test_public_writes_generate_dummy_blocks(self):
        phone, system = booted_public(seed=41)
        # baseline includes the hidden volume's own filesystem + verifier
        def non_public_total():
            return sum(
                count for vol, count in system.volume_usage().items()
                if vol != PUBLIC_VOLUME_ID
            )

        baseline = non_public_total()
        for i in range(40):
            system.store_file(f"/f{i}.bin", bytes([i]) * 8192)
        stats = system.dummy_write_stats
        assert stats.decisions > 0
        # every non-public block added since boot is a dummy block
        assert non_public_total() - baseline == stats.blocks_written

    def test_dummy_blocks_look_like_ciphertext(self):
        phone, system = booted_public(seed=43)
        for i in range(60):
            system.store_file(f"/f{i}.bin", bytes([i]) * 16384)
        system.sync()
        pool = system.pool
        found = 0
        for vol in range(2, 7):
            record = pool.volume_record(vol)
            for vblock, pblock in record.mappings.items():
                data = pool.data_device.peek(pblock)
                assert shannon_entropy(data) > 7.2
                found += 1
        if system.dummy_write_stats.blocks_written:
            assert found > 0


class TestCoercionView:
    """What the adversary sees when the user reveals only the decoy password."""

    def test_decoy_password_decrypts_only_public(self):
        phone, system = booted_public(seed=51)
        system.store_file("/pub.txt", b"innocent")
        system.screenlock.enter_password(HIDDEN)
        system.store_file("/secret/plan.txt", b"sensitive")
        system.reboot()
        # the coerced user reveals DECOY; adversary boots with it
        fs = system.boot_with_password(DECOY)
        assert fs.read_file("/pub.txt") == b"innocent"
        assert not fs.exists("/secret/plan.txt")

    def test_hidden_volume_indistinguishable_from_dummy_without_password(self):
        """Every non-public volume decrypts to garbage under the decoy key."""
        phone, system = booted_public(seed=53)
        system.screenlock.enter_password(HIDDEN)
        system.store_file("/secret.bin", b"S" * 16384)
        system.reboot()
        system.boot_with_password(DECOY)
        pool = system.pool
        from repro.errors import NotFormattedError
        from repro.fs.ext4 import Ext4Filesystem
        from repro.android.footer import CryptoFooter

        footer = CryptoFooter.load(phone.userdata)
        decoy_key = footer.unlock(DECOY)
        for vol in range(2, 7):
            dev = system._volume_device(vol, decoy_key, skip_verifier=True)
            with pytest.raises(NotFormattedError):
                Ext4Filesystem(dev).mount()


class TestStoredRandRefreshIntegration:
    def test_dummy_rate_redraws_across_periods(self):
        """stored_rand (and with it the dummy probability) is refreshed
        once the refresh period elapses — the property the multi-snapshot
        defense leans on."""
        phone, system = booted_public(seed=71, stored_rand_refresh_s=100.0)
        system.store_file("/warmup.bin", b"w" * 8192)
        refreshes_before = system.dummy_write_stats.refreshes
        phone.clock.advance(101.0, "workload.idle")
        system.store_file("/next-day.bin", b"n" * 8192)
        assert system.dummy_write_stats.refreshes > refreshes_before


class TestSoakCycle:
    def test_many_sessions_stay_consistent(self):
        """10 mixed public/hidden sessions: data intact, fsck clean, no
        cross-volume leakage at the end."""
        from repro.fs import fsck_ext4

        phone, system = booted_public(seed=73, blocks=16384)
        public_model = {}
        hidden_model = {}
        for session in range(10):
            if session % 2 == 0:
                path = f"/pub/session{session}.bin"
                data = bytes([session]) * 10000
                system.store_file(path, data)
                public_model[path] = data
            else:
                system.screenlock.enter_password(HIDDEN)
                path = f"/hid/session{session}.bin"
                data = bytes([session]) * 10000
                system.store_file(path, data)
                hidden_model[path] = data
                if session % 3 == 0:
                    system.run_gc()
                system.reboot()
                system.boot_with_password(DECOY)
                system.start_framework()
        # verify the public world
        for path, data in public_model.items():
            assert system.read_file(path) == data
        for path in hidden_model:
            assert not system.userdata_fs.exists(path)
        assert fsck_ext4(system.userdata_fs) == []
        # verify the hidden world
        system.reboot()
        system.boot_with_password(HIDDEN)
        for path, data in hidden_model.items():
            assert system.read_file(path) == data
        assert fsck_ext4(system.userdata_fs) == []

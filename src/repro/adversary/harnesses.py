"""Game harnesses driving MobiCeal and the MobiPluto baseline.

Each harness owns one simulated phone and realizes access patterns with the
*real* user flows: hidden writes go through the screen-lock fast switch (or
a reboot, for the baseline) and the system always returns to the public
mode before the adversary's snapshot — the on-event model where the user is
prepared for inspection.
"""

from __future__ import annotations

from repro.adversary.game import AccessPattern, GameHarness
from repro.android.phone import Phone
from repro.baselines.hiddenvolume import MobiPlutoSystem
from repro.blockdev.snapshot import Snapshot, capture
from repro.core.config import MobiCealConfig
from repro.core.system import MobiCealSystem, Mode
from repro.crypto.rng import Rng

_DECOY = "decoy-password"
_HIDDEN = "hidden-password"
_LOCK = "1234"


class MobiCealHarness(GameHarness):
    """MobiCeal under the multi-snapshot game."""

    def __init__(
        self,
        seed: int,
        userdata_blocks: int = 4096,
        config: MobiCealConfig = MobiCealConfig(num_volumes=6),
        userdata_device=None,
    ) -> None:
        self.metadata_fraction = config.metadata_fraction
        self._phone = Phone(
            seed=seed,
            userdata_blocks=userdata_blocks,
            userdata_device=userdata_device,
        )
        self._system = MobiCealSystem(self._phone, config)
        self._content_rng = Rng(seed).fork("content")

    @property
    def system(self) -> MobiCealSystem:
        return self._system

    def setup(self) -> None:
        self._phone.framework.power_on()
        self._system.initialize(
            _DECOY, hidden_passwords=(_HIDDEN,), screenlock_password=_LOCK
        )
        self._system.boot_with_password(_DECOY)
        self._system.start_framework()

    def execute(self, pattern: AccessPattern) -> None:
        for op in pattern:
            data = self._content_rng.random_bytes(op.nbytes)
            if op.volume == "public":
                if self._system.mode is not Mode.PUBLIC:
                    self._return_to_public()
                self._system.store_file(op.path, data)
            elif op.volume == "hidden":
                if self._system.mode is not Mode.HIDDEN:
                    switched = self._system.screenlock.enter_password(_HIDDEN)
                    assert switched.value == "switched"
                self._system.store_file(op.path, data)
            else:
                raise ValueError(f"unknown volume {op.volume!r}")
        if self._system.mode is not Mode.PUBLIC:
            self._return_to_public()

    def _return_to_public(self) -> None:
        self._system.reboot()
        self._system.boot_with_password(_DECOY)
        self._system.start_framework()

    def snapshot(self, label: str) -> Snapshot:
        self._system.sync()
        return capture(
            self._phone.userdata, label, taken_at=self._phone.clock.now
        )

    def pass_time(self, seconds: float) -> None:
        self._phone.clock.advance(seconds, "adversary.elapsed")


class MobiPlutoHarness(GameHarness):
    """The MobiPluto-style single-snapshot baseline under the same game."""

    metadata_fraction = 0.02

    def __init__(self, seed: int, userdata_blocks: int = 4096) -> None:
        self._phone = Phone(seed=seed, userdata_blocks=userdata_blocks)
        self._system = MobiPlutoSystem(self._phone)
        self._content_rng = Rng(seed).fork("content")

    @property
    def system(self) -> MobiPlutoSystem:
        return self._system

    def setup(self) -> None:
        self._phone.framework.power_on()
        self._system.initialize(_DECOY, hidden_password=_HIDDEN)
        self._system.boot_with_password(_DECOY)
        self._system.start_framework()

    def execute(self, pattern: AccessPattern) -> None:
        for op in pattern:
            data = self._content_rng.random_bytes(op.nbytes)
            if op.volume == "public":
                if self._system.mode != "public":
                    self._system.switch_mode(_DECOY)
                self._system.store_file(op.path, data)
            elif op.volume == "hidden":
                if self._system.mode != "hidden":
                    self._system.switch_mode(_HIDDEN)
                self._system.store_file(op.path, data)
            else:
                raise ValueError(f"unknown volume {op.volume!r}")
        if self._system.mode != "public":
            self._system.switch_mode(_DECOY)

    def snapshot(self, label: str) -> Snapshot:
        self._system.sync()
        return capture(
            self._phone.userdata, label, taken_at=self._phone.clock.now
        )

    def pass_time(self, seconds: float) -> None:
        self._phone.clock.advance(seconds, "adversary.elapsed")

"""The Android screen lock, MobiCeal's entrance to the hidden mode.

The default screen lock checks the lock password as usual; MobiCeal's
modification (Sec. V-C) adds one step: a password that is *not* the screen
lock password is handed to Vold via ``IMountService``, which checks whether
it is a hidden password and, if so, starts the switch. The screen lock does
not record entered passwords (Sec. IV-D), so this path leaks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from repro.android.framework import AndroidFramework, PhoneState
from repro.errors import FrameworkStateError


class UnlockResult(Enum):
    UNLOCKED = "unlocked"             # normal screen unlock
    SWITCHED_HIDDEN = "switched"      # hidden password accepted, mode switched
    REJECTED = "rejected"             # wrong password


#: Vold-side checker: returns True if it accepted the password and switched.
PdePasswordChecker = Callable[[str], bool]


@dataclass
class ScreenLock:
    """The (modified) default screen lock app."""

    framework: AndroidFramework
    lock_password: str
    pde_checker: Optional[PdePasswordChecker] = None

    def enter_password(self, password: str) -> UnlockResult:
        """Handle one password entry on the lock screen."""
        if self.framework.state is not PhoneState.FRAMEWORK_RUNNING:
            raise FrameworkStateError("screen lock requires a running framework")
        self.framework.clock.advance(
            self.framework.profile.screenlock_verify_s, "android.screenlock"
        )
        if password == self.lock_password:
            return UnlockResult.UNLOCKED
        if self.pde_checker is not None and self.pde_checker(password):
            return UnlockResult.SWITCHED_HIDDEN
        return UnlockResult.REJECTED

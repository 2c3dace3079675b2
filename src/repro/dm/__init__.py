"""Device-mapper framework: dm core, linear/crypt targets, thin provisioning."""

from repro.dm.core import DMDevice, TableEntry, Target, single_target_device
from repro.dm.crypt import (
    NEXUS4_CRYPTO_BYTE_COST_S,
    CryptTarget,
    create_crypt_device,
)
from repro.dm.linear import LinearTarget

__all__ = [
    "DMDevice",
    "TableEntry",
    "Target",
    "single_target_device",
    "NEXUS4_CRYPTO_BYTE_COST_S",
    "CryptTarget",
    "create_crypt_device",
    "LinearTarget",
]

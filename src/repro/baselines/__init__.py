"""Comparator systems: stock FDE, MobiPluto-style PDE, HIVE ORAM, DEFY."""

from repro.baselines.defy import DefyDevice
from repro.baselines.fde import AndroidFDESystem
from repro.baselines.hiddenvolume import MobiPlutoSystem
from repro.baselines.hive import WriteOnlyORAMDevice

__all__ = [
    "DefyDevice",
    "AndroidFDESystem",
    "MobiPlutoSystem",
    "WriteOnlyORAMDevice",
]

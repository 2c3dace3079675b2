"""Long-horizon dummy-space accumulation and GC (Sec. IV-D).

The paper's remaining operational concern: "the data created by dummy
writes will accumulate and may fill the entire disk space over time",
mitigated by periodic hidden-mode garbage collection. This bench simulates
weeks of daily use and reports the dummy-space trajectory with and without
periodic GC.
"""

import pytest

from repro.android import Phone
from repro.bench.reporting import render_table
from repro.core import MobiCealConfig, MobiCealSystem, PUBLIC_VOLUME_ID

DECOY, HIDDEN = "decoy", "hidden"
DAYS = 21
FILES_PER_DAY = 6
FILE_BYTES = 24 * 1024
GC_EVERY_DAYS = 7


def simulate(gc: bool, seed: int):
    """Run DAYS of daily use; returns the per-day dummy-block series."""
    phone = Phone(seed=seed, userdata_blocks=16384)
    system = MobiCealSystem(phone, MobiCealConfig(num_volumes=6))
    phone.framework.power_on()
    system.initialize(DECOY, hidden_passwords=(HIDDEN,))
    system.boot_with_password(DECOY)
    system.start_framework()

    def dummy_blocks() -> int:
        usage = system.volume_usage()
        return sum(c for v, c in usage.items() if v != PUBLIC_VOLUME_ID)

    baseline = dummy_blocks()  # hidden volume's fs + verifier
    series = []
    counter = 0
    for day in range(DAYS):
        for _ in range(FILES_PER_DAY):
            counter += 1
            system.store_file(f"/day{day}/f{counter}.bin",
                              bytes([counter % 256]) * FILE_BYTES)
        if gc and day and day % GC_EVERY_DAYS == 0:
            # nightly hidden-mode GC session, then back to public
            system.screenlock.enter_password(HIDDEN)
            system.run_gc()
            system.reboot()
            system.boot_with_password(DECOY)
            system.start_framework()
        phone.clock.advance(86400, "workload.idle")
        series.append(dummy_blocks() - baseline)
    return series


@pytest.fixture(scope="module")
def trajectories():
    return {
        "no GC": simulate(gc=False, seed=71),
        "weekly GC": simulate(gc=True, seed=71),
    }


def test_dummy_space_accumulation_and_gc(benchmark, trajectories, save_result):
    benchmark.pedantic(lambda: simulate(gc=False, seed=72),
                       rounds=1, iterations=1)
    rows = []
    for day in range(0, DAYS, 3):
        rows.append(
            [f"day {day + 1}",
             str(trajectories["no GC"][day]),
             str(trajectories["weekly GC"][day])]
        )
    save_result(
        "dummy_accumulation",
        "Dummy-space accumulation (blocks above post-init baseline)\n"
        + render_table(["day", "no GC", "weekly GC"], rows),
    )
    benchmark.extra_info["final_dummy_blocks"] = {
        name: series[-1] for name, series in trajectories.items()
    }

    no_gc = trajectories["no GC"]
    with_gc = trajectories["weekly GC"]

    # without GC, dummy space is monotonically non-decreasing and grows
    assert all(b >= a for a, b in zip(no_gc, no_gc[1:]))
    assert no_gc[-1] > no_gc[0]
    # weekly GC ends with (weakly) less dummy space than no GC
    assert with_gc[-1] <= no_gc[-1]
    # and GC never reclaims *everything* (deniability requires leftovers
    # plus the hidden volume's own blocks are untouched)
    assert all(b >= 0 for b in with_gc)

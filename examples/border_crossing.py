#!/usr/bin/env python3
"""Border crossing: a journalist vs a multi-snapshot adversary.

Run with::

    python examples/border_crossing.py

The motivating scenario of the paper's introduction: border agents image a
journalist's phone at every crossing ("digital strip search") and compare
the snapshots. The script runs the same trips twice — once on a
MobiPluto-style single-snapshot PDE (the agents spot unaccountable
changes), once on MobiCeal (dummy writes make the changes deniable).
"""

from repro.adversary import (
    extract_pool_metadata,
    new_allocations_per_volume,
)
from repro.android import Phone
from repro.baselines import MobiPlutoSystem
from repro.blockdev import capture
from repro.core import MobiCealConfig, MobiCealSystem

DECOY = "travel-photos"
HIDDEN = "sources-and-notes"


def journalist_trip(store_public, store_hidden, pass_day):
    """One reporting trip: public cover activity + hidden interviews."""
    store_public("/blog/day1.md", b"# A lovely market\n" * 50)
    pass_day()
    store_hidden("/notes/contact_list.txt", b"source: ..." * 200)
    store_hidden("/notes/interview1.m4a", b"audio" * 4000)
    pass_day()
    store_public("/blog/day2.md", b"# Museums and trains\n" * 120)
    # the user guideline of Sec. IV-B: balance hidden data with public data
    store_public("/photos/roll1.jpg", b"\xff\xd8" + b"px" * 12000)


def inspect(label, snapshots):
    """What the border agents compute from their snapshot series."""
    print(f"  [{label}] agents compare {len(snapshots)} snapshots:")
    total_unaccountable = 0
    for before, after in zip(snapshots, snapshots[1:]):
        meta_before = extract_pool_metadata(before)
        meta_after = extract_pool_metadata(after)
        fresh = new_allocations_per_volume(meta_before, meta_after)
        unaccountable = sum(c for v, c in fresh.items() if v != 1)
        public = fresh.get(1, 0)
        total_unaccountable += unaccountable
        print(
            f"    interval {before.label}->{after.label}: "
            f"{public} public blocks, {unaccountable} unaccountable blocks"
        )
    return total_unaccountable


def run_mobipluto():
    print("\n== MobiPluto-style phone (single-snapshot defense) ==")
    phone = Phone(seed=99, userdata_blocks=4096)
    system = MobiPlutoSystem(phone)
    phone.framework.power_on()
    system.initialize(DECOY, hidden_password=HIDDEN)
    system.boot_with_password(DECOY)
    system.start_framework()

    snapshots = [capture(phone.userdata, "entry")]

    def store_public(path, data):
        if system.mode != "public":
            system.switch_mode(DECOY)
        system.store_file(path, data)

    def store_hidden(path, data):
        if system.mode != "hidden":
            system.switch_mode(HIDDEN)
        system.store_file(path, data)

    def pass_day():
        phone.clock.advance(86400, "workload.idle")

    journalist_trip(store_public, store_hidden, pass_day)
    if system.mode != "public":
        system.switch_mode(DECOY)
    system.sync()
    snapshots.append(capture(phone.userdata, "exit"))

    unaccountable = inspect("MobiPluto", snapshots)
    print(f"  verdict: {unaccountable} blocks changed that no public file or")
    print("  mechanism explains -> the agents suspect hidden data. BUSTED.")


def run_mobiceal():
    print("\n== MobiCeal phone (multi-snapshot defense) ==")
    phone = Phone(seed=77, userdata_blocks=4096)
    system = MobiCealSystem(phone, MobiCealConfig(num_volumes=6))
    phone.framework.power_on()
    system.initialize(DECOY, hidden_passwords=(HIDDEN,))
    system.boot_with_password(DECOY)
    system.start_framework()

    snapshots = [capture(phone.userdata, "entry")]

    def store_public(path, data):
        from repro.core import Mode

        if system.mode is not Mode.PUBLIC:
            system.reboot()
            system.boot_with_password(DECOY)
            system.start_framework()
        system.store_file(path, data)

    def store_hidden(path, data):
        from repro.core import Mode

        if system.mode is not Mode.HIDDEN:
            system.screenlock.enter_password(HIDDEN)  # fast switch, <10 s
        system.store_file(path, data)

    def pass_day():
        phone.clock.advance(86400, "workload.idle")

    journalist_trip(store_public, store_hidden, pass_day)
    from repro.core import Mode

    if system.mode is not Mode.PUBLIC:
        system.reboot()
        system.boot_with_password(DECOY)
        system.start_framework()
    system.sync()
    snapshots.append(capture(phone.userdata, "exit"))

    unaccountable = inspect("MobiCeal", snapshots)
    print(f"  verdict: {unaccountable} unaccountable blocks exist, but the")
    print("  user says: 'those are dummy writes — my phone always does that.'")
    print("  The kernel really does: the claim is verifiable and deniable.")


def main() -> None:
    print("Scenario: a journalist crosses the same border twice; agents")
    print("image the phone both times and diff the images.")
    run_mobipluto()
    run_mobiceal()


if __name__ == "__main__":
    main()

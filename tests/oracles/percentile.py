"""Counting nearest-rank percentile, the oracle for
:func:`repro.util.stats.percentile`."""


def nearest_rank(values, q):
    """The smallest value with at least ``q * n`` of the *n* values at or
    below it, found by counting over the sorted list, not by indexing."""
    ordered = sorted(values)
    for value in ordered:
        if sum(1 for v in ordered if v <= value) >= q * len(ordered):
            return value
    raise AssertionError(f"no value reaches q={q} over {len(ordered)} values")

"""Test helper: fold a list of recorder payloads into one merged payload."""

from repro.obs.export import PayloadAccumulator


def fold_payloads(payloads):
    """The :class:`PayloadAccumulator` fold of *payloads*, in list order."""
    accumulator = PayloadAccumulator()
    for payload in payloads:
        accumulator.add(payload)
    return accumulator.result()

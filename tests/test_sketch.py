"""Tests for the histogram fold and the recorder-payload fold.

The load-bearing property battery: ``Histogram.fold`` reproduces
observing everything in one histogram, and the recorder-payload fold is
associative and commutative down to **byte-identical serialization**,
so the fleet reducer's spool order is unobservable in the output.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObsError
from repro.obs.export import SCHEMA_VERSION, dump_json
from repro.obs.metrics import Histogram
from tests.folding import fold_payloads

hist_values = st.lists(
    st.floats(min_value=1e-7, max_value=20.0, allow_nan=False), max_size=50
)


def _hist(values, name="h"):
    hist = Histogram(name)
    for value in values:
        hist.observe(value)
    return hist


def _payload(values, span_total, counter, gauge):
    """A recorder payload whose histogram observed *values*."""
    return {
        "schema_version": SCHEMA_VERSION,
        "spans": {
            "stack.write": {
                "count": 1 + len(values),
                "total_s": span_total,
                "max_s": span_total,
                "mean_s": span_total / (1 + len(values)),
            }
        },
        "marks": {"gc.pass": 1},
        "metrics": {
            "counters": {"workload.bytes_written": counter},
            "gauges": {"pde.bitmap_occupancy": gauge},
            "histograms": {"io.write_s": _hist(values).as_dict()},
        },
        "io": {"events": len(values), "by_op": {"write": len(values)}},
    }


finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
payload_strategy = st.builds(_payload, hist_values, finite, finite, finite)


class TestHistogramFold:
    """Histogram.fold: the one merge path for serialized histograms."""

    @settings(max_examples=40, deadline=None)
    @given(a=hist_values, b=hist_values)
    def test_fold_equals_observing_everything(self, a, b):
        folded = Histogram("h")
        folded.fold(_hist(a).as_dict())
        folded.fold(_hist(b).as_dict())
        whole = _hist(a + b)
        assert folded._counts == whole._counts
        assert folded.count == whole.count
        assert folded.minimum == whole.minimum
        assert folded.maximum == whole.maximum
        assert folded.mean == pytest.approx(whole.mean)
        for q in (0.5, 0.95, 0.99):
            assert folded.percentile(q) == whole.percentile(q)

    @settings(max_examples=40, deadline=None)
    @given(values=hist_values)
    def test_fold_of_one_reproduces_it(self, values):
        own = _hist(values).as_dict()
        folded = Histogram("h")
        folded.fold(own)
        assert json.dumps(folded.as_dict()) == json.dumps(own)

    def test_unknown_label_raises(self):
        data = _hist([0.003]).as_dict()
        data["buckets"] = {"0.003": 1}
        with pytest.raises(ObsError, match="unknown bucket label '0.003'"):
            Histogram("h").fold(data)

    @settings(max_examples=60, deadline=None)
    @given(payloads=st.lists(payload_strategy, max_size=8), data=st.data())
    def test_any_partition_any_order_folds_identically(self, payloads, data):
        """Cut the payloads into shards, fold the shards in any order and
        each shard in either direction: the merged payload serializes
        byte-identically. Only the per-device gauge list keeps the fold
        order, by design, so it is compared as a multiset."""
        cuts = sorted(
            data.draw(st.lists(st.integers(0, len(payloads)), max_size=3))
        )
        shards, previous = [], 0
        for cut in cuts + [len(payloads)]:
            shards.append(payloads[previous:cut])
            previous = cut
        order = data.draw(st.permutations(range(len(shards))))
        flips = data.draw(
            st.lists(st.booleans(), min_size=len(shards),
                     max_size=len(shards))
        )
        shuffled = [
            payload
            for i in order
            for payload in (shards[i][::-1] if flips[i] else shards[i])
        ]

        def canon(merged):
            per_device = merged["metrics"].pop("gauges_per_device")
            return dump_json(merged), {
                name: sorted(values) for name, values in per_device.items()
            }

        assert canon(fold_payloads(shuffled)) == (
            canon(fold_payloads(payloads))
        )

"""Tests for repro.util.stats and repro.util.units."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.stats import (
    Summary,
    chi_square_uniform,
    median,
    percentile,
    shannon_entropy,
    summarize,
)
from repro.util.units import (
    GiB,
    KiB,
    MiB,
    format_bytes,
    format_duration,
)
from tests.oracles.percentile import nearest_rank


class TestSummarize:
    def test_single_value(self):
        s = summarize([5.0])
        assert s.n == 1
        assert s.mean == 5.0
        assert s.stdev == 0.0

    def test_known_values(self):
        s = summarize([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert s.mean == pytest.approx(5.0)
        # sample stdev with n-1 denominator
        assert s.stdev == pytest.approx(math.sqrt(32 / 7))
        assert s.minimum == 2.0
        assert s.maximum == 9.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_str_format(self):
        assert "n=3" in str(summarize([1, 2, 3]))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_mean_within_bounds(self, values):
        s = summarize(values)
        slack = 1e-9 * max(1.0, abs(s.minimum), abs(s.maximum))
        assert s.minimum - slack <= s.mean <= s.maximum + slack
        assert s.stdev >= 0.0


class TestEntropy:
    def test_empty(self):
        assert shannon_entropy(b"") == 0.0

    def test_constant(self):
        assert shannon_entropy(b"\x00" * 4096) == 0.0

    def test_uniform_all_bytes(self):
        data = bytes(range(256)) * 16
        assert shannon_entropy(data) == pytest.approx(8.0)

    def test_two_symbols(self):
        assert shannon_entropy(b"ab" * 100) == pytest.approx(1.0)

    def test_random_data_high(self):
        import random

        data = random.Random(0).randbytes(4096)
        assert shannon_entropy(data) > 7.5

    @given(st.binary(min_size=1, max_size=2048))
    def test_bounds(self, data):
        e = shannon_entropy(data)
        assert 0.0 <= e <= 8.0


class TestChiSquare:
    def test_short_input_raises(self):
        with pytest.raises(ValueError):
            chi_square_uniform(b"x" * 100)

    def test_random_data_not_rejected(self):
        import random

        data = random.Random(1).randbytes(8192)
        assert chi_square_uniform(data) > 0.001

    def test_structured_data_rejected(self):
        assert chi_square_uniform(b"A" * 8192) < 1e-6


class TestPercentile:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=1,
            max_size=60,
        ),
        q=st.one_of(
            st.sampled_from([0.5, 0.9, 0.95, 0.99, 1.0]),
            st.floats(min_value=1e-6, max_value=1.0),
        ),
    )
    def test_matches_sorted_list_reference(self, values, q):
        assert percentile(values, q) == nearest_rank(values, q)

    def test_single_value(self):
        for q in (1e-9, 0.5, 0.99, 1.0):
            assert percentile([7.5], q) == 7.5

    def test_q_one_is_the_maximum(self):
        assert percentile([3.0, 9.0, 1.0, 9.0, 4.0], 1.0) == 9.0

    @pytest.mark.parametrize("q", [0.0, -0.5, 1.0000001, 2.0])
    def test_q_outside_the_unit_interval_raises(self, q):
        with pytest.raises(ValueError, match="must be in"):
            percentile([1.0, 2.0], q)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 0.5)


class TestMedian:
    def test_median(self):
        assert median([]) == 0.0
        assert median([3.0]) == 3.0
        assert median([5.0, 1.0, 3.0]) == 3.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5


class TestUnits:
    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(4096) == "4.0 KiB"
        assert format_bytes(400 * MiB) == "400.0 MiB"
        assert format_bytes(2 * GiB) == "2.0 GiB"

    def test_constants(self):
        assert KiB == 1024
        assert MiB == 1024 * KiB
        assert GiB == 1024 * MiB

    def test_format_duration_seconds(self):
        assert format_duration(9.27) == "9.27s"
        assert format_duration(0.29) == "0.29s"

    def test_format_duration_minutes(self):
        assert format_duration(136) == "2min16s"
        assert format_duration(18 * 60 + 23) == "18min23s"

"""Unit tests for the prometheus text exposition (repro.obs.promtext)
and the deterministic request-trace minting that feeds it
(repro.server.trace).

The renderer/parser pair is its own oracle: everything the renderer
emits must survive :func:`parse_prom`, which CI also runs against the
live daemon's scrape. The rejection tests pin the parser's teeth — a
parser that accepts anything would make that CI check worthless.
"""

import json
import math

import pytest

from repro.cli import main
from repro.crypto.rng import Rng
from repro.errors import ObsError
from repro.obs.metrics import MetricRegistry
from repro.obs.promtext import (
    escape_label_value,
    format_value,
    info_lines,
    parse_prom,
    prom_lines,
    render_prom,
    sanitize_name,
)
from repro.server.trace import (
    mint_trace,
    parse_trace_header,
    route_template,
)


def _registry():
    registry = MetricRegistry()
    registry.counter("server.requests.GET").add(3)
    registry.counter("workload.bytes_written").add(4096)
    registry.gauge("server.devices").set(2)
    hist = registry.histogram("io.latency")
    for value in (0.0005, 0.001, 0.05, 7.0):
        hist.observe(value)
    return registry


class TestRender:
    def test_round_trips_through_the_parser(self):
        text = render_prom(_registry(), namespace="repro")
        families = parse_prom(text)
        assert set(families) == {
            "repro_server_requests_GET_total",
            "repro_workload_bytes_written_total",
            "repro_server_devices",
            "repro_io_latency",
        }
        counter = families["repro_server_requests_GET_total"]
        assert counter["type"] == "counter"
        assert counter["samples"] == [
            ("repro_server_requests_GET_total", {}, 3.0)
        ]
        gauge = families["repro_server_devices"]
        assert gauge["type"] == "gauge"
        assert gauge["samples"][0][2] == 2.0

    def test_histogram_buckets_are_cumulative_le_semantics(self):
        text = render_prom(_registry())
        families = parse_prom(text)
        samples = families["repro_io_latency"]["samples"]
        buckets = {
            labels["le"]: value
            for name, labels, value in samples
            if name == "repro_io_latency_bucket"
        }
        # le is an inclusive upper edge: the observations at exactly 0.001
        # and 0.05 count in those buckets, the 7.0 one from the 10 bucket on
        assert len(buckets) == 23
        assert {
            le: buckets[le]
            for le in ("0.0002", "0.001", "0.02", "0.05", "5", "10", "+Inf")
        } == {
            "0.0002": 0.0, "0.001": 2.0, "0.02": 2.0, "0.05": 3.0,
            "5": 3.0, "10": 4.0, "+Inf": 4.0,
        }
        count = next(v for n, _, v in samples if n == "repro_io_latency_count")
        total = next(v for n, _, v in samples if n == "repro_io_latency_sum")
        assert count == 4.0
        assert total == pytest.approx(7.0515)

    def test_namespace_prefix_is_strippable(self):
        lines = prom_lines(_registry(), namespace="repro_wall")
        assert lines
        for line in lines:
            assert "repro_wall_" in line

    def test_name_collision_raises_instead_of_merging(self):
        registry = MetricRegistry()
        registry.counter("a.b").add(1)
        registry.counter("a_b").add(2)
        with pytest.raises(ObsError, match="collision"):
            prom_lines(registry)

    def test_sanitize_name(self):
        assert sanitize_name("server.requests.GET") == \
            "repro_server_requests_GET"
        assert sanitize_name("a-b c", namespace="") == "a_b_c"
        with pytest.raises(ObsError):
            sanitize_name("9starts.with.digit", namespace="")

    def test_format_value(self):
        assert format_value(3.0) == "3"
        assert format_value(-17) == "-17"
        assert format_value(0.25) == "0.25"
        assert format_value(float("nan")) == "NaN"
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"
        # beyond 2**53 integer floats are not exact; keep the repr
        assert format_value(2.0 ** 60) == repr(2.0 ** 60)

    def test_info_lines_escape_and_parse(self):
        nasty = 'quote " slash \\ newline \n end'
        lines = info_lines(
            "repro_build_info", {"version": nasty, "arch": "x"}, "who built"
        )
        families = parse_prom("\n".join(lines) + "\n")
        name, labels, value = families["repro_build_info"]["samples"][0]
        assert value == 1.0
        assert labels == {"version": nasty, "arch": "x"}
        assert escape_label_value(nasty) in lines[2]

    def test_info_lines_reject_illegal_names(self):
        with pytest.raises(ObsError):
            info_lines("bad name", {}, "")
        with pytest.raises(ObsError):
            info_lines("ok_name", {"bad-label": "v"}, "")


class TestParserRejections:
    def _doc(self, *lines):
        return "\n".join(lines) + "\n"

    def test_sample_before_type_declaration(self):
        with pytest.raises(ValueError, match="precedes"):
            parse_prom(self._doc("orphan_metric 1"))

    def test_duplicate_help_and_type(self):
        with pytest.raises(ValueError, match="duplicate HELP"):
            parse_prom(self._doc(
                "# HELP m one", "# HELP m two", "# TYPE m gauge", "m 1"
            ))
        with pytest.raises(ValueError, match="duplicate TYPE"):
            parse_prom(self._doc(
                "# TYPE m gauge", "# TYPE m counter", "m 1"
            ))

    def test_unknown_type_and_empty_family(self):
        with pytest.raises(ValueError, match="unknown metric type"):
            parse_prom(self._doc("# TYPE m sketch", "m 1"))
        with pytest.raises(ValueError, match="no samples"):
            parse_prom(self._doc("# TYPE m gauge"))
        with pytest.raises(ValueError, match="HELP without TYPE"):
            parse_prom(self._doc("# HELP m text only"))

    def test_malformed_samples(self):
        with pytest.raises(ValueError, match="malformed metric name"):
            parse_prom(self._doc("# TYPE m gauge", "1bad 2"))
        with pytest.raises(ValueError, match="bad sample value"):
            parse_prom(self._doc("# TYPE m gauge", "m pancake"))
        with pytest.raises(ValueError, match="unknown escape"):
            parse_prom(self._doc(
                "# TYPE m gauge", 'm{l="bad\\q"} 1'
            ))
        with pytest.raises(ValueError, match="truncated"):
            parse_prom(self._doc("# TYPE m gauge", 'm{l="open 1'))
        with pytest.raises(ValueError, match="duplicate label"):
            parse_prom(self._doc(
                "# TYPE m gauge", 'm{l="a",l="b"} 1'
            ))

    def test_histogram_validation(self):
        head = ("# TYPE h histogram",)
        with pytest.raises(ValueError, match="missing \\+Inf"):
            parse_prom(self._doc(
                *head, 'h_bucket{le="1"} 1', "h_sum 1", "h_count 1"
            ))
        with pytest.raises(ValueError, match="not cumulative"):
            parse_prom(self._doc(
                *head,
                'h_bucket{le="1"} 5', 'h_bucket{le="+Inf"} 3',
                "h_sum 1", "h_count 3",
            ))
        with pytest.raises(ValueError, match="!= *_count|!= "):
            parse_prom(self._doc(
                *head,
                'h_bucket{le="1"} 1', 'h_bucket{le="+Inf"} 2',
                "h_sum 1", "h_count 7",
            ))
        with pytest.raises(ValueError, match="missing _sum or _count"):
            parse_prom(self._doc(
                *head, 'h_bucket{le="+Inf"} 1', "h_count 1"
            ))

    def test_plain_comments_and_blank_lines_are_fine(self):
        families = parse_prom(self._doc(
            "# just a comment", "", "# TYPE m gauge", "m 1", "   "
        ))
        assert families["m"]["samples"] == [("m", {}, 1.0)]


class TestTraceMinting:
    def test_parse_trace_header(self):
        assert parse_trace_header("abc123") == ("abc123", None)
        assert parse_trace_header("ABC123") == ("abc123", None)
        assert parse_trace_header(" abc:def ") == ("abc", "def")
        assert parse_trace_header("not hex") is None
        assert parse_trace_header("abc:GARBAGE!") is None
        assert parse_trace_header("") is None
        assert parse_trace_header("x" * 65) is None

    def test_mint_is_deterministic_and_draw_order_is_fixed(self):
        minted = Rng(0).fork("server/trace")
        manual = Rng(0).fork("server/trace")
        # honored header: only the span id is drawn
        first = mint_trace(minted, "feedc0de", method="GET", route="healthz")
        assert first.trace_id == "feedc0de"
        assert first.span_id == manual.random_bytes(4).hex()
        assert first.parent_span_id is None
        # no header: span first, then trace — the sequence is a pure
        # function of seed and arrival order
        second = mint_trace(minted)
        assert second.span_id == manual.random_bytes(4).hex()
        assert second.trace_id == manual.random_bytes(8).hex()
        # invalid header behaves exactly like no header
        third = mint_trace(minted, "NOT VALID")
        assert third.span_id == manual.random_bytes(4).hex()
        assert third.trace_id == manual.random_bytes(8).hex()

    def test_parent_span_is_carried(self):
        context = mint_trace(Rng(1).fork("t"), "aa:bb")
        assert context.trace_id == "aa"
        assert context.parent_span_id == "bb"
        assert context.header() == f"aa:{context.span_id}"

    def test_route_template_bounds_cardinality(self):
        assert route_template("/") == "root"
        assert route_template("/healthz") == "healthz"
        assert route_template("/metrics") == "metrics"
        assert route_template("/devices") == "devices"
        assert route_template("/devices/17") == "device"
        assert route_template("/devices/17/boot") == "device.boot"
        assert route_template("/devices/17/telemetry") == "device.telemetry"
        # unknown paths collapse onto one counter, not one per probe
        assert route_template("/devices/17/frobnicate") == "unmatched"
        assert route_template("/devices/17/boot/extra") == "unmatched"
        assert route_template("/admin/../../etc/passwd") == "unmatched"


class TestCliProm:
    def test_metrics_format_prom_is_parseable(self, capsys):
        assert main(["metrics", "--format", "prom"]) == 0
        out = capsys.readouterr().out
        families = parse_prom(out)
        assert any(name.startswith("repro_emmc_") for name in families)
        hist = families["repro_emmc_write"]
        assert hist["type"] == "histogram"
        # the text default is untouched (deprecating nothing)
        assert main(["metrics"]) == 0
        assert "Latency histograms" in capsys.readouterr().out

"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper. Real wall
time is what pytest-benchmark measures; the *scientific* output — the
paper-style table computed on the simulated clock — is printed, stored in
``benchmark.extra_info`` and written to ``benchmarks/results/``.
"""

import pathlib
import sys

import pytest

from repro.obs import write_bench_json

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# the hotpath and store benches time the per-block cost oracle, which
# lives with the other test oracles in tests/oracles/
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))


@pytest.fixture
def save_result():
    """Persist a rendered result table under benchmarks/results/."""

    def _save(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)

    return _save


@pytest.fixture
def save_json():
    """Persist a BENCH_<experiment>.json telemetry payload.

    The payloads are deterministic (sim-clock timestamps only, sorted
    keys), so the committed files under benchmarks/results/ double as a
    regression baseline: CI fails on any uncommitted drift.
    """

    def _save(experiment: str, payload) -> pathlib.Path:
        return write_bench_json(RESULTS_DIR, experiment, payload)

    return _save

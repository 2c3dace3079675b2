"""Smoke test of the end-to-end benchmark at its tiny sizes.

Runs every workload once untraced and once traced through run.py, the
way the benchmark command does, and checks what full runs rely on: every
metric BENCHMARK.json names is emitted with its unit, traced per-layer
shares add up to 1, no operation failed, the runner refuses to run
without the package source, and README.md's baseline table is the
rendering of baseline.json.
"""

import importlib.util
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, out):
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--size", "tiny", "--seconds", "0.2", "--trace", str(trace),
            "--out", str(out),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((out / f"{workload}-seed0-trace{trace}.json").read_text())
    return line, record


def check_line(line, kind):
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == declared
    assert line["correct"] is True
    assert line["attempted"] >= 1
    assert line["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_metrics(workload, tmp_path):
    line, _record = run(workload, 0, tmp_path)
    check_line(line, "end_to_end")
    assert all(m["value"] > 0 for m in line["metrics"].values())

    line, record = run(workload, 1, tmp_path)
    check_line(line, "per_layer")
    shares = [
        m["value"]
        for name, m in list(record["metrics"].items()) + list(record["extras"].items())
        if name.endswith(".share")
    ]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    # the layer self times fit inside the traced busy time they partition,
    # so no share (the `workload` residue included) is negative
    assert all(0.0 <= share <= 1.0 for share in shares)


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_readme_baseline_is_rendered():
    spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    readme = (HERE / "README.md").read_text()
    baseline = json.loads((HERE / "baseline.json").read_text())
    assert runner.readme_text(readme, baseline) == readme

"""Contract test of the benchmark: names, counts, config round-trip, agreement
of ``BENCHMARK.json`` with the driver.  Runs ``run.py --scale smoke`` (tiny
meshes, 2 steps) once per pass; collected by the tier-1 command."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

# pytest puts this file's directory on sys.path (rootdir "prepend" import mode)
import common
import compare

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp: Path, *extra: str) -> tuple[subprocess.CompletedProcess, dict]:
    out = tmp / "record.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--scale", "smoke", "--seed", "0",
         "--out", str(out), "--out-dir", str(tmp), *extra],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done, json.loads(out.read_text())


@pytest.fixture(scope="module")
def end_to_end(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("bench_e2e"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench_trace")
    return (*_run(tmp, "--workload", "airfoil_small", "--trace", "1"), tmp)


def test_manifest_is_within_the_contract_limits():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in MANIFEST[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    setup = [m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])


def test_manifest_and_driver_agree_on_names():
    expected = common.manifest(MANIFEST["command"], MANIFEST["paths"], MANIFEST["run_seconds"])
    assert MANIFEST == expected
    assert MANIFEST["paths"] == ["bench"]
    assert MANIFEST["run_seconds"] == common.NOMINAL_SECONDS


def test_end_to_end_pass_reports_every_metric_on_every_workload(end_to_end):
    done, record = end_to_end
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {
        f"{w}:{m}" for w in common.WORKLOAD_NAMES for m in common.E2E_NAMES
    }
    assert all(v["value"] > 0 for v in last["metrics"].values())
    for workload in record["runs"][0]["workloads"].values():
        assert workload["correct"] and workload["ops_failed"] == 0


def test_record_contains_the_exact_config_it_was_built_from(end_to_end):
    _, record = end_to_end
    for name in common.WORKLOAD_NAMES:
        persisted = record["runs"][0]["workloads"][name]["config"]
        assert persisted == common.workload_config(name, "smoke")


def test_record_carries_the_metadata_block(end_to_end):
    _, record = end_to_end
    meta = record["meta"]
    assert set(meta) == {
        "git_sha", "nproc", "workers", "python", "numba", "slab_backend",
        "start_method", "src_lines",
    }
    assert meta["src_lines"] > 1000 and meta["slab_backend"] in ("numba", "numpy")
    assert meta["workers"] == {
        n: common.workload_config(n, "smoke")["workers"] for n in common.WORKLOAD_NAMES
    }


def test_traced_pass_reports_every_layer_and_writes_the_trace(traced):
    done, record, tmp = traced
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert set(last["metrics"]) == set(common.PER_LAYER_NAMES)
    metrics = record["runs"][0]["workloads"]["airfoil_small"]["metrics"]
    for target in common.ALL_TARGETS:  # every target of the workload was traced
        assert metrics[f"engine.first_step_ms.{target}"]["value"] > 0
    trace = json.loads((tmp / "trace-airfoil_small.json").read_text())
    assert trace["span_fields"] == ["name", "start", "end", "parent", "chain_id", "step"]
    names = {span[0] for span in trace["spans"]}
    assert {"step", "core.analyze", "core.submit", "engine.submit", "engine.drain"} <= names
    # stage and engine spans nest inside their step
    spans = trace["spans"]
    for name, start, end, parent, _chain, _step in spans:
        if parent is not None:
            assert spans[parent][1] <= start + 1e-6 and end <= spans[parent][2] + 1e-6, name


def test_without_the_program_the_driver_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "airfoil_small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout.strip() == ""


def test_compare_verdicts_follow_the_bounds():
    def cell(values):
        q1, q3 = common.quartiles(values)
        median = sorted(values)[len(values) // 2]
        return {"median": median, "q1": q1, "q3": q3, "values": values,
                "spread": (q3 - q1) / median}

    steady = cell([100.0, 101.0, 99.0, 100.5, 100.0])
    assert compare.verdict(steady, cell([102.0, 103, 101, 102.5, 102]), "lower", 0.10)[1] == "unchanged"
    assert compare.verdict(steady, cell([120.0, 121, 119, 120.5, 120]), "lower", 0.10)[1] == "regressed"
    assert compare.verdict(steady, cell([90.0, 91, 89, 90.5, 90]), "lower", 0.10)[1] == "improved"
    assert compare.verdict(steady, cell([90.0, 91, 89, 90.5, 90]), "higher", 0.05)[1] == "regressed"
    noisy = cell([80.0, 130.0, 100.0, 90.0, 120.0])
    assert compare.verdict(noisy, cell([85.0, 125.0, 100.0, 95.0, 115.0]), "lower", 0.10)[1] == "unresolved"
    assert compare.verdict(noisy, cell([50.0, 70.0, 60.0, 55.0, 65.0]), "lower", 0.10)[1] == "improved"

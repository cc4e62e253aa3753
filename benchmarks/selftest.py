"""The benchmark's own test. Run from the repository root:

    python -m pytest -q benchmarks/selftest.py

Every workload runs in smoke mode, untraced and traced. The test checks that
each run emits exactly the metrics BENCHMARK.json declares for it, with their
units, that every output check passed, that the traced run's layer self times
add up to its unit time, and that two same-seed runs write byte-identical logs
and checkpoints and build identical graphs, while a second seed also runs
clean. It also checks BENCHMARK.json's shape and that the benchmark refuses
to run where the sources are missing.
"""
from __future__ import annotations

import functools
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TRAINING = ["pretrain-d64", "finetune-to-target"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def invoke(cwd, workload, seed, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                             "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@functools.lru_cache(maxsize=None)
def run(workload, seed, trace, repeat=0):
    """(detail, result) of one smoke run; ``repeat`` forces a fresh process."""
    out = invoke(ROOT, workload, seed, trace)
    assert out.returncode == 0, out.stderr[-3000:] + out.stdout[-2000:]
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(SPEC["paths"]) <= 16 and 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    for p in SPEC["paths"]:
        assert not p.startswith("/") and ".." not in p.split("/")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_declared_metrics(workload, trace):
    detail, result = run(workload, 0, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, detail
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    assert detail["fingerprint"]["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up(workload):
    detail, result = run(workload, 0, 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_s") and k.count(".") == 1)
    layers += metrics["training.adam_step.s"] + metrics["training.clip_gradients.s"]
    traced = sum(detail["traced_walls"]) / detail["units"]
    plain = sum(detail["unit_walls"]) / detail["units"]
    assert layers == pytest.approx(traced, rel=0.01)
    assert traced / plain - 1.0 == pytest.approx(metrics["trace.overhead"], rel=1e-9)
    assert metrics["trace.spans"] > 0


@pytest.mark.parametrize("workload", TRAINING)
def test_same_seed_runs_are_identical(workload):
    first, res_a = run(workload, 0, 1)
    second, res_b = run(workload, 0, 1, repeat=1)
    assert first["digests"] == second["digests"]
    assert first["graph_nodes_sha256"] == second["graph_nodes_sha256"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [n for n, u in units.items() if u in ("count", "bytes")]
    assert [res_a["metrics"][n]["value"] for n in counts] == \
        [res_b["metrics"][n]["value"] for n in counts]
    assert res_a["metrics"]["autodiff.graph_nodes"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_runs_clean(workload):
    detail, result = run(workload, 1, 0)
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert detail["digests"] != run(workload, 0, 0)[0]["digests"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("_out", "__pycache__"))
    out = invoke(tmp_path, WORKLOADS[0], 0, 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))

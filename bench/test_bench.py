"""Smoke test of the benchmark: tiny runs, schema and metric names only."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import surfgen
from workloads import ROOT, WORKLOADS

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def names(section: str) -> set:
    return {m["name"] for m in CONFIG[section]}


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_config_matches_the_workloads():
    assert [w["name"] for w in CONFIG["workloads"]] == list(WORKLOADS)
    assert CONFIG["command"] == ["python3", "bench/run.py"]
    assert CONFIG["paths"] == ["bench"]
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_generator_is_seeded():
    a = [surfgen.make_surface(7, i) for i in range(50)]
    assert a == [surfgen.make_surface(7, i) for i in range(50)]
    assert a != [surfgen.make_surface(8, i) for i in range(50)]
    assert all(s.variant != s.text for s in a if s.valid)


def test_end_to_end_schema(capsys):
    for workload in WORKLOADS:
        metrics, samples, attempted, failed = run.measure(
            workload, seed=3, seconds=0.2, setup_samples=1)
        run.report(CONFIG, metrics, attempted, failed, False, samples)
        out = last_json_line(capsys.readouterr().out)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        assert set(out["metrics"]) == names("end_to_end")
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_schema(capsys):
    metrics, attempted, failed = run.profile(seed=3, seconds=0.05)
    run.report(CONFIG, metrics, attempted, failed, True, {})
    out = last_json_line(capsys.readouterr().out)
    assert out["correct"]
    assert set(out["metrics"]) == names("per_layer")


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout

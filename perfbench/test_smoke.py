"""Smoke test of the benchmark itself on the toy workload (A2, B2).

    python3 -m pytest perfbench/test_smoke.py

Runs run.py as a subprocess, as a user would, and checks that every metric
BENCHMARK.json declares is emitted and that a wrong recorded digest is
counted as a failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(trace=0, root=ROOT):
    # Three seconds leave room, after the two whole-workload children, for
    # children that run the first instance alone.
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         "toy", "--seed", "3", "--seconds", "3", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_end_to_end_metrics_emitted():
    result = run()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics_emitted():
    result = run(trace=1)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        declared("per_layer")


def test_corrupted_digest_counts_as_failure(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    path = tmp_path / "perfbench" / "digests.json"
    digests = json.loads(path.read_text())
    digests["toy"] = "0" * 64
    path.write_text(json.dumps(digests))
    result = run(root=tmp_path)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_refuses_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (bench / "digests.json").write_text((HERE / "digests.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "toy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

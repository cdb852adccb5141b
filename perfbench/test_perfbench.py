"""The benchmark's own test.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
from calls import run_plugin_r  # noqa: E402
from checker import self_test  # noqa: E402
from workloads import SMOKE, WORKLOADS  # noqa: E402


def test_checker_counts_wrong_and_raising_estimates(tmp_path):
    assert self_test(run_plugin_r, tmp_path) == []


def test_config_names_the_workloads():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    assert names == list(WORKLOADS) == list(SMOKE)
    assert config["command"] == ["python3", "perfbench/run.py"]


def test_smoke_runs_every_workload_traced_and_untraced():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok") == 2 * len(WORKLOADS)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jump-wide", "--seed", "1",
         "--seconds", "30", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout == ""
    # the command line parsed: the run stopped at the missing sources
    assert "no memlen sources" in proc.stderr


@pytest.mark.parametrize(
    "key, values", [("backend", ("numba", "fallback")), ("run_seconds", (30, 10))]
)
def test_compare_refuses_mixed_provenance(tmp_path, key, values):
    for i, value in enumerate(values):
        prov = {"backend": "fallback", "nproc": 2, "run_seconds": 30, key: value}
        record = {"provenance": prov, "trace": 0, "metrics": {}}
        (tmp_path / f"{i}.json").write_text(json.dumps(record))
    with pytest.raises(SystemExit, match=f"different {key}"):
        compare.check_comparable(compare.load(tmp_path))

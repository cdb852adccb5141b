"""The timed calls: `memlen estimate` through the CLI entry point, in
process, and scheme R driven directly with a plug-in backward estimator.

Each call returns its wall time; reading and checking the output happen
after the clock stops.
"""

from __future__ import annotations

import shutil
import sys
import time
import traceback
from pathlib import Path

from memlen import EstimatorParams, read_sample
from memlen.cli import main as memlen_main
from memlen.forward import ReconstructionScheme

from checker import Decision
from workloads import PLUGIN_R

PARAMS = EstimatorParams()


def run_cli(scheme: str, path: Path, checkpoints: list[int], out_dir: Path):
    """Wall time and exit code (None when the call raised)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [
        "estimate",
        "--input", str(path),
        "--format", "bin",
        "--scheme", scheme,
        "--checkpoints", ",".join(map(str, checkpoints)),
        "--out", str(out_dir),
    ]  # fmt: skip
    t0 = time.perf_counter()
    try:
        code = memlen_main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = None
    wall = time.perf_counter() - t0
    if code != 0:
        print(f"memlen {' '.join(argv)} exited with {code}", file=sys.stderr)
    return wall, code


def decide_r(scheme: ReconstructionScheme, n: int, name: str, quiet: bool = False, **kwargs):
    """scheme.decide(n) and its Decision, named ``name``; (None, None) when
    decide raised."""
    try:
        dec = scheme.decide(n, **kwargs)
    except Exception:
        if not quiet:
            traceback.print_exc()
        return None, None
    return dec, Decision(
        name, n, dec.in_stopping_set, memory=dec.memory_length, theta=dec.coverage_index
    )


def run_plugin_r(path: Path, checkpoints: list[int], estimator, quiet: bool = False):
    """Wall time and one decision per checkpoint, None where decide raised."""
    t0 = time.perf_counter()
    sample = read_sample(path, fmt="bin")
    scheme = ReconstructionScheme(sample, PARAMS, backward_estimator=estimator)
    decisions = [decide_r(scheme, n, PLUGIN_R, quiet)[1] for n in checkpoints]
    return time.perf_counter() - t0, decisions


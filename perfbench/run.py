#!/usr/bin/env python3
"""Benchmark for `memlen estimate`, end to end and layer by layer.

    python3 perfbench/run.py --workload parity-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from its src/.
Each run starts the workload in a fresh process, so its peak RSS is its
own, with one thread of work (MEMLEN_THREADS=1 and every BLAS/OpenMP pool
pinned to 1) and glibc's mmap threshold pinned at its default.  The last
line of standard output is the result, {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics of BENCHMARK.json for --trace 0 and
its per-layer metrics for --trace 1.  An untraced run measures for
--seconds seconds (run_seconds of BENCHMARK.json when it is left out); the
result record keeps the run length, and compare.py refuses to mix lengths.

--smoke runs every workload at small n, untraced and traced, in a few
seconds each, and exits non-zero unless every run is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 170
PINNED = {
    "MEMLEN_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # glibc's default mmap threshold, pinned: setting it turns off the
    # dynamic threshold, under which a process switched, at a call that
    # varied from run to run, from mapping fresh pages for each large array
    # to reusing its heap, and the same call took from 1.1 to 2.8 s.  At the
    # default value every large array is a fresh mapping, so every call pays
    # for allocating and faulting in its arrays.
    "MALLOC_MMAP_THRESHOLD_": "131072",
}


def load_config() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_worker(workload: str, seed: int, seconds: int, trace: int, smoke: bool = False):
    """Run one workload in a fresh process; return (exit code, stdout lines)."""
    env = {**os.environ, **PINNED}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--root", str(ROOT),
    ] + (["--smoke"] if smoke else [])  # fmt: skip
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"error: {workload} ran longer than {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 124, []
    return proc.returncode, proc.stdout.splitlines()


def check_result(lines: list[str], names: set[str]) -> dict:
    """The result object on the last line, with exactly the expected keys
    and metric names."""
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if set(result["metrics"]) != names:
        raise ValueError(f"metrics differ from BENCHMARK.json: {set(result['metrics']) ^ names}")
    if result["attempted"] < 1:
        raise ValueError("no decision attempted")
    return result


def smoke(config: dict) -> int:
    ok = True
    for w in config["workloads"]:
        for trace in (0, 1):
            key = "per_layer" if trace else "end_to_end"
            code, lines = run_worker(w["name"], 1, 1, trace, smoke=True)
            names = {m["name"] for m in config[key]}
            try:
                result = check_result(lines, names) if code == 0 else None
            except ValueError as e:
                print(f"error: {e}", file=sys.stderr)
                result = None
            good = bool(result and result["correct"] and result["failed"] == 0)
            ok &= good
            print(f"{w['name']} trace={trace}: {'ok' if good else 'FAILED'} (exit {code})")
            for line in lines:
                if line.startswith("# problem") or (not good and line.startswith("#")):
                    print("  " + line)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "memlen" / "__init__.py").is_file():
        print(f"error: no memlen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = load_config()
    if args.smoke:
        return smoke(config)
    names = [w["name"] for w in config["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    seconds = config["run_seconds"] if args.seconds is None else args.seconds
    if seconds < 1:
        parser.error("--seconds must be at least 1")
    code, lines = run_worker(args.workload, args.seed, seconds, args.trace)
    if code != 0:
        print(f"error: the {args.workload} run exited with {code}", file=sys.stderr)
        return code or 1
    key = "per_layer" if args.trace else "end_to_end"
    try:
        result = check_result(lines, {m["name"] for m in config[key]})
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    units = {m["name"]: m["unit"] for m in config[key]}
    for name, m in result["metrics"].items():
        if m["unit"] != units[name]:
            print(f"error: {name} reported in {m['unit']}, declared {units[name]}", file=sys.stderr)
            return 1
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

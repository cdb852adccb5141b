"""Experiment harness: simulate models, run estimators over checkpoints,
aggregate runs into summary tables.

Exit codes: 0 success, 2 configuration/usage error, 3 internal invariant
violation.  Replicas run one after another; replica r of a --model run is
generated from stream r of --seed, as `simulate` writes sample r.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from .backward import backward_memory_estimate
from .condprob import cond_prob_markov, estimate_successor_law
from .counting import CountIndex
from .errors import InvalidModelError, MemlenError
from .forward import ReconstructionScheme, decide_p
from .oracles import oracle_cond, oracle_memory
from .processes import RNG_ID, generate, load_model, model_to_spec
from .sequence import (
    UNBOUNDED,
    EstimatorParams,
    Sample,
    Word,
    read_sample,
    write_sample,
)

SCHEMA_VERSION = "memlen-run-v1"
SCHEMES = ("backward", "forward-p", "forward-r", "condprob-fm", "condprob-markov")
MEMORY_HEADER = ["n", "in_set", "estimate", "oracle", "match", "theta", "kappa", "ms"]
CONDPROB_HEADER = ["n", "in_set", "symbol", "estimate", "oracle", "match", "theta", "kappa", "ms"]


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _parse_checkpoints(text: str) -> list[int]:
    try:
        pts = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        _fail(f"checkpoints must be integers, got {text!r}")
    if not pts or any(b <= a for a, b in zip(pts, pts[1:])):
        _fail("checkpoints must be strictly increasing")
    if pts[0] < 0:
        _fail("checkpoints must be nonnegative")
    return pts


def _check_replicas(args) -> None:
    if args.replicas < 1:
        _fail(f"--replicas must be at least 1, got {args.replicas}")


def _load_model(path: str):
    """The model of a spec file; exits 2 when the file is missing or is not
    a model spec."""
    try:
        return load_model(path)
    except OSError as e:
        _fail(f"cannot read model spec {path}: {e.strerror or e}")
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        _fail(f"malformed model spec {path}: {e!r}")


def _params(args) -> EstimatorParams:
    try:
        return EstimatorParams(gamma=args.gamma, beta=args.beta, epsilon=args.epsilon)
    except ValueError as e:
        _fail(str(e))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    _check_replicas(args)
    model = _load_model(args.model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for r in range(args.replicas):
        sample = generate(model, args.n, args.seed, stream=r)
        ext = "txt" if args.format == "txt" else "bin"
        write_sample(out / f"sample_{r:03d}.{ext}", sample, fmt=args.format)
    manifest = {
        "schema": SCHEMA_VERSION,
        "command": "simulate",
        "model": model_to_spec(model),
        "n": args.n,
        "seed": args.seed,
        "replicas": args.replicas,
        "rng": RNG_ID,
        "format": args.format,
    }
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return 0


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _oracle_memory_windowed(model, data: np.ndarray):
    """Memory length of the realized past, certified on a window; widened
    until a certificate appears (or the whole past is used).  None when the
    model has no exact memory oracle or no window certifies."""
    if model is None:
        return None
    win = 64
    while True:
        past = Word(tuple(int(s) for s in data[-min(win, len(data)) :]))
        try:
            ans = oracle_memory(model, past)
        except InvalidModelError:
            return None
        if ans.memory_length is not UNBOUNDED:
            return ans.memory_length
        if win >= len(data):
            return None
        win *= 4


def _estimate_one_replica(model, sample: Sample, params, scheme: str, checkpoints):
    rows = []
    recon = ReconstructionScheme(sample, params) if scheme == "forward-r" else None
    for n in checkpoints:
        prefix = Sample.forward(sample.symbols[: n + 1])
        if scheme.startswith("condprob"):
            rows.extend(_condprob_rows(model, prefix, params, scheme))
            continue

        oracle = _oracle_memory_windowed(model, prefix.symbols)
        t0 = time.perf_counter()
        if scheme == "backward":
            index = CountIndex(Sample.backward(prefix.symbols))
            in_set, estimate, theta, kappa = 1, backward_memory_estimate(index, params), "", ""
        else:
            dec = decide_p(prefix, params) if scheme == "forward-p" else recon.decide(n)
            in_set, estimate, theta, kappa = _decision_cells(dec)
        ms = int((time.perf_counter() - t0) * 1000)

        if oracle is None:
            oracle, match = "", ""
        else:
            match = int(estimate == oracle) if estimate != "" else ""
        rows.append([n, in_set, estimate, oracle, match, theta, kappa, ms])
    return rows


def _decision_cells(dec):
    """The in_set, estimate, theta and kappa cells of a forward decision."""
    if dec.in_stopping_set:
        return 1, dec.memory_length, dec.coverage_index, dec.word_index
    return 0, "", dec.coverage_index, ""


def _condprob_rows(model, prefix: Sample, params, scheme: str):
    n = prefix.n
    law = None
    if model is not None:
        try:
            law = {x: float(p) for x, p in oracle_cond(model, _tail_word(prefix)).items()}
        except MemlenError:
            law = None
    t0 = time.perf_counter()
    if scheme == "condprob-markov":
        out = cond_prob_markov(prefix, params)
        in_set, theta, kappa = int(out.in_stopping_set), "", ""
        estimates = out.estimates or {}
    else:  # condprob-fm rides on the scheme-P stopping set
        dec = decide_p(prefix, params)
        in_set, _, theta, kappa = _decision_cells(dec)
        estimates = {}
        if dec.in_stopping_set:
            estimates = estimate_successor_law(prefix, dec.memory_length)
    ms = int((time.perf_counter() - t0) * 1000)
    if not estimates:
        return [[n, in_set, "", "", "", "", theta, kappa, ms]]
    rows = []
    for x, est in sorted(estimates.items()):
        if law is not None:
            oracle = law.get(x, 0.0)
            match = int(abs(est.qhat - oracle) <= 0.02)
            oracle = f"{oracle:.6f}"
        else:
            oracle, match = "", ""
        rows.append([n, in_set, x, f"{est.qhat:.6f}", oracle, match, theta, kappa, ms])
    return rows


def _tail_word(prefix: Sample, width: int = 64) -> Word:
    data = prefix.symbols
    return Word(tuple(int(s) for s in data[-min(width, len(data)) :]))


def _read_input(path: str, fmt: str, checkpoints) -> Sample:
    """The --input sample; exits 2 when it is unreadable or shorter than the
    last checkpoint."""
    try:
        sample = read_sample(path, fmt=fmt)
    except OSError as e:
        _fail(f"cannot read sample {path}: {e.strerror or e}")
    except ValueError as e:
        _fail(f"malformed sample {path}: {e}")
    beyond = [n for n in checkpoints if n > sample.n]
    if beyond:
        _fail(f"checkpoint {beyond[0]} beyond sample length {sample.n}")
    return sample


def cmd_estimate(args) -> int:
    params = _params(args)
    if (args.model is None) == (args.input is None):
        _fail("give exactly one of --model / --input")
    _check_replicas(args)
    model = _load_model(args.model) if args.model else None
    if args.input and args.replicas != 1:
        _fail("--input runs are single-replica")

    checkpoints = _parse_checkpoints(args.checkpoints) if args.checkpoints else None
    if checkpoints is None:
        if args.n is None:
            _fail("give --checkpoints or --n")
        checkpoints = [args.n]
    n = args.n or checkpoints[-1]
    if n < checkpoints[-1]:
        _fail("--n must reach the last checkpoint")
    if model is None:
        sample = _read_input(args.input, args.format, checkpoints)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = CONDPROB_HEADER if args.scheme.startswith("condprob") else MEMORY_HEADER
    for r in range(args.replicas):
        if model is not None:
            sample = generate(model, n, args.seed, stream=r)
        rows = _estimate_one_replica(model, sample, params, args.scheme, checkpoints)
        with open(out / f"estimate_{r:03d}.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(header)
            writer.writerows(rows)
    manifest = {
        "schema": SCHEMA_VERSION,
        "command": "estimate",
        "scheme": args.scheme,
        "csv_schema": "condprob-v1" if args.scheme.startswith("condprob") else "memory-v1",
        "model": model_to_spec(model) if model else None,
        "input": args.input,
        "contract": "checked" if model else "unchecked",
        "params": {"gamma": args.gamma, "beta": args.beta, "epsilon": args.epsilon},
        "checkpoints": checkpoints,
        "seed": args.seed,
        "replicas": args.replicas,
        "rng": RNG_ID,
    }
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cmd_report(args) -> int:
    run_dirs = [Path(d) for d in args.runs]
    manifests = []
    for d in run_dirs:
        mpath = d / "manifest.json"
        if not mpath.exists():
            _fail(f"missing manifest in {d}")
        try:
            with open(mpath) as f:
                manifest = json.load(f)
        except ValueError as e:
            _fail(f"malformed manifest {mpath}: {e}")
        if not isinstance(manifest, dict):
            _fail(f"manifest {mpath} is not a JSON object")
        manifests.append(manifest)
    schemes = {m.get("scheme") for m in manifests}
    if len(schemes) != 1:
        _fail(f"mixed schemes in report inputs: {sorted(map(str, schemes))}")

    per_replica = []
    for d, manifest in zip(run_dirs, manifests):
        for path in sorted(d.glob("estimate_*.csv")):
            with open(path, newline="") as f:
                reader = csv.DictReader(f)
                rows = list(reader)
            if not {"in_set", "match"} <= set(reader.fieldnames or ()):
                _fail(f"{path} lacks the in_set and match columns")
            total = len(rows)
            in_set = sum(1 for r in rows if r["in_set"] == "1")
            matched = [r for r in rows if r["match"] != ""]
            match_rate = (
                sum(int(r["match"]) for r in matched) / len(matched) if matched else ""
            )
            density = in_set / total if total else 0.0
            per_replica.append(
                {
                    "run": str(d),
                    "replica": path.stem,
                    "rows": total,
                    "density": f"{density:.6f}",
                    "match_rate": f"{match_rate:.6f}" if match_rate != "" else "",
                }
            )
    out_path = Path(args.out) if args.out else None
    rates = [float(r["match_rate"]) for r in per_replica if r["match_rate"] != ""]
    densities = [float(r["density"]) for r in per_replica]
    aggregate = {
        "run": "aggregate",
        "replica": f"{len(per_replica)} replicas",
        "rows": sum(r["rows"] for r in per_replica),
        "density": f"{np.mean(densities):.6f}" if densities else "",
        "match_rate": (
            f"{np.mean(rates):.6f} (min {np.min(rates):.6f})" if rates else ""
        ),
    }
    summary_rows = per_replica + [aggregate]
    writer_target = open(out_path, "w", newline="") if out_path else sys.stdout
    try:
        writer = csv.DictWriter(
            writer_target, fieldnames=["run", "replica", "rows", "density", "match_rate"]
        )
        writer.writeheader()
        writer.writerows(summary_rows)
    finally:
        if out_path:
            writer_target.close()
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="memlen")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate sample files from a model spec")
    sim.add_argument("--model", required=True, help="model spec JSON file")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--replicas", type=int, default=1)
    sim.add_argument("--format", choices=("txt", "bin"), default="txt")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="run an estimator over checkpoints")
    est.add_argument("--model", help="model spec JSON (enables oracle columns)")
    est.add_argument("--input", help="sample file (contract-unchecked run)")
    est.add_argument("--scheme", required=True, choices=SCHEMES)
    est.add_argument("--gamma", type=float, default=0.5)
    est.add_argument("--beta", type=float, default=0.24)
    est.add_argument("--epsilon", type=float, default=0.1)
    est.add_argument("--n", type=int)
    est.add_argument("--checkpoints", help="comma-separated strictly increasing times")
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--replicas", type=int, default=1)
    est.add_argument("--format", choices=("txt", "bin"), default="txt")
    est.add_argument("--out", required=True)
    est.set_defaults(func=cmd_estimate)

    rep = sub.add_parser("report", help="aggregate completed runs")
    rep.add_argument("runs", nargs="+", help="run directories")
    rep.add_argument("--out", help="summary CSV path (default: stdout)")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except MemlenError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:  # internal invariant violation
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark run of one workload, in its own process.

Started by run.py with the thread counts pinned; prints report lines and,
last, the result as one JSON object.  Not meant to be started by hand.
"""

import time

# set-up time includes importing numpy and the package
T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import memlen  # noqa: E402
from memlen import _kernels  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

from calls import run_cli, run_plugin_r  # noqa: E402
from checker import MalformedOutput, rates, read_cli_output, self_test, verdict  # noqa: E402
from spans import span_cost_s  # noqa: E402
from traced import TracedRound, probe_l_max  # noqa: E402
from workloads import (  # noqa: E402
    CLI_SCHEMES,
    PLUGIN_R,
    SMOKE,
    WORKLOADS,
    make_inputs,
)

# set-up repeats until it has run SETUP_MIN_REPEATS times and
# SETUP_BUDGET_S seconds, or SETUP_MAX_REPEATS times; setup_s is the median
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 4.0
# the import is timed here once and in IMPORT_PROBES fresh interpreters
IMPORT_PROBES = 4
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import numpy, memlen, memlen._kernels; "
    "print(time.perf_counter() - t)"
)
TRACE_REPEATS = 2
# the traced layer self-times must account for the untraced CLI wall time
# within this band, or the traced decomposition no longer repeats the
# program's work
ACCOUNTED_BAND = (0.8, 1.25)
# forward-r with its default estimator is timed as a layer metric only; its
# decisions still count in the rates
UNTIMED = {"forward-r"}
BACKEND = "numba" if _kernels.NUMBA_ENABLED else "fallback"


def provenance(root: Path, workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "memlen").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "backend": BACKEND,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "memlen": memlen.__version__,
        "commit": _git_commit(root),
        "source_sha256": digest.hexdigest(),
        "threads": {k: os.environ.get(k) for k in ("MEMLEN_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def _git_commit(root: Path) -> str | None:
    """Commit of the checkout when it is a git work tree (read without
    running git), else None."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


class Run:
    """The calls of one workload and what they produced."""

    def __init__(self, spec, inputs, workdir: Path, schemes):
        self.spec = spec
        self.inputs = inputs
        self.workdir = workdir
        self.schemes = schemes
        self.walls: dict[str, list[float]] = {s: [] for s in self.schemes}
        self.first: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, scheme: str):
        """One timed `memlen estimate` call of a CLI scheme."""
        cps = self.inputs.checkpoints
        out_dir = self.workdir / "out"
        wall, code = run_cli(scheme, self.inputs.path, cps, out_dir)
        decisions = [None] * len(cps)
        if code == 0:
            try:
                decisions = read_cli_output(scheme, out_dir, cps)
            except MalformedOutput as e:
                self.problems.append(str(e))
        self.add(scheme, wall, decisions)

    def add(self, scheme: str, wall: float, decisions: list) -> None:
        """Record one call: its wall time and its decisions, None for each
        decision the call failed to make."""
        self.walls[scheme].append(wall)
        self.attempted += len(decisions)
        self.failed += decisions.count(None)
        if scheme not in self.first:
            self.first[scheme] = decisions
        elif decisions != self.first[scheme]:
            self.problems.append(f"{scheme}: decisions changed between repeats")

    def measure(self, seconds: float) -> None:
        """Run each untimed scheme once, for its decisions; then cycle
        through the timed schemes until the next call would end after the
        deadline.  Every scheme runs at least once."""
        deadline = time.perf_counter() + seconds
        for scheme in self.spec.schemes:
            if scheme in UNTIMED:
                self.call(scheme)
        schemes = [s for s in self.spec.schemes if s not in UNTIMED]
        i = 0
        while True:
            scheme = schemes[i % len(schemes)]
            walls = self.walls[scheme]
            if i >= len(schemes) and time.perf_counter() + statistics.median(walls) > deadline:
                break
            self.call(scheme)
            i += 1

    def ms_per_decision(self, scheme: str) -> float:
        return 1000 * statistics.median(self.walls[scheme]) / len(self.inputs.checkpoints)

    def decisions_per_s(self) -> float:
        """Decisions per second of a round made of each timed scheme's
        median call."""
        timed = [s for s in self.spec.schemes if s not in UNTIMED]
        made = len(timed) * len(self.inputs.checkpoints)
        return made / sum(statistics.median(self.walls[s]) for s in timed)

    def verdicts(self, schemes) -> list[str]:
        """Verdicts of the distinct decisions (each scheme's first call; the
        repeats must equal it), so they repeat exactly at a fixed seed."""
        cps, refs = self.inputs.checkpoints, self.inputs.refs
        return [verdict(d, refs[n]) for s in schemes for d, n in zip(self.first.get(s, []), cps)]

    def rates(self) -> dict[str, float]:
        return rates(self.verdicts(self.first))

    def gate(self) -> list[str]:
        """Checks of the decisions that hold at every seed.

        Scheme P selects the shortest suffix that passes the memory-word
        test, as the backward estimator does, so whenever forward-p is in
        the stopping set the two must agree.  Where a workload has several
        decision times, each timed scheme (and scheme R with the plug-in
        estimator, where it ran) must match the reference at least once and
        be wrong in at most a quarter of its own decisions; in 120 seeds of
        parity-grid no scheme was wrong more than once in four.
        condprob-markov is not consistent on the parity chain, which has no
        finite order, and may stay out of the stopping set where the others
        decide (seed 49: in the set once, and wrong there), so it need only
        be in the set at least once.  With a
        single decision time one statistical miss of a consistent estimator
        would fail the run, so there is no such check.  forward-r with its
        default estimator is left out: it is known to answer wrongly
        (ROADMAP item 3), and its wrong decisions show in wrong_rate
        instead.
        """
        problems = []
        backward, forward_p = self.first.get("backward"), self.first.get("forward-p")
        for b, p in zip(backward or [], forward_p or []):
            if b and p and p.in_set and p.memory != b.memory:
                problems.append(f"forward-p@{p.n} selects {p.memory}, backward {b.memory}")
        if len(self.inputs.checkpoints) >= 4:
            for scheme in self.spec.schemes + (PLUGIN_R,):
                if scheme in UNTIMED or scheme not in self.first:
                    continue
                got = self.verdicts([scheme])
                matched, wrong = got.count("match"), got.count("wrong")
                floor = matched + wrong if scheme == "condprob-markov" else matched
                if floor == 0 or wrong > len(got) / 4:
                    problems.append(f"{scheme}: {matched} match, {wrong} wrong of {len(got)}")
        return problems


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run: Run, setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "setup_s": _metric(setup_s, "s"),
        "decisions_per_s": _metric(run.decisions_per_s(), "1/s"),
        "backward_ms": _metric(run.ms_per_decision("backward"), "ms"),
        "forward_p_ms": _metric(run.ms_per_decision("forward-p"), "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def traced_rounds(run: Run, spec, inputs) -> tuple[list[TracedRound], TracedRound]:
    """Rounds of every CLI scheme, each call followed by its traced
    decomposition; then, on the workloads that have it, one traced round of
    scheme R with the plug-in estimator; last, the reconstruct_past probe.

    Every CLI scheme runs here, also those a workload does not time, so
    that every layer is measured on every workload.  A scheme's first
    untraced call gives its traced decompositions theta and the emitted
    symbols.  Pairing each call with its decomposition keeps the machine's
    drift out of their ratio, trace.accounted_share."""
    symbols = np.fromfile(inputs.path, dtype="<u4").astype(np.int64)
    l_max = probe_l_max(symbols, inputs.checkpoints)
    rounds = [
        TracedRound(inputs.path, inputs.checkpoints, l_max, run.first)
        for _ in range(TRACE_REPEATS)
    ]
    for traced in rounds:
        for scheme in CLI_SCHEMES:
            run.call(scheme)
            traced.run([scheme])
    extra = TracedRound(inputs.path, inputs.checkpoints, l_max, run.first)
    if spec.plugin_r:
        # its recurrence scans take seconds per decision, so it runs once,
        # traced, and its decisions come from that round
        t0 = time.perf_counter()
        extra.run([PLUGIN_R])
        run.add(PLUGIN_R, time.perf_counter() - t0, extra.decisions[PLUGIN_R])
    extra.probe_reconstruct_past(memlen.read_sample(inputs.path, fmt="bin"))
    if not extra.probe_ok:
        run.problems.append("reconstruct_past and available_depth disagree")
    return rounds, extra


def per_layer(run: Run, rounds, extra: TracedRound, setups) -> dict:
    """Layer self times per round (mean over the traced CLI rounds, plus
    the plug-in scheme R round and the probe), counts, and how the traced
    layers account for the untraced CLI wall time."""
    layers: dict[str, float] = {}
    cli_layers = 0.0
    for r in rounds:
        for name, sec in r.tr.self_seconds().items():
            layers[name] = layers.get(name, 0.0) + sec / len(rounds)
        for rec in r.tr.spans:
            if "." in rec["name"] and rec["decision"].split("@")[0] in CLI_SCHEMES:
                cli_layers += rec["self"] / 1e9 / len(rounds)
    for name, sec in extra.tr.self_seconds().items():
        layers[name] = layers.get(name, 0.0) + sec
    cli_wall = sum(statistics.mean(run.walls[s]) for s in CLI_SCHEMES)
    n_spans = sum(len(r.tr.spans) for r in rounds) / len(rounds) + len(extra.tr.spans)
    c = rounds[0].counts
    anchors = c["forward.anchors"] + extra.counts["forward.anchors"]
    depth_sum = c["forward.depth_sum"] + extra.counts["forward.depth_sum"]
    fwd_p = run.first["forward-p"]
    out = {
        "processes.generate_s": _metric(statistics.median(s["generate_s"] for s in setups), "s"),
        "oracles.reference_s": _metric(statistics.median(s["reference_s"] for s in setups), "s"),
    }
    for name in (
        "sequence.read", "counting.build", "counting.extend", "counting.csr",
        "counting.l_max", "backward.discrepancy", "backward.estimate",
        "forward.coverage_p", "forward.reconstruct", "forward.reconstruct_past",
        "condprob.order", "condprob.fm",
    ):  # fmt: skip
        out[name + "_s"] = _metric(layers.get(name, 0.0), "s")
    unknown = {k for k in layers if "." in k} - {k[:-2] for k in out}
    if unknown:
        raise AssertionError(f"spans without a metric: {sorted(unknown)}")
    facts = rounds[0].index_facts
    out.update(
        {
            "counting.l_max": _metric(facts["counting.l_max"], "count"),
            "counting.ids": _metric(facts["counting.ids"], "count"),
            "counting.bytes": _metric(facts["counting.bytes"], "bytes"),
            "forward.words_enumerated": _metric(c["forward.words_enumerated"], "count"),
            "forward.p_pass_ratio": _metric(
                c["forward.words_passed"] / max(c["forward.words_enumerated"], 1), "ratio"
            ),
            "forward.density": _metric(
                sum(bool(d and d.in_set) for d in fwd_p) / len(fwd_p), "ratio"
            ),
            "forward.anchors": _metric(anchors, "count"),
            "forward.recon_depth": _metric(depth_sum / max(anchors, 1), "count"),
            "forward.r_coverage": _metric(
                max(c["forward.r_coverage"], extra.counts["forward.r_coverage"]), "ratio"
            ),
            "forward.r_default_ms": _metric(run.ms_per_decision("forward-r"), "ms"),
            "condprob.order": _metric(rounds[0].order, "count"),
            "cli.condprob_fm_ms": _metric(run.ms_per_decision("condprob-fm"), "ms"),
            "cli.condprob_markov_ms": _metric(run.ms_per_decision("condprob-markov"), "ms"),
            "cli.overhead_s": _metric(cli_wall - cli_layers, "s"),
            "trace.overhead_s": _metric(span_cost_s() * n_spans, "s"),
            "trace.accounted_share": _metric(cli_layers / cli_wall, "ratio"),
        }
    )
    out.update({f"check.{k}": _metric(v, "ratio") for k, v in run.rates().items()})
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--root", type=Path, required=True)
    args = parser.parse_args()

    spec = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    work = args.root / "perfbench" / ".work"
    workdir = work / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, spec, work, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def import_times() -> list[float]:
    """This process's import time and that of IMPORT_PROBES fresh
    interpreters, started one at a time."""
    times = [IMPORT_S]
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE], stdout=subprocess.PIPE, text=True, check=True
        )
        times.append(float(out.stdout))
    return times


def _run(args, spec, work: Path, workdir: Path) -> int:
    prov = provenance(args.root, args.workload, args.seed)
    prov["run_seconds"] = args.seconds
    print("# provenance " + json.dumps(prov, sort_keys=True))

    imports = import_times()
    setups, setup_walls = [], []
    start = time.perf_counter()
    while len(setup_walls) < SETUP_MAX_REPEATS and (
        len(setup_walls) < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_BUDGET_S
    ):
        t0 = time.perf_counter()
        inputs = make_inputs(spec, args.seed, workdir)
        setup_walls.append(time.perf_counter() - t0)
        setups.append({"generate_s": inputs.generate_s, "reference_s": inputs.reference_s})
    setup_s = statistics.median(imports) + statistics.median(setup_walls)
    print(f"# checkpoints {inputs.checkpoints}")
    print("# references " + json.dumps({n: r.memory for n, r in inputs.refs.items()}))

    problems = self_test(run_plugin_r, workdir)
    if args.trace:
        run = Run(spec, inputs, workdir, CLI_SCHEMES + (PLUGIN_R,) * spec.plugin_r)
    else:
        run = Run(spec, inputs, workdir, spec.schemes)
    if args.trace:
        rounds, extra = traced_rounds(run, spec, inputs)
        with open(work / f"trace-{args.workload}-s{args.seed}.jsonl", "w") as f:
            for i, r in enumerate(rounds + [extra]):
                r.tr.write(f, round_id=i)
        metrics = per_layer(run, rounds, extra, setups)
        share = metrics["trace.accounted_share"]["value"]
        if not ACCOUNTED_BAND[0] <= share <= ACCOUNTED_BAND[1]:
            problems.append(f"traced layers account for {share:.3f} of the CLI time")
    else:
        run.measure(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(run, setup_s, peak_rss_mb)
    problems += run.problems + run.gate()

    counts = run.rates()
    for scheme, walls in run.walls.items():
        print(f"# {scheme}: {len(walls)} calls, {run.ms_per_decision(scheme):.1f} ms/decision")
    print("# rates " + json.dumps(counts, sort_keys=True))
    for p in problems:
        print(f"# problem: {p}")
    result = {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "provenance": prov,
        "trace": args.trace,
        "rates": counts,
        "calls_s": run.walls,
        "setup_parts_s": {"imports": imports, "setups": setup_walls},
        **result,
    }
    if not args.smoke:  # smoke runs are small and would mix into comparisons
        results = work / "results"
        results.mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}.json"
        (results / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

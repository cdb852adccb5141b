"""The traced run: every decision repeated as the public calls of each
layer, in program order, with the index warmed step by step and one span
around each step.

Spans are named after the layer (module) whose public call they wrap; a
decision's root span is named after its scheme, and its self time is the
benchmark's own glue.  The untraced round that precedes this run supplies
what the decomposition needs to repeat the same work: the enumeration
prefix scheme P reached (theta) and the symbols a condprob call emitted.
"""

from __future__ import annotations

import numpy as np

from memlen import (
    CountIndex,
    Sample,
    available_depth,
    backward_memory_estimate,
    cond_prob_markov,
    decide_p,
    estimate_cond_prob,
    estimate_markov_order,
    read_sample,
    reconstruct_past,
)
from memlen.backward import discrepancy_by_length
from memlen.forward import ReconstructionScheme, forward_index

from calls import PARAMS, decide_r
from spans import Tracer
from workloads import PLUGIN_R, structural_parity_estimator

PROBE_ANCHORS = 2


def probe_l_max(symbols: np.ndarray, checkpoints) -> dict[int, int]:
    """Reference l_max per checkpoint, from a throwaway index, so the traced
    decisions can extend ids exactly as far as they will need."""
    return {
        n: forward_index(Sample.forward(symbols[: n + 1])).max_frequent_length(PARAMS.gamma)
        for n in checkpoints
    }


class TracedRound:
    def __init__(self, path, checkpoints, l_max, untraced):
        """``untraced`` maps scheme -> list of decisions from the untraced
        round, one per checkpoint."""
        self.tr = Tracer()
        self.path = path
        self.checkpoints = checkpoints
        self.l_max = l_max
        self.untraced = untraced
        self.counts = {
            "forward.words_enumerated": 0,
            "forward.words_passed": 0,
            "forward.anchors": 0,
            "forward.depth_sum": 0,
            "forward.r_coverage": 0.0,
        }
        self.index_facts: dict[str, int] = {}
        # scheme R decisions, one per checkpoint, None where decide raised
        self.decisions: dict[str, list] = {}
        self.order = 0
        self.probe_ok = True

    # -- helpers -----------------------------------------------------------

    def _build(self, index_fn, prefix):
        with self.tr.span("counting.build"):
            return index_fn(prefix)

    def _warm(self, idx, n: int) -> None:
        with self.tr.span("counting.extend"):
            for length in range(2, self.l_max[n] + 2):
                idx.ids(length)
        with self.tr.span("counting.l_max"):
            got = idx.max_frequent_length(PARAMS.gamma)
        if got != self.l_max[n]:
            raise AssertionError(f"l_max {got} differs from the probe's {self.l_max[n]}")

    def _disc(self, idx, length: int) -> np.ndarray:
        with self.tr.span("backward.discrepancy"):
            return discrepancy_by_length(idx, length, PARAMS.gamma)

    def _read(self, scheme: str) -> Sample:
        with self.tr.span("sequence.read", decision=f"{scheme}@read"):
            return read_sample(self.path, fmt="bin")

    # -- schemes -------------------------------------------------------------

    def backward(self, sample, n, _):
        prefix = Sample.forward(sample.symbols[: n + 1])
        idx = self._build(lambda p: CountIndex(Sample.backward(p.symbols)), prefix)
        self._warm(idx, n)
        thr = PARAMS.test_threshold(n)
        for k in range(0, n):
            d = self._disc(idx, k)
            if (d[0] if k == 0 else d[idx.ids(k)[n]]) <= thr:
                break
        with self.tr.span("backward.estimate"):
            backward_memory_estimate(idx, PARAMS)

    def _forward_p(self, prefix, n, theta):
        idx = self._build(forward_index, prefix)
        self._warm(idx, n)
        thr = PARAMS.test_threshold(n)
        start = 0  # list index of the first word of the current length
        passed = 0
        csr_lengths = []
        for length in range(0, self.l_max[n] + 1):
            n_words = 1 if length == 0 else idx.n_ids(length)
            d = self._disc(idx, length)
            reached = d[: max(0, min(n_words, theta - start + 1))]
            ok = int(np.count_nonzero(reached <= thr))
            passed += ok
            if ok and length >= 1:
                with self.tr.span("counting.csr"):
                    idx.positions_by_id(length)
                csr_lengths.append(length)
            start += n_words
            if start > theta:
                break
        with self.tr.span("forward.coverage_p"):
            dec = decide_p(prefix, PARAMS, index=idx)
        if dec.coverage_index != theta:
            raise AssertionError(f"traced theta {dec.coverage_index}, untraced {theta}")
        return idx, dec, csr_lengths, passed

    def forward_p(self, sample, n, untraced):
        prefix = Sample.forward(sample.symbols[: n + 1])
        idx, _, csr_lengths, passed = self._forward_p(prefix, n, untraced.theta)
        self.counts["forward.words_enumerated"] += untraced.theta + 1
        self.counts["forward.words_passed"] += passed
        if n == self.checkpoints[-1]:
            self._index_facts(idx, n, csr_lengths)

    def condprob_fm(self, sample, n, untraced):
        prefix = Sample.forward(sample.symbols[: n + 1])
        dec = self._forward_p(prefix, n, untraced.theta)[1]
        if untraced.law is not None:
            with self.tr.span("condprob.fm"):
                for x, _ in untraced.law:
                    estimate_cond_prob(prefix, dec.memory_length, x)

    def condprob_markov(self, sample, n, _):
        prefix = Sample.forward(sample.symbols[: n + 1])
        idx = self._build(forward_index, prefix)
        self._warm(idx, n)
        thr = PARAMS.test_threshold(n)
        cutoff = PARAMS.frequency_cutoff(n)
        for k in range(0, self.l_max[n] + 2):
            d = self._disc(idx, k)
            if k == 0:
                if d[0] <= thr:
                    break
                continue
            if np.all(d[idx.l_count(k) > cutoff] <= thr):
                break
        with self.tr.span("condprob.order"):
            self.order = estimate_markov_order(prefix, PARAMS, index=idx)
        with self.tr.span("condprob.fm"):
            cond_prob_markov(prefix, PARAMS, index=idx)

    def _scheme_r(self, sample, estimator, name):
        def counted(arr):
            self.counts["forward.anchors"] += 1
            self.counts["forward.depth_sum"] += len(arr) - 1
            return estimator(arr)

        scheme = ReconstructionScheme(sample, PARAMS, backward_estimator=counted)
        decisions = self.decisions.setdefault(name, [])
        for n in self.checkpoints:
            with self.tr.span(name, decision=f"{name}@{n}"):
                prefix = Sample.forward(sample.symbols[: n + 1])
                idx = self._build(forward_index, prefix)
                with self.tr.span("forward.reconstruct"):
                    dec, decision = decide_r(scheme, n, name, index=idx)
            decisions.append(decision)
            if dec is not None:
                cov = self.counts["forward.r_coverage"]
                self.counts["forward.r_coverage"] = max(cov, dec.coverage)

    def forward_r_default(self, sample):
        # the same function as scheme R's default estimator, wrapped in a span
        def estimator(arr):
            with self.tr.span("backward.estimate"):
                return backward_memory_estimate(CountIndex(Sample.backward(arr)), PARAMS)

        self._scheme_r(sample, estimator, "forward-r")

    def forward_r_plugin(self, sample):
        self._scheme_r(sample, structural_parity_estimator, PLUGIN_R)

    def _index_facts(self, idx, n: int, csr_lengths) -> None:
        """Counts and computed bytes of the id, count and CSR tables one
        forward-p decision leaves behind at the last checkpoint."""
        lengths = range(1, self.l_max[n] + 2)
        nbytes = sum(idx.ids(L).nbytes + idx.l_count(L).nbytes for L in lengths)
        nbytes += sum(a.nbytes for L in csr_lengths for a in idx.positions_by_id(L))
        self.index_facts = {
            "counting.l_max": self.l_max[n],
            "counting.ids": sum(idx.n_ids(L) for L in lengths),
            "counting.bytes": nbytes,
        }

    # -- rounds ---------------------------------------------------------------

    def run(self, schemes) -> None:
        per_checkpoint = {
            "backward": self.backward,
            "forward-p": self.forward_p,
            "condprob-fm": self.condprob_fm,
            "condprob-markov": self.condprob_markov,
        }
        for scheme in schemes:
            if scheme == PLUGIN_R:
                self.forward_r_plugin(self._read(scheme))
            elif scheme == "forward-r":
                self.forward_r_default(self._read(scheme))
            else:
                sample = self._read(scheme)
                for n, untraced in zip(self.checkpoints, self.untraced[scheme]):
                    with self.tr.span(scheme, decision=f"{scheme}@{n}"):
                        per_checkpoint[scheme](sample, n, untraced)

    def probe_reconstruct_past(self, sample) -> None:
        """Reconstruct the first anchors at the last checkpoint through the
        public reconstruct_past/available_depth; the two must agree."""
        n = self.checkpoints[-1]
        prefix = Sample.forward(sample.symbols[: n + 1])
        with self.tr.span("forward.reconstruct_past", decision="probe"):
            for anchor in range(PROBE_ANCHORS):
                depth = available_depth(sample, n, anchor)
                rec = reconstruct_past(prefix, anchor, depth)
                self.probe_ok &= rec.depth == depth

"""Process generators: finite-order Markov chains, hidden-function models,
countable-alphabet jump chains with scheduled pair perturbations, ladder
function processes, and stationary binary renewal processes.

Every generator is deterministic given (model, n, seed).  The RNG is numpy's
PCG64 (identified as "pcg64" in run manifests); replica streams are derived
by seeding with the pair [master_seed, replica_index].
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import _kernels
from .errors import InvalidModelError
from .sequence import Sample

ROW_SUM_TOL = 1e-12
RNG_ID = "pcg64"


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Replica stream ``stream`` of master seed ``seed``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


# ---------------------------------------------------------------------------
# Model types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkovKernel:
    """Finite-support Markov kernel of a given order.

    ``rows`` maps a length-``order`` context tuple to a distribution over
    successor symbols.  Every context reachable from a row support must have
    a row of its own.
    """

    order: int
    rows: Mapping[tuple[int, ...], Mapping[int, float]]

    def __post_init__(self):
        if self.order < 1:
            raise InvalidModelError("kernel order must be >= 1")
        for ctx, row in self.rows.items():
            if len(ctx) != self.order:
                raise InvalidModelError(f"context {ctx} does not match order {self.order}")
            total = float(sum(row.values()))
            if abs(total - 1.0) > ROW_SUM_TOL or any(p < 0 for p in row.values()):
                raise InvalidModelError(f"row for context {ctx} is not a distribution")
        for ctx, row in self.rows.items():
            for x, p in row.items():
                if p > 0 and ctx[1:] + (x,) not in self.rows:
                    raise InvalidModelError(
                        f"context {ctx[1:] + (x,)} is reachable but has no row"
                    )

    @property
    def alphabet(self) -> tuple[int, ...]:
        syms = set()
        for ctx in self.rows:
            syms.update(ctx)
        for row in self.rows.values():
            syms.update(row)
        return tuple(sorted(syms))


@dataclass(frozen=True)
class HiddenFunctionModel:
    """An order-1 hidden chain observed through a state-to-symbol map."""

    kernel: MarkovKernel
    observation: Mapping[int, int]

    def __post_init__(self):
        if self.kernel.order != 1:
            raise InvalidModelError("the hidden chain must have order 1")
        for s in self.kernel.alphabet:
            if s not in self.observation:
                raise InvalidModelError(f"hidden state {s} has no observation value")


@dataclass(frozen=True)
class GeometricJumpChain:
    """Countable-state chain with geometric jump rows.

    From state s: probability 2^-j-2 of moving to j < s, 2^-s-1 of staying,
    and 2^-r-1 of climbing to s+r.  Every state above 0 moves to 0 with
    probability exactly 1/4.
    """

    def row(self, s: int) -> dict[int, float]:
        """Row truncated once the remaining tail mass drops below 1e-12,
        then renormalized.  Sampling never uses this: it walks the exact
        inverse CDF, so truncation affects validation only."""
        row = {j: 2.0 ** (-j - 2) for j in range(s)}
        row[s] = 2.0 ** (-s - 1)
        r = 1
        while 2.0 ** (-r) >= 1e-12:
            row[s + r] = 2.0 ** (-r - 1)
            r += 1
        total = sum(row.values())
        return {j: p / total for j, p in row.items()}


@dataclass(frozen=True)
class PerturbedJumpChain:
    """Order-2 perturbation of the geometric jump chain.

    For each stage index h <= stage, whenever the previous two states are
    (schedule[h], h) the successor probabilities of states h and h+1 are
    interchanged; all other pairs follow the base rows.  stage = -1 is the
    unperturbed base chain lifted to order 2.
    """

    schedule: tuple[int, ...]
    stage: int

    def __post_init__(self):
        sched = self.schedule
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise InvalidModelError("schedule must be strictly increasing")
        if any(t <= j + 1 for j, t in enumerate(sched)):
            raise InvalidModelError("schedule entries must satisfy t_j > j+1")
        if self.stage >= len(sched):
            raise InvalidModelError("stage exceeds the supplied schedule")

    def pair_row(self, prev: int, cur: int) -> dict[int, float]:
        row = GeometricJumpChain().row(cur)
        if 0 <= self.stage and cur <= self.stage and cur < len(self.schedule):
            if prev == self.schedule[cur]:
                a, b = row.get(cur, 0.0), row.get(cur + 1, 0.0)
                row[cur], row[cur + 1] = b, a
        return row


@dataclass(frozen=True)
class LadderFunctionProcess:
    """Binary function of the ladder chain (0 -> 1 -> 2 surely; s > 1 jumps
    to 0 or climbs, each with probability 1/2).

    The observed symbol is 0 exactly on the zero set {0, 1} plus the supplied
    extra zeros (each >= 4, pairwise non-adjacent), or, for the infinite
    case, all s >= 4 with s % modulus == 0 for a modulus >= 2.
    """

    extra_zeros: tuple[int, ...] = ()
    modulus: Optional[int] = None

    def __post_init__(self):
        if self.modulus is not None:
            if self.modulus < 2:
                raise InvalidModelError("a zero-set modulus must be >= 2")
            if self.extra_zeros:
                raise InvalidModelError("give either extra zeros or a modulus, not both")
            return
        zs = sorted(self.extra_zeros)
        if any(z < 4 for z in zs):
            raise InvalidModelError("extra zeros must be >= 4")
        if any(b - a == 1 for a, b in zip(zs, zs[1:])):
            raise InvalidModelError("adjacent zeros are not allowed: a 0 must be followed by 1")

    def in_zero_set(self, s: int) -> bool:
        if s in (0, 1):
            return True
        if s < 4:
            return False
        if self.modulus is not None:
            return s % self.modulus == 0
        return s in self.extra_zeros

    def observe(self, s: int) -> int:
        return 0 if self.in_zero_set(s) else 1

    @property
    def max_extra_zero(self) -> Optional[int]:
        """Largest zero above 1, when the zero set is finite."""
        if self.modulus is not None:
            return None
        return max(self.extra_zeros) if self.extra_zeros else 1


@dataclass(frozen=True)
class RenewalProcess:
    """Stationary binary renewal process: i.i.d. gaps between ones.

    The gap law is either a finite-support table {gap: prob} over positive
    integers or geometric(p) on {1, 2, ...}.  Infinite-mean laws are refused.
    """

    gap_probs: Optional[Mapping[int, float]] = None
    geometric_p: Optional[float] = None

    def __post_init__(self):
        if (self.gap_probs is None) == (self.geometric_p is None):
            raise InvalidModelError("give exactly one of gap_probs / geometric_p")
        if self.gap_probs is not None:
            if any(g < 1 for g in self.gap_probs):
                raise InvalidModelError("gaps must be positive integers")
            total = float(sum(self.gap_probs.values()))
            if abs(total - 1.0) > ROW_SUM_TOL or any(p < 0 for p in self.gap_probs.values()):
                raise InvalidModelError("gap law is not a distribution")
        else:
            if not 0.0 < self.geometric_p <= 1.0:
                raise InvalidModelError("geometric parameter must lie in (0, 1]")

    @property
    def mean_gap(self) -> float:
        if self.gap_probs is not None:
            return float(sum(g * p for g, p in self.gap_probs.items()))
        return 1.0 / self.geometric_p


ProcessModel = (
    MarkovKernel
    | HiddenFunctionModel
    | GeometricJumpChain
    | PerturbedJumpChain
    | LadderFunctionProcess
    | RenewalProcess
)


def parity_chain() -> HiddenFunctionModel:
    """Three-state hidden chain whose observed process flags one state.

    The next-symbol law after a past depends on the parity of the number of
    trailing zeros, so the observed binary process is not Markov of any
    order, yet every past ending in a one has finite memory.
    """
    kernel = MarkovKernel(
        order=1,
        rows={
            (0,): {1: 1.0},
            (1,): {2: 1.0},
            (2,): {0: 0.5, 1: 0.5},
        },
    )
    return HiddenFunctionModel(kernel=kernel, observation={0: 1, 1: 0, 2: 0})


# ---------------------------------------------------------------------------
# Stationary laws
# ---------------------------------------------------------------------------


def stationary_distribution(states: Sequence, transition: Mapping) -> dict:
    """Stationary law of a finite chain given per-state successor rows."""
    idx = {s: i for i, s in enumerate(states)}
    m = len(states)
    a = np.zeros((m, m))
    for s, row in transition.items():
        for t, p in row.items():
            a[idx[t], idx[s]] += p
    vals, vecs = np.linalg.eig(a)
    k = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.real(vecs[:, k])
    pi = np.abs(pi)
    pi /= pi.sum()
    return {s: float(pi[idx[s]]) for s in states}


def _kernel_tables(kernel: MarkovKernel):
    """Flatten kernel rows into arrays for the sampling kernel."""
    contexts = sorted(kernel.rows)
    cidx = {c: i for i, c in enumerate(contexts)}
    width = max(len(row) for row in kernel.rows.values())
    cum = np.ones((len(contexts), width), dtype=np.float64)
    out_syms = np.zeros((len(contexts), width), dtype=np.int64)
    next_ctx = np.zeros((len(contexts), width), dtype=np.int64)
    for c in contexts:
        i = cidx[c]
        acc = 0.0
        for col, (x, p) in enumerate(sorted(kernel.rows[c].items())):
            acc += p
            cum[i, col] = acc
            out_syms[i, col] = x
            if p > 0:
                next_ctx[i, col] = cidx[c[1:] + (x,)]
                last = col
        # the u above a row's sum, which may fall just short of 1, go to its
        # last positive cell, not to a zero cell or the padding
        cum[i, last:] = 1.0
    return contexts, cidx, cum, out_syms, next_ctx


def _context_stationary(kernel: MarkovKernel) -> dict[tuple[int, ...], float]:
    contexts = sorted(kernel.rows)
    transition = {
        c: {c[1:] + (x,): p for x, p in kernel.rows[c].items() if p > 0} for c in contexts
    }
    return stationary_distribution(contexts, transition)


def _draw_from(rng: np.random.Generator, items: Sequence, probs: Sequence[float]):
    u = rng.random()
    acc = 0.0
    for item, p in zip(items, probs):
        acc += p
        if u < acc:
            return item
    return items[-1]


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def generate(model: ProcessModel, n: int, seed: int, stream: int = 0) -> Sample:
    """Generate a forward realization X_0..X_n of the model.

    Parameters
    ----------
    model : ProcessModel
        Any of the supported model types.
    n : int
        Length parameter; the sample holds n+1 symbols.
    seed, stream : int
        Master seed and replica stream; the pair fully determines the
        output (PCG64 uniforms, drawn in the order of a step-by-step walk).

    Returns
    -------
    Sample
        Forward sample of n+1 symbols.  Initial states are drawn from the
        stationary law where it is available in closed form or by a finite
        solve, and by burn-in (10*sqrt(n) + 1e4 steps) for the countable
        jump chains.
    """
    if n < 1:
        raise InvalidModelError("n must be >= 1")
    rng = make_rng(seed, stream)
    n_sym = n + 1

    if isinstance(model, MarkovKernel):
        return Sample.forward(_sample_kernel(model, rng, n_sym))

    if isinstance(model, HiddenFunctionModel):
        hidden = _sample_kernel(model.kernel, rng, n_sym)
        fmap_states = sorted(model.observation)
        lut = np.zeros(max(fmap_states) + 1, dtype=np.int64)
        for s in fmap_states:
            lut[s] = model.observation[s]
        return Sample.forward(lut[hidden])

    burn_in = int(10 * np.sqrt(n)) + 10_000

    if isinstance(model, GeometricJumpChain):
        data = _kernels.sample_geometric_jump(rng, n_sym, burn_in, 0)
        return Sample.forward(data)

    if isinstance(model, PerturbedJumpChain):
        active = min(model.stage + 1, len(model.schedule))
        sched_prev = np.asarray(model.schedule[:active], dtype=np.int64)
        sched_cur = np.arange(active, dtype=np.int64)
        data = _kernels.sample_perturbed_jump(rng, n_sym, burn_in, 0, sched_prev, sched_cur)
        return Sample.forward(data)

    if isinstance(model, LadderFunctionProcess):
        s0 = _draw_ladder_stationary(rng)
        hidden = _kernels.sample_ladder_chain(rng, n_sym, s0)
        # the observe map over the whole path at once
        if model.modulus is not None:
            extra = (hidden >= 4) & (hidden % model.modulus == 0)
        else:
            extra = np.isin(hidden, model.extra_zeros)
        return Sample.forward(((hidden > 1) & ~extra).astype(np.int64))

    if isinstance(model, RenewalProcess):
        return Sample.forward(_generate_renewal(model, rng, n_sym))

    raise InvalidModelError(f"unknown model type {type(model).__name__}")


def _sample_kernel(kernel: MarkovKernel, rng: np.random.Generator, n_sym: int) -> np.ndarray:
    """Symbols emitted by the kernel's chain, started from its stationary law."""
    contexts, cidx, cum, out_syms, next_ctx = _kernel_tables(kernel)
    pi = _context_stationary(kernel)
    ctx0 = cidx[_draw_from(rng, contexts, [pi[c] for c in contexts])]
    return _kernels.sample_finite_chain(rng, n_sym, ctx0, next_ctx, cum, out_syms)


def _draw_ladder_stationary(rng: np.random.Generator) -> int:
    # P(0) = P(1) = 1/4, P(i) = 2^-i for i >= 2
    u = rng.random()
    if u < 0.25:
        return 0
    if u < 0.5:
        return 1
    v = (u - 0.5) * 2.0  # conditional tail: P(i | i >= 2) = 2^-(i-1)
    if v >= 1.0:
        v = np.nextafter(1.0, 0.0)
    return 2 + int(-np.log2(1.0 - v))


def _generate_renewal(model: RenewalProcess, rng: np.random.Generator, n_sym: int) -> np.ndarray:
    if model.gap_probs is not None:
        gaps = sorted(model.gap_probs)
        mean = model.mean_gap
        # length-biased current gap, uniform phase inside it
        biased = [g * model.gap_probs[g] / mean for g in gaps]
        g_star = _draw_from(rng, gaps, biased)
        phase = int(rng.integers(0, g_star))
        max_gap = gaps[-1]
        dense = np.zeros(max_gap, dtype=np.float64)
        for g in gaps:
            dense[g - 1] = model.gap_probs[g]
        gap_cum = np.cumsum(dense)
        gap_cum[-1] = 1.0
        return _kernels.sample_renewal(rng, n_sym, phase, gap_cum, 0.0)
    p = model.geometric_p
    if p == 1.0:
        # every gap is 1: the gap law {1: 1.0}, with no division by log1p(-1)
        return _kernels.sample_renewal(rng, n_sym, 0, np.ones(1), 0.0)
    u = rng.random()
    if u >= 1.0:
        u = np.nextafter(1.0, 0.0)
    first = int(np.log1p(-u) / np.log1p(-p))
    return _kernels.sample_renewal(rng, n_sym, first, np.empty(0, dtype=np.float64), p)


def perturbed_chain_stage(schedule: Sequence[int], k: int) -> PerturbedJumpChain:
    """The order-2 perturbed chain after the first k+1 scheduled swaps
    (k = -1 is the unperturbed lift of the base chain)."""
    return PerturbedJumpChain(schedule=tuple(int(t) for t in schedule), stage=k)


# ---------------------------------------------------------------------------
# Model JSON specs
# ---------------------------------------------------------------------------


def model_from_spec(spec: Mapping) -> ProcessModel:
    """Build a model from its JSON description.

    Types: "markov" (order, rows), "hidden" (kernel, observation) with the
    preset {"preset": "parity"}, "geometric_jump", "perturbed" (schedule,
    stage), "ladder" (extra_zeros or mod), "renewal" (gap_probs or
    geometric_p).
    """
    kind = spec.get("type")
    if kind == "markov":
        rows = {
            tuple(json.loads(k) if isinstance(k, str) else k): {
                int(x): float(p) for x, p in row.items()
            }
            for k, row in spec["rows"].items()
        }
        return MarkovKernel(order=int(spec["order"]), rows=rows)
    if kind == "hidden":
        if spec.get("preset") == "parity":
            return parity_chain()
        kernel = model_from_spec({"type": "markov", **spec["kernel"]})
        observation = {int(s): int(x) for s, x in spec["observation"].items()}
        return HiddenFunctionModel(kernel=kernel, observation=observation)
    if kind == "geometric_jump":
        return GeometricJumpChain()
    if kind == "perturbed":
        return PerturbedJumpChain(
            schedule=tuple(int(t) for t in spec["schedule"]), stage=int(spec["stage"])
        )
    if kind == "ladder":
        if "mod" in spec:
            return LadderFunctionProcess(modulus=int(spec["mod"]))
        return LadderFunctionProcess(
            extra_zeros=tuple(int(z) for z in spec.get("extra_zeros", ()))
        )
    if kind == "renewal":
        if "geometric_p" in spec:
            return RenewalProcess(geometric_p=float(spec["geometric_p"]))
        return RenewalProcess(
            gap_probs={int(g): float(p) for g, p in spec["gap_probs"].items()}
        )
    raise InvalidModelError(f"unknown model type {kind!r}")


def model_to_spec(model: ProcessModel) -> dict:
    if isinstance(model, MarkovKernel):
        return {
            "type": "markov",
            "order": model.order,
            "rows": {json.dumps(list(c)): {str(x): p for x, p in row.items()}
                     for c, row in model.rows.items()},
        }
    if isinstance(model, HiddenFunctionModel):
        return {
            "type": "hidden",
            "kernel": {k: v for k, v in model_to_spec(model.kernel).items() if k != "type"},
            "observation": {str(s): x for s, x in model.observation.items()},
        }
    if isinstance(model, GeometricJumpChain):
        return {"type": "geometric_jump"}
    if isinstance(model, PerturbedJumpChain):
        return {"type": "perturbed", "schedule": list(model.schedule), "stage": model.stage}
    if isinstance(model, LadderFunctionProcess):
        if model.modulus is not None:
            return {"type": "ladder", "mod": model.modulus}
        return {"type": "ladder", "extra_zeros": list(model.extra_zeros)}
    if isinstance(model, RenewalProcess):
        if model.geometric_p is not None:
            return {"type": "renewal", "geometric_p": model.geometric_p}
        return {"type": "renewal", "gap_probs": {str(g): p for g, p in model.gap_probs.items()}}
    raise InvalidModelError(f"unknown model type {type(model).__name__}")


def load_model(path: str | Path) -> ProcessModel:
    with open(path) as f:
        return model_from_spec(json.load(f))

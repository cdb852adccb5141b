"""Exact model-side computation of memory lengths and conditional laws.

All arithmetic is rational (fractions.Fraction), so equality of conditional
laws is decided exactly.  Finite-state models are handled by posterior
filtering; the ladder process with a finite zero set is reduced to an exact
finite chain by lumping the states above the largest zero (they share the
observation value and the jump/climb behaviour).  Ladder processes with an
infinite zero set fall back to a structural rule anchored at the
state-revealing block 0,0,1.  The geometric jump chain has a conditional
law (the row of its observed state) but no memory-length oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ImpossiblePastError, InvalidModelError
from .processes import (
    GeometricJumpChain,
    HiddenFunctionModel,
    LadderFunctionProcess,
    MarkovKernel,
    ProcessModel,
)
from .sequence import UNBOUNDED, MemoryLength, Word


@dataclass(frozen=True)
class OracleAnswer:
    memory_length: MemoryLength
    law: Optional[dict[int, Fraction]]

    def law_float(self) -> Optional[dict[int, float]]:
        if self.law is None:
            return None
        return {x: float(p) for x, p in self.law.items()}


def _solve_stationary(p: list[list[Fraction]]) -> list[Fraction]:
    """Exact stationary row vector of a stochastic matrix (pi P = pi)."""
    m = len(p)
    # (P^T - I) pi = 0 with the last equation replaced by sum(pi) = 1
    a = [[p[j][i] - (1 if i == j else 0) for j in range(m)] for i in range(m)]
    a[m - 1] = [Fraction(1)] * m
    b = [Fraction(0)] * (m - 1) + [Fraction(1)]
    for col in range(m):
        piv = next((r for r in range(col, m) if a[r][col] != 0), None)
        if piv is None:
            raise InvalidModelError("stationary distribution is not unique")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        b[col] *= inv
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [vr - f * vc for vr, vc in zip(a[r], a[col])]
                b[r] -= f * b[col]
    return b


class ExactChain:
    """A finite hidden chain with an observation map, in exact arithmetic."""

    def __init__(self, states: Sequence, transition: dict, observe: dict):
        self.states = list(states)
        self.index = {s: i for i, s in enumerate(self.states)}
        m = len(self.states)
        self.p = [[Fraction(0)] * m for _ in range(m)]
        for s, row in transition.items():
            for t, pr in row.items():
                self.p[self.index[s]][self.index[t]] = Fraction(pr)
        for i in range(m):
            total = sum(self.p[i])
            if total != 1:
                # float rows carry representation error; renormalize exactly
                if abs(total - 1) > Fraction(1, 10**9):
                    raise InvalidModelError(
                        f"row of state {self.states[i]} does not sum to 1"
                    )
                self.p[i] = [v / total for v in self.p[i]]
        self.observe = [int(observe[s]) for s in self.states]
        self.pi = _solve_stationary(self.p)
        self.alphabet = sorted(set(self.observe))

    # -- filtering ---------------------------------------------------------

    def _step(self, v: list[Fraction], x: int) -> list[Fraction]:
        m = len(self.states)
        out = [Fraction(0)] * m
        for i in range(m):
            if v[i] == 0:
                continue
            row = self.p[i]
            for j in range(m):
                if row[j] != 0 and self.observe[j] == x:
                    out[j] += v[i] * row[j]
        return out

    def filter(self, word: Word, start: Optional[list[Fraction]] = None) -> list[Fraction]:
        """Unnormalized posterior over states after observing ``word``,
        starting from the stationary law (or ``start``)."""
        v = list(self.pi) if start is None else list(start)
        for x in word:
            v = self._step(v, x)
        return v

    def successor_law(self, v: list[Fraction]) -> dict[int, Fraction]:
        total = sum(v)
        if total == 0:
            raise ImpossiblePastError("conditioning event has probability zero")
        law: dict[int, Fraction] = {}
        for i, w in enumerate(v):
            if w == 0:
                continue
            for j, pr in enumerate(self.p[i]):
                if pr != 0:
                    x = self.observe[j]
                    law[x] = law.get(x, Fraction(0)) + w * pr
        return {x: p / total for x, p in law.items() if p != 0}

    def cond_law(self, past: Word) -> dict[int, Fraction]:
        return self.successor_law(self.filter(past))

    # -- memory-word certification ------------------------------------------

    def is_memory_word(self, w: Word) -> bool:
        """True when every reachable state, filtered through ``w``, induces
        the same next-symbol law.  Point-mass starts stand in for arbitrary
        positive-probability prehistories; the brute-force definition check
        cross-validates this reduction on the shipped models."""
        laws = []
        m = len(self.states)
        for i in range(m):
            if self.pi[i] == 0:
                continue
            e = [Fraction(0)] * m
            e[i] = Fraction(1)
            v = self.filter(w, start=e)
            if sum(v) == 0:
                continue
            laws.append(self.successor_law(v))
        if not laws:
            return False
        return all(law == laws[0] for law in laws[1:])

    def memory_length(self, past: Word) -> MemoryLength:
        if sum(self.filter(past)) == 0:
            raise ImpossiblePastError(f"past {past.letters} has probability zero")
        for k in range(len(past) + 1):
            if self.is_memory_word(Word(past.letters[len(past) - k :])):
                return k
        return UNBOUNDED

    def brute_force_memory_length(self, past: Word, depth: int) -> MemoryLength:
        """Definition check by explicit extension enumeration to the given
        depth, in exact arithmetic.  Independent of is_memory_word."""
        if sum(self.filter(past)) == 0:
            raise ImpossiblePastError(f"past {past.letters} has probability zero")
        for k in range(len(past) + 1):
            w = Word(past.letters[len(past) - k :])
            if self._brute_is_memory_word(w, depth):
                return k
        return UNBOUNDED

    def _brute_is_memory_word(self, w: Word, depth: int) -> bool:
        base_v = self.filter(w)
        if sum(base_v) == 0:
            return False
        base = self.successor_law(base_v)
        frontier: list[tuple[int, ...]] = [()]
        for _ in range(depth):
            nxt = []
            for z in frontier:
                for x in self.alphabet:
                    zx = (x,) + z
                    v = self.filter(Word(zx + w.letters))
                    if sum(v) == 0:
                        continue
                    if self.successor_law(v) != base:
                        return False
                    nxt.append(zx)
            frontier = nxt
        return True


# ---------------------------------------------------------------------------
# Model adapters
# ---------------------------------------------------------------------------


def exact_chain(model: ProcessModel) -> ExactChain:
    if isinstance(model, HiddenFunctionModel):
        states = list(model.kernel.alphabet)
        transition = {c[0]: dict(row) for c, row in model.kernel.rows.items()}
        return ExactChain(states, transition, dict(model.observation))
    if isinstance(model, MarkovKernel):
        states = sorted(model.rows)
        transition = {
            c: {c[1:] + (x,): p for x, p in model.rows[c].items() if p > 0} for c in states
        }
        observe = {c: c[-1] for c in states}
        return ExactChain(states, transition, observe)
    if isinstance(model, LadderFunctionProcess):
        if model.modulus is not None:
            raise InvalidModelError("an infinite zero set has no finite exact chain")
        top = model.max_extra_zero  # all states above share observation 1
        states = list(range(top + 1)) + ["high"]
        transition: dict = {0: {1: Fraction(1)}, 1: {2 if top >= 2 else "high": Fraction(1)}}
        for s in range(2, top + 1):
            up = s + 1 if s + 1 <= top else "high"
            transition[s] = {0: Fraction(1, 2), up: Fraction(1, 2)}
        transition["high"] = {0: Fraction(1, 2), "high": Fraction(1, 2)}
        observe = {s: model.observe(s) for s in range(top + 1)}
        observe["high"] = 1
        return ExactChain(states, transition, observe)
    raise InvalidModelError(
        f"no exact oracle for model type {type(model).__name__}"
    )


def _ladder_moves(s: int) -> dict[int, Fraction]:
    """Ladder moves: 0 -> 1, 1 -> 2, s > 1 -> {0, s+1}."""
    if s == 0:
        return {1: Fraction(1)}
    if s == 1:
        return {2: Fraction(1)}
    return {0: Fraction(1, 2), s + 1: Fraction(1, 2)}


def _ladder_rule_memory(model: LadderFunctionProcess, past: Word) -> OracleAnswer:
    """Structural rule for the infinite-zero-set ladder process: the suffix
    reaching back to the most recent 0,0,1 block pins the hidden state and is
    a memory word; without such a block nothing is certified."""
    letters = past.letters
    reset_end = None
    for t in range(len(letters) - 1, 1, -1):
        if letters[t] == 1 and letters[t - 1] == 0 and letters[t - 2] == 0:
            reset_end = t
            break
    if reset_end is None:
        return OracleAnswer(memory_length=UNBOUNDED, law=None)
    k = len(letters) - (reset_end - 2)
    # propagate the point mass at hidden state 2 over the remaining symbols;
    # the reachable states stay within a finite window
    posterior: dict[int, Fraction] = {2: Fraction(1)}
    for x in letters[reset_end + 1 :]:
        nxt: dict[int, Fraction] = {}
        for s, w in posterior.items():
            for t, pr in _ladder_moves(s).items():
                if model.observe(t) == x:
                    nxt[t] = nxt.get(t, Fraction(0)) + w * pr
        posterior = nxt
        if not posterior:
            raise ImpossiblePastError(f"past {past.letters} has probability zero")
    total = sum(posterior.values())
    law: dict[int, Fraction] = {}
    for s, w in posterior.items():
        for t, pr in _ladder_moves(s).items():
            x = model.observe(t)
            law[x] = law.get(x, Fraction(0)) + w * pr / total
    return OracleAnswer(memory_length=k, law={x: p for x, p in law.items() if p != 0})


def oracle_memory(model: ProcessModel, past: Word) -> OracleAnswer:
    """Exact pathwise memory length of a finite past, with the conditional
    next-symbol law.

    Parameters
    ----------
    model : ProcessModel
        A finite-order Markov kernel, a hidden-function model with finite
        hidden state space, or a ladder function process.
    past : Word
        Observed past, most recent symbol last.

    Returns
    -------
    OracleAnswer
        The minimal suffix length whose suffix is a memory word, or the
        Unbounded sentinel when no suffix of ``past`` certifies (estimators
        over finite samples never emit Unbounded; oracles may), plus the
        exact conditional law.

    Raises
    ------
    ImpossiblePastError
        If the past has probability zero under the model.
    """
    if isinstance(model, LadderFunctionProcess) and model.modulus is not None:
        return _ladder_rule_memory(model, past)
    chain = exact_chain(model)
    k = chain.memory_length(past)
    return OracleAnswer(memory_length=k, law=chain.cond_law(past))


def oracle_cond(model: ProcessModel, past: Word) -> dict[int, Fraction]:
    """Exact conditional law of the next symbol given the finite past.

    The geometric jump chain is observed directly, so its law is the row of
    the current state; climbs of 40 or more states (total mass 2^-40) are
    left out of that row.
    """
    if isinstance(model, GeometricJumpChain):
        if not past.letters:
            raise InvalidModelError("the jump chain's law needs its current state")
        s = past.letters[-1]
        law = {j: Fraction(1, 2 ** (j + 2)) for j in range(s)}
        law[s] = Fraction(1, 2 ** (s + 1))
        law.update({s + r: Fraction(1, 2 ** (r + 1)) for r in range(1, 40)})
        return law
    if isinstance(model, LadderFunctionProcess) and model.modulus is not None:
        ans = _ladder_rule_memory(model, past)
        if ans.law is None:
            raise ImpossiblePastError("no state-revealing block in the past")
        return ans.law
    return exact_chain(model).cond_law(past)

"""Alphabet, sample and word conventions shared by every estimator.

Symbols are nonnegative integers (a countable alphabet embedded into the
naturals).  A backward sample of length n+1 carries time indices -n..0; a
forward sample of length n+1 carries indices 0..n.  Words are finite contexts
written left-to-right in increasing time, so "suffix" always means "the most
recent symbols".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Literal, Union

import numpy as np

from .errors import OutOfRangeError

Orientation = Literal["backward", "forward"]


class _UnboundedType:
    """Sentinel for an infinite memory length (only oracles emit it)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unbounded"


UNBOUNDED = _UnboundedType()

MemoryLength = Union[int, _UnboundedType]


@dataclass(frozen=True)
class Word:
    """A finite context, possibly empty; letters in increasing time order."""

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if any(s < 0 for s in self.letters):
            raise ValueError("symbols must be nonnegative integers")

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.letters, dtype=np.int64)

    def extended_by(self, x: int) -> "Word":
        return Word(self.letters + (x,))

    @classmethod
    def of(cls, letters: Iterable[int]) -> "Word":
        return cls(tuple(int(s) for s in letters))


EMPTY_WORD = Word()


@dataclass(frozen=True)
class Sample:
    """An indexed finite realization with an explicit time origin.

    ``symbols[i]`` is the value at time ``origin + i``.  Backward samples end
    at time 0, forward samples start at time 0.
    """

    symbols: np.ndarray
    origin: int
    orientation: Orientation

    def __post_init__(self):
        arr = np.ascontiguousarray(self.symbols, dtype=np.int64)
        if arr.ndim != 1 or len(arr) == 0:
            raise ValueError("a sample holds a nonempty 1-d symbol array")
        if np.any(arr < 0):
            raise ValueError("symbols must be nonnegative integers")
        arr.flags.writeable = False
        object.__setattr__(self, "symbols", arr)
        if self.orientation == "backward" and self.origin + len(arr) - 1 != 0:
            raise ValueError("a backward sample must end at time index 0")
        if self.orientation == "forward" and self.origin != 0:
            raise ValueError("a forward sample must start at time index 0")

    def __len__(self):
        return len(self.symbols)

    @property
    def n(self) -> int:
        """Sample-length parameter: the sample holds n+1 symbols."""
        return len(self.symbols) - 1

    @property
    def last_index(self) -> int:
        return self.origin + len(self.symbols) - 1

    @classmethod
    def backward(cls, symbols) -> "Sample":
        symbols = np.asarray(symbols, dtype=np.int64)
        return cls(symbols, origin=-(len(symbols) - 1), orientation="backward")

    @classmethod
    def forward(cls, symbols) -> "Sample":
        return cls(np.asarray(symbols, dtype=np.int64), origin=0, orientation="forward")


def suffix(sample: Sample, k: int) -> Word:
    """The last k symbols of the sample in time order; k = 0 is the empty word."""
    if k < 0 or k > len(sample):
        raise OutOfRangeError(f"suffix length {k} outside sample of length {len(sample)}")
    if k == 0:
        return EMPTY_WORD
    return Word(tuple(int(s) for s in sample.symbols[len(sample) - k :]))


@dataclass(frozen=True)
class EstimatorParams:
    """Thresholds shared by the memory tests and stopping schemes.

    gamma sets the frequent-string cutoff n^(1-gamma), beta the test threshold
    n^(-beta), epsilon the stopping-set density target 1 - epsilon.  The test
    threshold must decay slower than the statistical noise at the cutoff,
    which is the constraint 2*beta + gamma < 1.
    """

    gamma: float = 0.5
    beta: float = 0.24
    epsilon: float = 0.1
    anchor_cap: int = 512

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0,1), got {self.gamma}")
        if not 0.0 < self.beta:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not 2.0 * self.beta + self.gamma < 1.0:
            raise ValueError(
                f"need 2*beta + gamma < 1, got {2 * self.beta + self.gamma:.4f}"
            )
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if self.anchor_cap < 1:
            raise ValueError("anchor_cap must be positive")

    def frequency_cutoff(self, n: int) -> float:
        return float(n) ** (1.0 - self.gamma)

    def test_threshold(self, n: int) -> float:
        if n <= 0:
            return math.inf
        return float(n) ** (-self.beta)


# ---------------------------------------------------------------------------
# Sample file formats: text (one decimal symbol per line, LF) and binary
# (32-bit little-endian unsigned, no header).  Orientation and origin are
# caller-side metadata, not stored.
# ---------------------------------------------------------------------------


def write_sample(path: str | Path, sample: Sample, fmt: str = "txt") -> None:
    path = Path(path)
    if fmt == "txt":
        with open(path, "w") as f:
            f.writelines(f"{int(s)}\n" for s in sample.symbols)
    elif fmt == "bin":
        if np.any(sample.symbols >= 2**32):
            raise OutOfRangeError("binary format holds 32-bit symbols only")
        sample.symbols.astype("<u4").tofile(path)
    else:
        raise ValueError(f"unknown sample format {fmt!r}")


def read_sample(path: str | Path, fmt: str = "txt", orientation: Orientation = "forward") -> Sample:
    path = Path(path)
    if fmt == "txt":
        data = np.loadtxt(path, dtype=np.int64, ndmin=1)
    elif fmt == "bin":
        data = np.fromfile(path, dtype="<u4").astype(np.int64)
    else:
        raise ValueError(f"unknown sample format {fmt!r}")
    if orientation == "forward":
        return Sample.forward(data)
    return Sample.backward(data)

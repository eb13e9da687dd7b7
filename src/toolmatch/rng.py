"""Portable seeded randomness for reproducible data generation and init.

Uses SplitMix64 (Steele, Lea & Flood's 64-bit mixer, the generator behind
Java's SplittableRandom) so that identical integer seeds give identical
streams on every platform and in any language that reimplements the same
three shift-multiply rounds. Gaussian variates are produced by applying
Acklam's rational approximation of the inverse normal CDF to one uniform
draw each: exactly one 64-bit word is consumed per variate, which keeps
stream positions well-defined across implementations (unlike pair-consuming
polar methods).

``uniforms`` and ``normals`` draw their words as one numpy ``uint64`` block
(uint64 arrays wrap mod 2^64 exactly as the masked Python arithmetic does)
and reproduce the scalar ``uniform``/``normal`` calls word for word and bit
for bit, leaving the stream at the same position. Acklam's rational
functions are written once as plain arithmetic that serves a float and an
array alike, and numpy's +, *, / and sqrt are correctly rounded like
Python's. ``log`` is not: ``np.log`` can differ from ``math.log`` in the last
place, so the tails (about 5 % of draws) take ``math.log`` element by element.
"""

from __future__ import annotations

import math
import operator
from typing import MutableSequence, Sequence, TypeVar

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

T = TypeVar("T")

# Acklam's inverse normal CDF coefficients (max relative error ~1.15e-9).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _central(p):
    """Acklam's central region, p in [_P_LOW, 1 - _P_LOW]; float or array."""
    q = p - 0.5
    r = q * q
    return (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
        (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)


def _tail(q):
    """Acklam's lower tail at q = sqrt(-2 log p); float or array."""
    return (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
        ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)


def _tail_q(p: np.ndarray) -> np.ndarray:
    """sqrt(-2 log p) per element, with math.log so each value matches the scalar path."""
    logs = np.fromiter(map(math.log, p.tolist()), dtype=np.float64, count=p.size)
    return np.sqrt(-2.0 * logs)


def inverse_normal_cdf(p: float) -> float:
    """Standard-normal quantile via Acklam's rational approximation.

    Requires p strictly inside (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if p < _P_LOW:
        return _tail(math.sqrt(-2.0 * math.log(p)))
    if p > 1.0 - _P_LOW:
        return -_tail(math.sqrt(-2.0 * math.log(1.0 - p)))
    return _central(p)


class SplitMix64:
    """Deterministic 64-bit stream with uniform, normal, and shuffle helpers."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def normal(self) -> float:
        """Standard normal variate; consumes exactly one 64-bit word."""
        # (k + 0.5) / 2^53 is symmetric in (0, 1) and never hits an endpoint.
        u = ((self.next_u64() >> 11) + 0.5) * 2.0 ** -53
        return inverse_normal_cdf(u)

    def _words(self, n: int) -> np.ndarray:
        """The next n words as a uint64 array; n <= 0 gives none and leaves the stream."""
        n = max(operator.index(n), 0)
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        self._state = (self._state + n * _GAMMA) & _MASK64
        return z

    def normals(self, n: int) -> np.ndarray:
        """n normal variates, bit-identical to n calls of normal()."""
        p = ((self._words(n) >> np.uint64(11)) + 0.5) * 2.0 ** -53
        out = _central(p)
        low = p < _P_LOW
        out[low] = _tail(_tail_q(p[low]))
        high = p > 1.0 - _P_LOW
        out[high] = -_tail(_tail_q(1.0 - p[high]))
        return out

    def uniforms(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """n uniform draws, bit-identical to n calls of uniform(low, high)."""
        return low + (high - low) * ((self._words(n) >> np.uint64(11)) * 2.0 ** -53)

    def randint(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, seq: MutableSequence[T]) -> None:
        """In-place Fisher-Yates shuffle, iterating from the back."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randint(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        """k distinct elements via a partial front Fisher-Yates pass."""
        pool = list(seq)
        if k > len(pool):
            raise ValueError(f"cannot sample {k} items from a pool of {len(pool)}")
        for i in range(k):
            j = i + self.randint(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def child_seeds(self, n: int) -> list[int]:
        """n independent child seeds drawn from this stream, in order."""
        return [self.next_u64() for _ in range(n)]

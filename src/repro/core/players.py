"""Player strategies: how q samples become a one-bit message.

The decisive statistic for uniformity testing is the **collision count**
``K = Σ_v C(c_v, 2)`` over the value counts ``c_v`` of a player's sample
vector: its expectation is ``C(q,2) · ||μ||₂²``, and ε-far distributions
inflate ``||μ||₂²`` by at least ``ε²/n``.  Every tester in this library is a
quantisation of K:

* :class:`DitheredCollisionBitPlayer` — alarm iff K exceeds a threshold,
  with a randomised boundary so *any* alarm rate is reachable (the
  plain thresholded bit is the comparison-graph layer's
  :class:`~repro.core.graphs.GraphStatisticPlayer` on ``K_q``);
* :class:`UniqueElementsPlayer` — the distinct-elements alternative
  statistic;
* :class:`SubsetMembershipPlayer` — the hash bit used by single-sample and
  learning protocols.

All strategies implement a vectorised ``respond_batch`` over a
(rows × q) sample matrix, which the Monte Carlo harness relies on, and an
exact ``cache_token`` naming every parameter the responses depend on,
which protocol cache keys compose.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Dict, Sequence

import numpy as np

from ..exceptions import InvalidParameterError
from ..rng import RngLike, ensure_rng

def _validate_sample_matrix(samples: np.ndarray) -> np.ndarray:
    matrix = np.asarray(samples, dtype=np.int64)
    if matrix.ndim == 1:
        matrix = matrix[np.newaxis, :]
    if matrix.ndim != 2:
        raise InvalidParameterError(f"samples must be 1-d or 2-d, got ndim={matrix.ndim}")
    return matrix


def collision_counts(samples: np.ndarray) -> np.ndarray:
    """Pairwise collision count per row of a (rows × q) sample matrix.

    For a row with value counts ``c_v`` the count is ``Σ_v C(c_v, 2)`` — the
    number of unordered sample pairs that coincide.  Pure NumPy: rows are
    sorted, run boundaries located on the flattened matrix (every row
    start forced to be a boundary), and ``C(run_len, 2)`` accumulated back
    to rows with ``add.reduceat`` — no per-column Python loop.
    """
    matrix = _validate_sample_matrix(samples)
    rows, q = matrix.shape
    if q < 2:
        return np.zeros(rows, dtype=np.int64)
    ordered = np.sort(matrix, axis=1)
    flat = ordered.ravel()
    boundary = np.empty(flat.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = flat[1:] != flat[:-1]
    boundary[::q] = True  # a run never crosses a row edge
    starts = np.flatnonzero(boundary)
    run_lengths = np.diff(np.append(starts, flat.size))
    pairs = run_lengths * (run_lengths - 1) // 2
    # First run of each row: row starts are always boundaries, so the
    # search hits them exactly.
    first_run = np.searchsorted(starts, np.arange(rows, dtype=np.int64) * q)
    return np.add.reduceat(pairs, first_run).astype(np.int64)


def collision_counts_reference(samples: np.ndarray) -> np.ndarray:
    """Reference oracle for :func:`collision_counts` (per-column loop).

    The original implementation, kept for differential testing: walks the
    sorted rows column by column accumulating the position within each
    run.  Semantically identical to :func:`collision_counts`, quadratic
    Python overhead in q.
    """
    matrix = _validate_sample_matrix(samples)
    rows, q = matrix.shape
    if q < 2:
        return np.zeros(rows, dtype=np.int64)
    ordered = np.sort(matrix, axis=1)
    equal_prev = ordered[:, 1:] == ordered[:, :-1]
    # run_position[i] = number of immediately-preceding equal samples in the
    # current run; summing it per row gives Σ C(run_len, 2) exactly.
    run_position = np.zeros((rows, q - 1), dtype=np.int64)
    previous = np.zeros(rows, dtype=np.int64)
    for column in range(q - 1):
        previous = (previous + 1) * equal_prev[:, column]
        run_position[:, column] = previous
    return run_position.sum(axis=1)


def unique_counts(samples: np.ndarray) -> np.ndarray:
    """Number of distinct values per row of a (rows × q) sample matrix."""
    matrix = np.asarray(samples, dtype=np.int64)
    if matrix.ndim == 1:
        matrix = matrix[np.newaxis, :]
    ordered = np.sort(matrix, axis=1)
    if ordered.shape[1] == 0:
        return np.zeros(ordered.shape[0], dtype=np.int64)
    changes = (ordered[:, 1:] != ordered[:, :-1]).sum(axis=1)
    return changes + 1


def birthday_no_collision_probability(n: int, q: int) -> float:
    """P[no collision among q uniform samples] = ∏_{i<q} (1 - i/n).

    Evaluated in log-space as ``exp(lgamma(n+1) − lgamma(n−q+1) −
    q·ln n)`` — the falling factorial ``n!/(n−q)!`` over ``n^q`` — so
    large (n, q) neither underflow to zero prematurely nor pay a Python
    product loop.  The closed form lets the threshold-rule tester
    calibrate its referee without Monte Carlo: under U_n the "collision
    bit" rejects with probability exactly ``1 -
    birthday_no_collision_probability(n, q)``.
    """
    if n < 1 or q < 0:
        raise InvalidParameterError(f"need n >= 1 and q >= 0, got n={n}, q={q}")
    if q > n:
        return 0.0
    if q <= 1:
        return 1.0
    log_probability = (
        math.lgamma(n + 1) - math.lgamma(n - q + 1) - q * math.log(n)
    )
    return math.exp(log_probability)


class PlayerStrategy(ABC):
    """Base class: a deterministic-or-randomised map from samples to a bit.

    ``respond_batch`` returns one bit per row (1 = accept).  Strategies that
    need private randomness take an ``rng`` argument; deterministic
    strategies ignore it.
    """

    @abstractmethod
    def respond_batch(self, samples: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """(rows × q) sample matrix → length-rows 0/1 vector."""

    def respond(self, samples: Sequence[int], rng: RngLike = None) -> int:
        """Single-shot response to one sample vector."""
        return int(self.respond_batch(np.asarray(samples, dtype=np.int64), rng)[0])

    @property
    def name(self) -> str:
        """Human-readable strategy name (used in experiment reports)."""
        return type(self).__name__

    @property
    def cache_token(self) -> Dict[str, Any]:
        """Exact JSON-serialisable identity: class plus every parameter."""
        return {"class": type(self).__name__, **self._token_fields()}

    @abstractmethod
    def _token_fields(self) -> Dict[str, Any]:
        """Every parameter the responses depend on, at full precision
        (arrays enter as :func:`~repro.engine.cache.array_digest`)."""


class DitheredCollisionBitPlayer(PlayerStrategy):
    """Collision bit with a randomized boundary, hitting any alarm rate.

    Alarms (sends 0) when ``K > t``; at ``K == t`` it alarms with
    probability ``boundary_probability``.  Because the collision count is
    integer-valued, deterministic thresholds can only realise a discrete
    set of alarm rates — the dither interpolates between them, which the
    forced-T threshold tester needs for exact completeness calibration.
    """

    def __init__(self, threshold: int, boundary_probability: float):
        if threshold < 0:
            raise InvalidParameterError(f"threshold must be >= 0, got {threshold}")
        if not 0.0 <= boundary_probability <= 1.0:
            raise InvalidParameterError(
                f"boundary_probability must be in [0,1], got {boundary_probability}"
            )
        self.threshold = int(threshold)
        self.boundary_probability = float(boundary_probability)

    def respond_batch(self, samples: np.ndarray, rng: RngLike = None) -> np.ndarray:
        generator = ensure_rng(rng)
        counts = collision_counts(samples)
        alarms = counts > self.threshold
        boundary = counts == self.threshold
        if self.boundary_probability > 0.0 and boundary.any():
            coin = generator.random(boundary.shape) < self.boundary_probability
            alarms = alarms | (boundary & coin)
        return (~alarms).astype(np.int64)

    def _token_fields(self) -> Dict[str, Any]:
        return {
            "threshold": self.threshold,
            "boundary_probability": self.boundary_probability,
        }

    @property
    def name(self) -> str:
        return (
            f"DitheredCollisionBitPlayer(t={self.threshold}, "
            f"gamma={self.boundary_probability:.3f})"
        )


class UniqueElementsPlayer(PlayerStrategy):
    """Accept iff at least ``min_unique`` distinct values were observed.

    The distinct-elements statistic is an alternative to collision counting
    with the same first-order signal (far distributions repeat more).
    """

    def __init__(self, min_unique: int):
        if min_unique < 0:
            raise InvalidParameterError(f"min_unique must be >= 0, got {min_unique}")
        self.min_unique = int(min_unique)

    def respond_batch(self, samples: np.ndarray, rng: RngLike = None) -> np.ndarray:
        return (unique_counts(samples) >= self.min_unique).astype(np.int64)

    def _token_fields(self) -> Dict[str, Any]:
        return {"min_unique": self.min_unique}

    @property
    def name(self) -> str:
        return f"UniqueElementsPlayer(min_unique={self.min_unique})"


class ConstantPlayer(PlayerStrategy):
    """Always send the same bit (degenerate baseline for sanity checks)."""

    def __init__(self, bit: int):
        if bit not in (0, 1):
            raise InvalidParameterError(f"bit must be 0 or 1, got {bit}")
        self.bit = int(bit)

    def respond_batch(self, samples: np.ndarray, rng: RngLike = None) -> np.ndarray:
        matrix = np.asarray(samples)
        rows = matrix.shape[0] if matrix.ndim == 2 else 1
        return np.full(rows, self.bit, dtype=np.int64)

    def _token_fields(self) -> Dict[str, Any]:
        return {"bit": self.bit}


class RandomBitPlayer(PlayerStrategy):
    """Send 1 with probability ``bias``, ignoring the samples entirely.

    The information-less baseline: no referee rule can distinguish anything
    from these bits, which the integration tests verify.
    """

    def __init__(self, bias: float = 0.5):
        if not 0.0 <= bias <= 1.0:
            raise InvalidParameterError(f"bias must be in [0,1], got {bias}")
        self.bias = float(bias)

    def respond_batch(self, samples: np.ndarray, rng: RngLike = None) -> np.ndarray:
        generator = ensure_rng(rng)
        matrix = np.asarray(samples)
        rows = matrix.shape[0] if matrix.ndim == 2 else 1
        return (generator.random(rows) < self.bias).astype(np.int64)

    def _token_fields(self) -> Dict[str, Any]:
        return {"bias": self.bias}


class SubsetMembershipPlayer(PlayerStrategy):
    """Send 1 iff the (single) sample lies in a fixed subset.

    The building block of single-sample protocols: with a public random
    subset per player, the referee learns a noisy linear measurement of the
    unknown distribution.  With ``q > 1`` samples the bit reports whether
    *any* sample hit the subset.
    """

    def __init__(self, indicator: Sequence[int]):
        array = np.asarray(indicator, dtype=np.int64)
        if array.ndim != 1 or array.size == 0:
            raise InvalidParameterError("indicator must be a non-empty 1-d 0/1 vector")
        if not np.all((array == 0) | (array == 1)):
            raise InvalidParameterError("indicator entries must be 0 or 1")
        self.indicator = array

    def respond_batch(self, samples: np.ndarray, rng: RngLike = None) -> np.ndarray:
        matrix = np.asarray(samples, dtype=np.int64)
        if matrix.ndim == 1:
            matrix = matrix[np.newaxis, :]
        if matrix.size and matrix.max() >= self.indicator.size:
            raise InvalidParameterError(
                "sample outside the subset indicator's domain"
            )
        hits = self.indicator[matrix]
        return (hits.max(axis=1) if matrix.shape[1] else np.zeros(matrix.shape[0], dtype=np.int64)).astype(np.int64)

    def _token_fields(self) -> Dict[str, Any]:
        from ..engine.cache import array_digest

        return {"indicator": array_digest(self.indicator)}

"""Referee decision rules f : {0,1}^k → {0,1}.

The referee receives one bit per player (1 = "accept"/"looks uniform") and
outputs the network's decision (1 = accept).  The paper's central question
is how much the *shape* of this rule costs:

* :class:`AndRule` — the local-decision rule: reject iff any player rejects
  (Theorem 1.2 shows it is expensive);
* :class:`ThresholdRule` — reject iff at least T players reject
  (Theorem 1.3: small T is still expensive);
* :class:`TruthTableRule` / :class:`WeightedCountRule` — arbitrary rules
  (Theorem 1.1: the best possible, Θ(√(n/k)/ε²) per player).

Every rule implements both a single-shot ``decide`` and a vectorised
``decide_batch`` over a (trials × k) bit matrix, which is what the Monte
Carlo harness uses, plus an exact ``cache_token`` of its parameters.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Optional, Sequence

import numpy as np

from ..exceptions import DimensionMismatchError, InvalidParameterError


def _validate_bits(bits: np.ndarray, expected_players: Optional[int]) -> np.ndarray:
    array = np.asarray(bits)
    if array.ndim == 1:
        array = array[np.newaxis, :]
    if array.ndim != 2:
        raise InvalidParameterError(
            f"bits must be a 1-d vector or 2-d matrix, got ndim={array.ndim}"
        )
    if expected_players is not None and array.shape[1] != expected_players:
        raise DimensionMismatchError(
            f"expected {expected_players} player bits, got {array.shape[1]}"
        )
    if not np.all((array == 0) | (array == 1)):
        raise InvalidParameterError("player bits must be 0 or 1")
    return array.astype(np.int64)


class DecisionRule(ABC):
    """Base class for referee decision rules.

    Subclasses implement :meth:`decide_batch`; ``decide`` is derived.  A rule
    may fix the number of players (``num_players``) or accept any width
    (``num_players is None``).
    """

    def __init__(self, num_players: Optional[int] = None):
        if num_players is not None and num_players < 1:
            raise InvalidParameterError(f"num_players must be >= 1, got {num_players}")
        self.num_players = num_players

    @abstractmethod
    def decide_batch(self, bits: np.ndarray) -> np.ndarray:
        """Vector of accept decisions (bool) for a (trials × k) bit matrix."""

    def decide(self, bits: Sequence[int]) -> bool:
        """Single-shot decision from one vector of k player bits."""
        return bool(self.decide_batch(np.asarray(bits))[0])

    @property
    def name(self) -> str:
        """Human-readable rule name (used in experiment reports)."""
        return type(self).__name__

    @property
    def cache_token(self) -> Dict[str, Any]:
        """Exact JSON-serialisable identity: class, width, parameters."""
        return {
            "class": type(self).__name__,
            "num_players": self.num_players,
            **self._token_fields(),
        }

    @abstractmethod
    def _token_fields(self) -> Dict[str, Any]:
        """Every parameter the decisions depend on, at full precision
        (arrays enter as :func:`~repro.engine.cache.array_digest`)."""


class AndRule(DecisionRule):
    """Accept iff *every* player accepts — the local decision rule.

    This is the rule of local distributed decision: any single player can
    raise an alarm.  Theorem 1.2 shows that insisting on it costs almost the
    full centralized sample complexity unless k is exponential in 1/ε.
    """

    def decide_batch(self, bits: np.ndarray) -> np.ndarray:
        matrix = _validate_bits(bits, self.num_players)
        return matrix.all(axis=1)

    def _token_fields(self) -> Dict[str, Any]:
        return {}


class OrRule(DecisionRule):
    """Accept iff at least one player accepts (the AND rule's dual)."""

    def decide_batch(self, bits: np.ndarray) -> np.ndarray:
        matrix = _validate_bits(bits, self.num_players)
        return matrix.any(axis=1)

    def _token_fields(self) -> Dict[str, Any]:
        return {}


class ThresholdRule(DecisionRule):
    """Reject iff at least ``reject_threshold`` players reject.

    In the paper's notation this is ``f(x) = 1`` exactly when
    ``Σ x_i > k - T`` with ``T = reject_threshold``; ``T = 1`` recovers the
    AND rule and ``T = ceil(k/2)`` is (anti-)majority.
    """

    def __init__(self, reject_threshold: int, num_players: Optional[int] = None):
        super().__init__(num_players)
        if reject_threshold < 1:
            raise InvalidParameterError(
                f"reject_threshold must be >= 1, got {reject_threshold}"
            )
        self.reject_threshold = int(reject_threshold)

    def decide_batch(self, bits: np.ndarray) -> np.ndarray:
        matrix = _validate_bits(bits, self.num_players)
        rejects = matrix.shape[1] - matrix.sum(axis=1)
        return rejects < self.reject_threshold

    def _token_fields(self) -> Dict[str, Any]:
        return {"reject_threshold": self.reject_threshold}

    @property
    def name(self) -> str:
        return f"ThresholdRule(T={self.reject_threshold})"


class MajorityRule(DecisionRule):
    """Accept iff a strict majority of players accept."""

    def decide_batch(self, bits: np.ndarray) -> np.ndarray:
        matrix = _validate_bits(bits, self.num_players)
        return matrix.sum(axis=1) * 2 > matrix.shape[1]

    def _token_fields(self) -> Dict[str, Any]:
        return {}


class WeightedCountRule(DecisionRule):
    """Accept iff ``Σ_i w_i · bit_i >= threshold``.

    The most general *linear* rule; the optimal testers use it with equal
    weights (a count cut), and the asymmetric-rate model (Section 6.2) uses
    genuinely unequal weights.
    """

    def __init__(self, weights: Sequence[float], threshold: float):
        weight_arr = np.asarray(weights, dtype=np.float64)
        if weight_arr.ndim != 1 or weight_arr.size == 0:
            raise InvalidParameterError("weights must be a non-empty 1-d sequence")
        super().__init__(num_players=int(weight_arr.size))
        self.weights = weight_arr
        self.threshold = float(threshold)

    def decide_batch(self, bits: np.ndarray) -> np.ndarray:
        matrix = _validate_bits(bits, self.num_players)
        return matrix @ self.weights >= self.threshold

    def _token_fields(self) -> Dict[str, Any]:
        from ..engine.cache import array_digest

        return {"weights": array_digest(self.weights), "threshold": self.threshold}

    @property
    def name(self) -> str:
        return f"WeightedCountRule(threshold={self.threshold:g})"


class TruthTableRule(DecisionRule):
    """A fully arbitrary rule given by its 2^k truth table.

    Bit ``i`` of the table index is player ``i``'s bit.  This realises the
    paper's "any decision function f : {0,1}^k → {0,1}" in full generality
    (only practical for small k, which is all the exact analyses need).
    """

    def __init__(self, table: Sequence[int]):
        table_arr = np.asarray(table, dtype=np.int64)
        size = table_arr.size
        if size == 0 or size & (size - 1):
            raise InvalidParameterError(
                f"truth-table length must be a power of two, got {size}"
            )
        if not np.all((table_arr == 0) | (table_arr == 1)):
            raise InvalidParameterError("truth-table entries must be 0 or 1")
        super().__init__(num_players=int(size.bit_length() - 1))
        self.table = table_arr

    @classmethod
    def from_callable(cls, k: int, func: Callable[[np.ndarray], int]) -> "TruthTableRule":
        """Tabulate ``func`` over all 2^k bit vectors."""
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        entries = []
        for index in range(2**k):
            bits = (index >> np.arange(k)) & 1
            entries.append(1 if func(bits) else 0)
        return cls(entries)

    def decide_batch(self, bits: np.ndarray) -> np.ndarray:
        matrix = _validate_bits(bits, self.num_players)
        indices = (matrix << np.arange(matrix.shape[1])).sum(axis=1)
        return self.table[indices] == 1

    def _token_fields(self) -> Dict[str, Any]:
        from ..engine.cache import array_digest

        return {"table": array_digest(self.table)}

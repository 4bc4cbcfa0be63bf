"""Streaming testers: constant-memory ``init_state / update / finalize``.

*Communication and Memory Efficient Testing of Discrete Distributions*
(PAPERS.md, arXiv 1906.04709) observes that collision-style statistics
admit bounded-memory streaming implementations: instead of
materialising all ``q`` samples of a trial before computing a
statistic, a tester can fold each arriving sample block into a small
running state (a histogram plus a pair-count accumulator) and read the
verdict off at the end.  This module is that protocol for the library:

* :class:`StreamingTester` — the contract.  ``init_state(trials)``
  allocates per-trial state arrays, ``update(state, sample_block)``
  folds one ``(trials × w)`` column block in (vectorised across trials,
  never a per-sample Python loop — lint rule RL303 audits this), and
  ``finalize(state)`` returns the boolean accept vector.  Every
  implementation declares :attr:`~StreamingTester.state_bytes`, an
  upper bound on its per-trial state footprint that is **independent of
  the stream length** (and, for sketched variants, of ``n``).
* :class:`StreamingCollisionTester` / :class:`StreamingDistinctTester`
  — incremental ``K_q`` collision / distinct-element counting via a
  running value histogram.  With ``num_buckets=None`` they are exact
  and **bit-identical** to :class:`~repro.core.testers.
  CentralizedCollisionTester` / :class:`~repro.core.baselines.
  UniqueElementsTester` on the same sample matrix; with
  ``num_buckets=B`` values are hashed into B buckets
  (:func:`sketch_buckets`) for constant memory and pinned to the
  bucketed batch oracle instead.
* :class:`StreamingGraphTester` — any comparison graph, either
  statistic mode, processed incrementally: edges are grouped by their
  later endpoint, so each arriving block settles exactly the edges that
  end inside it, against a buffer of the retained earlier slots.

The incremental collision identity: with per-value counts ``c_v``
accumulated so far, a new block contributes its own within-block
colliding pairs plus, for each new sample of value ``v``, the ``c_v``
cross pairs against history — so ``Σ_v C(c_v, 2)`` is maintained
exactly, matching the batch pairwise count for any block partition.

Streaming testers are not :class:`~repro.core.base.UniformityTester`
subclasses; the :class:`~repro.engine.kernels.StreamingKernel` adapter
(the one case ``as_kernel`` wraps — every batch tester and protocol is
a native kernel) turns any of them into an
:class:`~repro.engine.kernels.AcceptKernel` so estimation, SPRT and the
acceptance cache work unchanged.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, Optional

import numpy as np

from ..distributions.discrete import uniform
from ..distributions.generators import two_level_distribution
from ..exceptions import InvalidParameterError
from ..rng import RngLike, ensure_rng
from .graphs import (
    ComparisonGraph,
    _validate_mode,
    calibrate_distinct_threshold,
    complete_graph,
    graph_statistic_block,
    midpoint_threshold,
)
from .players import collision_counts, unique_counts

#: Per-trial bookkeeping slack (bytes) granted on top of the state
#: arrays proper — covers stream-position scalars shared across trials.
STATE_SLACK_BYTES = 16

#: 64-bit avalanche-mixer constants (MurmurHash3's ``fmix64``
#: finalizer) used by the sketched testers.  The mixer — xor-shift,
#: multiply, xor-shift, multiply, xor-shift — must *avalanche*: every
#: input bit flips every output bit with probability ≈ 1/2, so bucket
#: indices of structured inputs behave pseudo-randomly.  Weaker maps
#: fail statistically, not just aesthetically: ``value mod B`` is blind
#: to the two-level worst case outright (heavy and light halves cancel
#: inside every residue bucket), and a *multiplicative* hash
#: (Fibonacci ``value·K >> s``) is affine in the value, so the paired
#: heavy/light elements ``(2i, 2i+1)`` land at a constant bucket offset
#: and still cancel to an ``≈ ε·B/n`` residual — vanishing as ``n``
#: grows.  Full mixing leaves the generic ``≈ ε·√(B/n)`` residual
#: distance of domain compression.
SKETCH_HASH_MULTIPLIER_1 = 0xFF51AFD7ED558CCD
SKETCH_HASH_MULTIPLIER_2 = 0xC4CEB9FE1A85EC53


def sketch_buckets(values: np.ndarray, num_buckets: int) -> np.ndarray:
    """Deterministic bucket index of each sample value, in ``[0, B)``.

    ``h(v) = fmix64(v) mod B`` with MurmurHash3's 64-bit finalizer — a
    fixed (seed-free) avalanche mix, so sketched verdicts stay a pure
    function of the sample values and the bucket count, reproducible
    across every backend.
    """
    mixed = values.astype(np.uint64)
    mixed = (mixed ^ (mixed >> np.uint64(33))) * np.uint64(
        SKETCH_HASH_MULTIPLIER_1
    )
    mixed = (mixed ^ (mixed >> np.uint64(33))) * np.uint64(
        SKETCH_HASH_MULTIPLIER_2
    )
    mixed ^= mixed >> np.uint64(33)
    return (mixed % np.uint64(num_buckets)).astype(np.int64)


def measured_state_bytes(state: Dict[str, np.ndarray]) -> int:
    """Total bytes held by a streaming state dict (sum of ``nbytes``)."""
    return int(sum(int(np.asarray(array).nbytes) for array in state.values()))


def _as_block(sample_block: np.ndarray) -> np.ndarray:
    block = np.asarray(sample_block, dtype=np.int64)
    if block.ndim != 2:
        raise InvalidParameterError(
            f"sample_block must be 2-D (trials × width), got shape {block.shape}"
        )
    return block


def _bucket_histogram(values: np.ndarray, num_buckets: int) -> np.ndarray:
    """Per-row bincount of a ``(trials × w)`` int block, values in [0, B)."""
    trials = values.shape[0]
    offsets = np.arange(trials, dtype=np.int64)[:, np.newaxis] * num_buckets
    flat = np.bincount(
        (values + offsets).ravel(), minlength=trials * num_buckets
    )
    return flat.reshape(trials, num_buckets)


def calibrate_sketch_threshold(
    statistic: Callable[[np.ndarray], np.ndarray],
    n: int,
    epsilon: float,
    q: int,
    trials: int = 3000,
    rng: RngLike = 0,
) -> float:
    """Monte-Carlo midpoint cut for a (possibly sketched) batch statistic.

    Mirrors :func:`~repro.core.graphs.calibrate_distinct_threshold`'s
    draw order exactly — uniform matrix first, then the worst-case
    ε-far proxy's, on one shared generator — so exact configurations
    calibrated here coincide with the graph-layer calibrations.
    """
    if trials < 100:
        raise InvalidParameterError(f"trials must be >= 100, got {trials}")
    generator = ensure_rng(rng)
    uniform_stats = statistic(uniform(n).sample_matrix(trials, q, generator))
    # Same far proxy as worst_case_statistic_proxy(K_q, ...), constructed
    # without materialising K_q's O(q^2) edge arrays — the memory sweeps
    # probe q far past where an explicit complete graph is affordable.
    far = two_level_distribution(n if n % 2 == 0 else n - 1, epsilon)
    far_stats = statistic(far.sample_matrix(trials, q, generator))
    return 0.5 * (float(uniform_stats.mean()) + float(far_stats.mean()))


class StreamingTester(abc.ABC):
    """Contract for constant-memory streaming uniformity testers.

    A streaming tester sees each trial's ``q`` samples as a sequence of
    column blocks.  The protocol::

        state = tester.init_state(trials)        # dict of ndarrays
        for block in column_blocks:              # (trials × w) int64
            tester.update(state, block)
        verdicts = tester.finalize(state)        # bool, shape (trials,)

    Invariants every implementation must honour:

    * ``update`` is vectorised across trials and samples — per-sample
      Python loops are banned (lint rule RL303 covers ``update`` /
      ``update_block`` of streaming-shaped classes);
    * state arrays keep fixed dtype/shape across updates, and
      ``measured_state_bytes(state) <= state_bytes * trials`` at every
      point of the stream — the bound is independent of how many
      samples have been consumed;
    * the verdict depends only on the concatenation of the blocks, not
      on the block boundaries (partition invariance), so any chunking
      of one sample matrix yields bit-identical verdicts.
    """

    #: Bumped when a subclass's statistic or draw contract changes.
    kernel_version = 1

    def __init__(self, n: int, epsilon: float, q: int):
        if n < 2:
            raise InvalidParameterError(f"n must be >= 2, got {n}")
        if not 0.0 < epsilon <= 2.0:
            raise InvalidParameterError(
                f"epsilon must be in (0, 2], got {epsilon}"
            )
        if q < 1:
            raise InvalidParameterError(f"q must be >= 1, got {q}")
        self.n = int(n)
        self.epsilon = float(epsilon)
        self.q = int(q)

    @abc.abstractmethod
    def init_state(self, trials: int) -> Dict[str, np.ndarray]:
        """Allocate fresh per-trial state for ``trials`` parallel trials."""

    @abc.abstractmethod
    def update(self, state: Dict[str, np.ndarray], sample_block: np.ndarray) -> None:
        """Fold one ``(trials × w)`` column block into ``state`` in place."""

    @abc.abstractmethod
    def finalize(self, state: Dict[str, np.ndarray]) -> np.ndarray:
        """Read the boolean accept vector (shape ``(trials,)``) off the state."""

    @abc.abstractmethod
    def batch_statistic(self, matrix: np.ndarray) -> np.ndarray:
        """The pinned batch oracle: the statistic on a full sample matrix.

        Streaming any column partition of ``matrix`` must reproduce the
        verdicts :meth:`batch_verdicts` derives from this statistic
        bit-identically — for exact configurations this coincides with
        the corresponding batch tester's statistic.
        """

    @abc.abstractmethod
    def batch_verdicts(self, matrix: np.ndarray) -> np.ndarray:
        """Threshold :meth:`batch_statistic` exactly as ``finalize`` does."""

    @property
    @abc.abstractmethod
    def state_bytes(self) -> int:
        """Declared upper bound on per-trial state bytes (stream-length free)."""

    def _token_extra(self) -> Dict[str, Any]:
        """Subclass hook: sketch parameters folded into the cache token."""
        return {}

    @property
    def cache_token(self) -> Dict[str, Any]:
        from ..engine import KERNEL_SCHEMA_VERSION

        token: Dict[str, Any] = {
            "schema": KERNEL_SCHEMA_VERSION,
            "kind": "streaming",
            "class": type(self).__name__,
            "kernel_version": int(self.kernel_version),
            "n": self.n,
            "epsilon": self.epsilon,
            "q": self.q,
            "state_bytes": int(self.state_bytes),
        }
        token.update(self._token_extra())
        return token

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, eps={self.epsilon}, "
            f"q={self.q}, state_bytes={self.state_bytes})"
        )


def run_streaming(
    tester: StreamingTester,
    samples: np.ndarray,
    chunk: Optional[int] = None,
) -> np.ndarray:
    """Stream a ``(trials × q)`` matrix through a tester in column chunks.

    The verdicts are partition-invariant: any ``chunk`` width yields the
    same booleans as one-shot processing (``chunk=None`` feeds a single
    block).  This is the reference driver the equivalence tests and the
    battery runner share.
    """
    matrix = _as_block(samples)
    if matrix.shape[1] != tester.q:
        raise InvalidParameterError(
            f"samples have {matrix.shape[1]} columns; tester consumes {tester.q}"
        )
    width = tester.q if chunk is None else int(chunk)
    if width < 1:
        raise InvalidParameterError(f"chunk must be >= 1, got {chunk}")
    state = tester.init_state(matrix.shape[0])
    for start in range(0, tester.q, width):
        tester.update(state, matrix[:, start : start + width])
    return tester.finalize(state)


class StreamingCollisionTester(StreamingTester):
    """Incremental pairwise-collision tester (streaming ``K_q``).

    State per trial: a ``B``-bucket value histogram plus one running
    pair count.  Each block adds its within-block colliding pairs and
    its cross pairs against the histogram, then folds into the
    histogram — maintaining ``Σ_v C(c_v, 2)`` exactly for any block
    partition.

    ``num_buckets=None`` (exact, ``B = n``): the accept rule
    ``pairs <= midpoint_threshold(K_q, n, ε)`` is bit-identical to
    :class:`~repro.core.testers.CentralizedCollisionTester` on the same
    sample matrix.  ``num_buckets=B < n``: values are sketched by
    :func:`sketch_buckets` — memory drops to ``O(B)`` independent of
    ``n`` —
    and the cut is the Monte-Carlo midpoint of the bucketed statistic
    (:func:`calibrate_sketch_threshold`), pinned to the bucketed batch
    oracle ``collision_counts(sketch_buckets(matrix, B))``.
    """

    # v2: sketch hash switched to the fmix64 avalanche mixer.
    kernel_version = 2

    def __init__(
        self,
        n: int,
        epsilon: float,
        q: Optional[int] = None,
        num_buckets: Optional[int] = None,
        threshold: Optional[float] = None,
        calibration_rng: RngLike = 0,
        calibration_trials: int = 3000,
    ):
        if q is None:
            from .testers import default_centralized_q

            q = default_centralized_q(n, epsilon)
        super().__init__(n, epsilon, q)
        if num_buckets is not None and not 2 <= num_buckets:
            raise InvalidParameterError(
                f"num_buckets must be >= 2, got {num_buckets}"
            )
        self.num_buckets = None if num_buckets is None else int(num_buckets)
        self._buckets = self.n if self.num_buckets is None else self.num_buckets
        if threshold is not None:
            self.statistic_threshold = float(threshold)
        elif self.num_buckets is None:
            # K_q's num_edges times the analytic midpoint factor — the
            # same arithmetic as midpoint_threshold(complete_graph(q)),
            # minus the O(q^2) edge arrays.
            pair_count = self.q * (self.q - 1) // 2
            self.statistic_threshold = pair_count * (1.0 + epsilon**2 / 2.0) / n
        else:
            self.statistic_threshold = calibrate_sketch_threshold(
                self.batch_statistic,
                n,
                epsilon,
                self.q,
                trials=calibration_trials,
                rng=calibration_rng,
            )

    def init_state(self, trials: int) -> Dict[str, np.ndarray]:
        return {
            "histogram": np.zeros((trials, self._buckets), dtype=np.int64),
            "pair_count": np.zeros(trials, dtype=np.int64),
        }

    def update(self, state: Dict[str, np.ndarray], sample_block: np.ndarray) -> None:
        block = _as_block(sample_block)
        values = (
            block
            if self.num_buckets is None
            else sketch_buckets(block, self._buckets)
        )
        histogram = state["histogram"]
        cross = np.take_along_axis(histogram, values, axis=1).sum(axis=1)
        state["pair_count"] += collision_counts(values) + cross
        histogram += _bucket_histogram(values, self._buckets)

    def finalize(self, state: Dict[str, np.ndarray]) -> np.ndarray:
        return state["pair_count"] <= self.statistic_threshold

    def batch_statistic(self, matrix: np.ndarray) -> np.ndarray:
        block = _as_block(matrix)
        if self.num_buckets is None:
            return collision_counts(block)
        return collision_counts(sketch_buckets(block, self._buckets))

    def batch_verdicts(self, matrix: np.ndarray) -> np.ndarray:
        return self.batch_statistic(matrix) <= self.statistic_threshold

    @property
    def state_bytes(self) -> int:
        return 8 * (self._buckets + 1) + STATE_SLACK_BYTES

    def _token_extra(self) -> Dict[str, Any]:
        return {
            "buckets": self._buckets,
            "sketched": self.num_buckets is not None,
            "threshold": float(self.statistic_threshold),
        }


class StreamingDistinctTester(StreamingTester):
    """Incremental distinct-element tester (streaming unique counts).

    State per trial: the ``B``-bucket histogram alone; the distinct
    count is its number of non-empty buckets, read off at finalize.
    ``num_buckets=None`` (exact): bit-identical to
    :class:`~repro.core.baselines.UniqueElementsTester` under the same
    defaults (its ``calibrate_distinct_threshold`` cut, accept iff
    ``distinct >= t``).  ``num_buckets=B``: the bucketed distinct count
    with a :func:`calibrate_sketch_threshold` midpoint cut, pinned to
    ``unique_counts(sketch_buckets(matrix, B))``.
    """

    # v2: sketch hash switched to the fmix64 avalanche mixer.
    kernel_version = 2

    def __init__(
        self,
        n: int,
        epsilon: float,
        q: Optional[int] = None,
        num_buckets: Optional[int] = None,
        threshold: Optional[float] = None,
        calibration_rng: RngLike = 0,
        calibration_trials: int = 3000,
    ):
        if q is None:
            from .testers import default_centralized_q

            q = default_centralized_q(n, epsilon)
        super().__init__(n, epsilon, q)
        if num_buckets is not None and not 2 <= num_buckets:
            raise InvalidParameterError(
                f"num_buckets must be >= 2, got {num_buckets}"
            )
        self.num_buckets = None if num_buckets is None else int(num_buckets)
        self._buckets = self.n if self.num_buckets is None else self.num_buckets
        if threshold is not None:
            self.statistic_threshold = float(threshold)
        elif self.num_buckets is None:
            self.statistic_threshold = calibrate_distinct_threshold(
                complete_graph(self.q),
                n,
                epsilon,
                trials=calibration_trials,
                rng=calibration_rng,
            )
        else:
            self.statistic_threshold = calibrate_sketch_threshold(
                self.batch_statistic,
                n,
                epsilon,
                self.q,
                trials=calibration_trials,
                rng=calibration_rng,
            )

    def init_state(self, trials: int) -> Dict[str, np.ndarray]:
        return {
            "histogram": np.zeros((trials, self._buckets), dtype=np.int64),
        }

    def update(self, state: Dict[str, np.ndarray], sample_block: np.ndarray) -> None:
        block = _as_block(sample_block)
        values = (
            block
            if self.num_buckets is None
            else sketch_buckets(block, self._buckets)
        )
        state["histogram"] += _bucket_histogram(values, self._buckets)

    def finalize(self, state: Dict[str, np.ndarray]) -> np.ndarray:
        distinct = np.count_nonzero(state["histogram"], axis=1)
        return distinct >= self.statistic_threshold

    def batch_statistic(self, matrix: np.ndarray) -> np.ndarray:
        block = _as_block(matrix)
        if self.num_buckets is None:
            return unique_counts(block)
        return unique_counts(sketch_buckets(block, self._buckets))

    def batch_verdicts(self, matrix: np.ndarray) -> np.ndarray:
        return self.batch_statistic(matrix) >= self.statistic_threshold

    @property
    def state_bytes(self) -> int:
        return 8 * self._buckets + STATE_SLACK_BYTES

    def _token_extra(self) -> Dict[str, Any]:
        return {
            "buckets": self._buckets,
            "sketched": self.num_buckets is not None,
            "threshold": float(self.statistic_threshold),
        }


class StreamingGraphTester(StreamingTester):
    """Incremental comparison-graph statistic for any registered graph.

    The graph's edges are stored sorted by their later endpoint
    (``edge_v``), so the edges settled by a block ``[lo, hi)`` are one
    contiguous ``searchsorted`` slice: every edge whose later endpoint
    arrives in the block.  Earlier endpoints are looked up either in
    the block itself or in a buffer of **retained slots** — the slots
    appearing as some edge's earlier endpoint (``unique(edge_u)``) —
    which is all the history the statistic can ever touch again.

    Both statistic modes stream exactly: edge mode accumulates the
    slice's collision count; distinct mode groups the slice by later
    endpoint (``reduceat``) and counts covered vertices — each target
    vertex's backward edges all live in its own block's slice, so the
    per-block grouping partitions the batch grouping.  Verdicts are
    bit-identical to :class:`~repro.core.graphs.ComparisonGraphTester`
    (same default thresholds) on the same matrix, for every family
    including ``complete``.
    """

    kernel_version = 1

    def __init__(
        self,
        n: int,
        epsilon: float,
        graph: ComparisonGraph,
        mode: str = "edges",
        threshold: Optional[float] = None,
        calibration_rng: RngLike = 0,
        calibration_trials: int = 3000,
    ):
        if not isinstance(graph, ComparisonGraph):
            raise InvalidParameterError(
                f"graph must be a ComparisonGraph, got {type(graph).__name__}"
            )
        super().__init__(n, epsilon, graph.num_vertices)
        self.graph = graph
        self.mode = _validate_mode(mode)
        self._retained = np.unique(graph.edge_u)
        self._retained_index = np.full(self.q, -1, dtype=np.int64)
        self._retained_index[self._retained] = np.arange(
            self._retained.size, dtype=np.int64
        )
        if threshold is not None:
            self.statistic_threshold = float(threshold)
        elif self.mode == "edges":
            self.statistic_threshold = midpoint_threshold(graph, n, epsilon)
        else:
            self.statistic_threshold = calibrate_distinct_threshold(
                graph, n, epsilon, trials=calibration_trials, rng=calibration_rng
            )

    def init_state(self, trials: int) -> Dict[str, np.ndarray]:
        state = {
            "buffer": np.zeros((trials, self._retained.size), dtype=np.int64),
            "position": np.zeros(1, dtype=np.int64),
        }
        if self.mode == "edges":
            state["edge_sum"] = np.zeros(trials, dtype=np.int64)
        else:
            state["covered_count"] = np.zeros(trials, dtype=np.int64)
        return state

    def update(self, state: Dict[str, np.ndarray], sample_block: np.ndarray) -> None:
        block = _as_block(sample_block)
        low = int(state["position"][0])
        high = low + block.shape[1]
        if high > self.q:
            raise InvalidParameterError(
                f"stream overruns the graph: block ends at slot {high}, q={self.q}"
            )
        first = int(np.searchsorted(self.graph.edge_v, low, side="left"))
        last = int(np.searchsorted(self.graph.edge_v, high, side="left"))
        sources = self.graph.edge_u[first:last]
        targets = self.graph.edge_v[first:last]
        if sources.size:
            retained_width = self._retained.size
            source_columns = np.where(
                sources >= low,
                retained_width + (sources - low),
                self._retained_index[sources],
            )
            known = np.concatenate([state["buffer"], block], axis=1)
            collide = known[:, source_columns] == block[:, targets - low]
            if self.mode == "edges":
                state["edge_sum"] += collide.sum(axis=1).astype(np.int64)
            else:
                _, starts = np.unique(targets, return_index=True)
                covered = (
                    np.add.reduceat(collide.astype(np.int64), starts, axis=1) > 0
                )
                state["covered_count"] += covered.sum(axis=1).astype(np.int64)
        slot_index = self._retained_index[low:high]
        kept = slot_index >= 0
        if kept.any():
            state["buffer"][:, slot_index[kept]] = block[:, np.nonzero(kept)[0]]
        state["position"][0] = high

    def finalize(self, state: Dict[str, np.ndarray]) -> np.ndarray:
        if self.mode == "edges":
            return state["edge_sum"] <= self.statistic_threshold
        distinct = self.q - state["covered_count"]
        return distinct >= self.statistic_threshold

    def batch_statistic(self, matrix: np.ndarray) -> np.ndarray:
        return graph_statistic_block(self.graph, _as_block(matrix), self.mode)

    def batch_verdicts(self, matrix: np.ndarray) -> np.ndarray:
        statistics = self.batch_statistic(matrix)
        if self.mode == "edges":
            return statistics <= self.statistic_threshold
        return statistics >= self.statistic_threshold

    @property
    def state_bytes(self) -> int:
        return 8 * (self._retained.size + 1) + STATE_SLACK_BYTES

    def _token_extra(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "family": self.graph.family,
            "graph": self.graph.content_hash(),
            "threshold": float(self.statistic_threshold),
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, eps={self.epsilon}, "
            f"graph={self.graph.family}/q{self.q}, mode={self.mode})"
        )

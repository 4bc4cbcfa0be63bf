"""The single estimation entry point: fixed budgets and block-granular SPRT.

:func:`estimate_acceptance` is where every acceptance-probability
estimate in the library runs.  It layers, around any
:class:`~repro.engine.kernels.AcceptKernel`:

* chunked streaming over the active backend (fixed RNG blocks grouped
  into memory-bounded tiles);
* the on-disk acceptance cache, keyed by kernel identity + version so
  distinct kernels sharing every numeric parameter cannot collide;
* per-kernel metrics counters;
* Wald's sequential probability-ratio test, **evaluated only at RNG-block
  boundaries**.

Block-granular early stopping
-----------------------------
In sequential mode the engine dispatches blocks in waves (wave width =
backend worker count) but *consumes* them strictly in block-index order:
the log-likelihood ratio is updated one block at a time, and the first
block whose update crosses a Wald boundary fixes both the verdict and
``trials_used``.  Blocks executed beyond the crossing are discarded.
Because the scan order and the per-block results depend only on the root
entropy — never on scheduling — ``(verdict, trials_used)`` is
bit-deterministic across backends, worker counts and tile sizes; the
wave width only changes how much speculative work is thrown away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InvalidParameterError
from ..rng import RngLike
from .cache import kernel_probe_key
from .chunking import Block, plan_blocks, plan_tiles, tile_trials
from .config import get_engine
from .executor import _accepts_tile, chunked_accepts, derive_root_entropy
from .kernels import AcceptKernel, as_kernel, kernel_label


@dataclass(frozen=True)
class SprtSpec:
    """Parameters of one sequential classification (Wald's SPRT).

    Tests the simple hypotheses ``p = target + margin`` against
    ``p = target - margin`` with two-sided error bound ``error_rate``;
    ``max_trials`` caps the budget (the sign of the log-likelihood ratio
    decides when it is hit).
    """

    target: float
    margin: float = 0.05
    error_rate: float = 0.05
    max_trials: int = 10_000

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise InvalidParameterError(
                f"target must be in (0,1), got {self.target}"
            )
        if not 0.0 < self.margin < min(self.target, 1.0 - self.target):
            raise InvalidParameterError(
                f"margin must be in (0, min(target, 1-target)), got {self.margin}"
            )
        if not 0.0 < self.error_rate < 0.5:
            raise InvalidParameterError(
                f"error_rate must be in (0, 0.5), got {self.error_rate}"
            )
        if self.max_trials < 1:
            raise InvalidParameterError(
                f"max_trials must be >= 1, got {self.max_trials}"
            )

    @property
    def success_step(self) -> float:
        """Log-likelihood increment per accepting trial."""
        return math.log((self.target + self.margin) / (self.target - self.margin))

    @property
    def failure_step(self) -> float:
        """Log-likelihood increment per rejecting trial."""
        return math.log(
            (1.0 - self.target - self.margin) / (1.0 - self.target + self.margin)
        )

    @property
    def boundary(self) -> float:
        """Wald's symmetric decision boundary ``log((1-α)/α)``."""
        return math.log((1.0 - self.error_rate) / self.error_rate)

    def token(self) -> Dict[str, Any]:
        """Cache-key description of this spec."""
        return {
            "target": self.target,
            "margin": self.margin,
            "error_rate": self.error_rate,
            "max_trials": self.max_trials,
        }


@dataclass(frozen=True)
class AcceptanceEstimate:
    """Result of one engine-run acceptance estimation.

    ``rate`` is always ``successes / trials_used``.  The sequential
    fields (``decided_above``, ``log_likelihood_ratio``) are ``None``
    for fixed-budget runs; ``stopped_early`` is ``True`` only when an
    SPRT boundary was crossed before ``max_trials``.
    """

    rate: float
    trials_used: int
    successes: int
    decided_above: Optional[bool] = None
    log_likelihood_ratio: Optional[float] = None
    stopped_early: bool = False
    from_cache: bool = False


def _wave_width(backend: Any) -> int:
    """Tiles dispatched per sequential wave (worker count, min 1).

    Only wasted speculative work depends on this: verdicts and
    ``trials_used`` are fixed by the in-order block scan.
    """
    return max(1, int(getattr(backend, "max_workers", 1)))


def _cacheable_seed(rng: RngLike) -> bool:
    """Whether ``rng`` names a reusable seed identity worth caching.

    Integer seeds and seed sequences recur across runs; a live generator
    (or fresh OS entropy) yields a one-off root that would only litter
    the cache directory.
    """
    if isinstance(rng, bool):
        return False
    return isinstance(rng, (int, np.integer, np.random.SeedSequence))


def _estimate_fixed(
    kernel: AcceptKernel, distribution: Any, trials: int, root_entropy: int
) -> AcceptanceEstimate:
    accepts = chunked_accepts(kernel, distribution, trials, root_entropy)
    successes = int(np.asarray(accepts, dtype=bool).sum())
    return AcceptanceEstimate(
        rate=successes / trials, trials_used=trials, successes=successes
    )


def _scan_blocks(
    tile: Sequence[Block], accepts: np.ndarray
) -> List[Tuple[Block, np.ndarray]]:
    """Split one tile's concatenated accept vector back into its blocks."""
    pieces: List[Tuple[Block, np.ndarray]] = []
    offset = 0
    for block in tile:
        pieces.append((block, accepts[offset : offset + block.trials]))
        offset += block.trials
    return pieces


def _estimate_sequential(
    kernel: AcceptKernel, distribution: Any, spec: SprtSpec, root_entropy: int
) -> AcceptanceEstimate:
    config = get_engine()
    metrics = config.metrics
    blocks = plan_blocks(spec.max_trials)
    tiles = plan_tiles(blocks, kernel.elements_per_trial, config.max_elements)
    wave = _wave_width(config.backend)

    success_step = spec.success_step
    failure_step = spec.failure_step
    boundary = spec.boundary

    log_ratio = 0.0
    successes = 0
    used = 0
    decided: Optional[bool] = None

    tile_index = 0
    while tile_index < len(tiles) and decided is None:
        batch = tiles[tile_index : tile_index + wave]
        tile_index += wave
        tasks = [(kernel, distribution, tile, root_entropy) for tile in batch]
        with metrics.timed():
            results = config.backend.map_tasks(_accepts_tile, tasks)
        executed = sum(tile_trials(tile) for tile in batch)
        metrics.count("protocol_trials", executed)
        metrics.count("samples_drawn", executed * kernel.elements_per_trial)
        metrics.count("tiles_executed", len(batch))
        metrics.count("rng_blocks", sum(len(tile) for tile in batch))
        # Strict block-order consumption; blocks beyond a crossing are
        # speculative work and are discarded.
        for tile, accepts in zip(batch, results):
            for block, block_accepts in _scan_blocks(tile, accepts):
                if decided is not None:
                    break
                wins = int(block_accepts.sum())
                successes += wins
                used += block.trials
                log_ratio += (
                    wins * success_step + (block.trials - wins) * failure_step
                )
                if log_ratio >= boundary:
                    decided = True
                elif log_ratio <= -boundary:
                    decided = False

    stopped_early = decided is not None and used < spec.max_trials
    if decided is None:
        decided = log_ratio > 0.0
    if stopped_early:
        metrics.count("sprt_early_stops")
        metrics.count("sprt_trials_saved", spec.max_trials - used)
    return AcceptanceEstimate(
        rate=successes / used,
        trials_used=used,
        successes=successes,
        decided_above=decided,
        log_likelihood_ratio=log_ratio,
        stopped_early=stopped_early,
    )


def _estimate_from_payload(payload: Dict[str, Any]) -> Optional[AcceptanceEstimate]:
    """Rebuild a cached estimate; ``None`` if the payload is malformed."""
    try:
        decided = payload.get("decided_above")
        log_ratio = payload.get("log_likelihood_ratio")
        return AcceptanceEstimate(
            rate=float(payload["rate"]),
            trials_used=int(payload["trials_used"]),
            successes=int(payload["successes"]),
            decided_above=None if decided is None else bool(decided),
            log_likelihood_ratio=None if log_ratio is None else float(log_ratio),
            stopped_early=bool(payload.get("stopped_early", False)),
            from_cache=True,
        )
    except (KeyError, TypeError, ValueError):
        return None


def _estimate_payload(estimate: AcceptanceEstimate) -> Dict[str, Any]:
    return {
        "rate": estimate.rate,
        "trials_used": estimate.trials_used,
        "successes": estimate.successes,
        "decided_above": estimate.decided_above,
        "log_likelihood_ratio": estimate.log_likelihood_ratio,
        "stopped_early": estimate.stopped_early,
    }


def estimate_acceptance(
    kernel: Any,
    distribution: Any,
    *,
    trials: Optional[int] = None,
    sprt: Optional[SprtSpec] = None,
    rng: RngLike = None,
) -> AcceptanceEstimate:
    """Estimate P[accept] of a kernel against a distribution.

    Exactly one of ``trials`` (fixed budget) and ``sprt`` (sequential
    classification) must be given.  ``kernel`` may be anything
    :func:`~repro.engine.kernels.as_kernel` accepts — any native kernel
    (every tester and protocol) or a streaming tester.

    Determinism: the result is a pure function of ``(kernel cache_token,
    distribution, mode, root entropy)``.  Integer and ``SeedSequence``
    seeds are additionally memoised in the active acceptance cache
    (generator seeds produce one-off roots and skip the cache).
    """
    resolved = as_kernel(kernel)
    if (trials is None) == (sprt is None):
        raise InvalidParameterError(
            "pass exactly one of trials= (fixed budget) or sprt= (SprtSpec)"
        )
    if trials is not None and trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")

    config = get_engine()
    metrics = config.metrics
    cacheable = config.cache is not None and _cacheable_seed(rng)
    root_entropy = derive_root_entropy(rng)

    mode: Dict[str, Any]
    if trials is not None:
        mode = {"trials": int(trials)}
    else:
        assert sprt is not None
        mode = {"sprt": sprt.token()}

    key: Optional[Dict[str, Any]] = None
    if cacheable and config.cache is not None:
        key = kernel_probe_key(resolved, distribution, mode, root_entropy)
        payload = config.cache.get_estimate(key)
        if payload is not None:
            cached = _estimate_from_payload(payload)
            if cached is not None:
                metrics.count("cache_hits")
                return cached
        metrics.count("cache_misses")

    if trials is not None:
        estimate = _estimate_fixed(resolved, distribution, trials, root_entropy)
        metrics.count(f"kernel:{kernel_label(resolved)}:trials", trials)
    else:
        assert sprt is not None
        estimate = _estimate_sequential(resolved, distribution, sprt, root_entropy)
        metrics.count(
            f"kernel:{kernel_label(resolved)}:trials", estimate.trials_used
        )

    if key is not None and config.cache is not None:
        config.cache.put_estimate(key, _estimate_payload(estimate))
    return estimate

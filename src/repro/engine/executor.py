"""The shared Monte Carlo execution layer.

All batched protocol/tester execution funnels through here:

* :func:`monte_carlo_bits` — the (trials × k) player-bit matrix of a
  :class:`~repro.core.protocol.SimultaneousProtocol`, computed in
  memory-bounded tiles on the active backend;
* :func:`chunked_accepts` — the boolean accept vector of any
  :class:`~repro.engine.kernels.AcceptKernel` (testers and protocols
  included), one ``accept_block`` call per RNG block.

Determinism contract
--------------------
Every batch derives one **root entropy** from its ``rng`` argument
(an integer seed is used verbatim; a generator is asked for one 63-bit
draw).  Trials are cut into fixed-size RNG blocks
(:data:`~repro.engine.chunking.RNG_BLOCK_TRIALS`), and block ``b`` is
always computed with ``default_rng(SeedSequence(root, spawn_key=(b,)))``.
Because the spawn key depends only on the block index, the concatenated
result is bit-identical across backends, worker counts and tile sizes.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from ..rng import RngLike, ensure_rng
from .chunking import (
    RNG_BLOCK_TRIALS,
    Block,
    plan_blocks,
    plan_cost_tiles,
    plan_tiles,
    tile_trials,
)
from .config import EngineConfig, get_engine

#: Result arrays flowing through the engine (dtype varies by kernel).
Array = npt.NDArray[Any]

#: A tile kernel: (owner, distribution, tile, root_entropy) → array.
TileKernel = Callable[[Any, Any, Sequence[Block], int], Array]


def derive_root_entropy(rng: RngLike) -> int:
    """One integer that seeds the whole batch.

    Integer seeds pass through unchanged (so equal seeds give equal
    batches and stable cache keys); generators contribute one draw, which
    keeps successive batches on a shared generator independent.
    """
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        return int(rng)
    generator = ensure_rng(rng)
    return int(generator.integers(0, 2**63 - 1))


def block_seed(root_entropy: int, block_index: int) -> np.random.SeedSequence:
    """The spawned seed owning RNG block ``block_index``."""
    return np.random.SeedSequence(entropy=root_entropy, spawn_key=(block_index,))


def _protocol_bits_tile(
    protocol: Any, distribution: Any, tile: Sequence[Block], root_entropy: int
) -> Array:
    """Player-bit matrix for one tile (module-level: must pickle)."""
    pieces: List[Array] = [
        protocol.bits_block(
            distribution,
            block.trials,
            np.random.default_rng(block_seed(root_entropy, block.index)),
        )
        for block in tile
    ]
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=0)


def _accepts_tile(
    runner: Any, distribution: Any, tile: Sequence[Block], root_entropy: int
) -> Array:
    """Accept vector for one tile of an ``accept_block`` runner."""
    pieces: List[Array] = []
    for block in tile:
        generator = np.random.default_rng(block_seed(root_entropy, block.index))
        pieces.append(
            np.asarray(runner.accept_block(distribution, block.trials, generator))
        )
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _use_auto_tiling(config: EngineConfig, tile_count: int) -> bool:
    """Whether the cost-model auto-sizer should engage for this batch.

    Serial backends gain nothing from retiling (no dispatch to
    amortise), and a single tile leaves nothing to resize.
    """
    return (
        config.auto_tile
        and tile_count > 1
        and int(getattr(config.backend, "max_workers", 1)) > 1
    )


def autosize_tiles(
    kernel: Any,
    distribution: Any,
    tiles: Sequence[Sequence[Block]],
    root_entropy: int,
    elements_per_trial: int,
    config: EngineConfig,
) -> Tuple[Array, List[List[Block]]]:
    """Run the first tile inline and cost-model retile the remainder.

    Returns the first tile's accept vector plus the regrouped remaining
    tiles, sized so per-tile dispatch overhead stays below
    ``config.dispatch_overhead_target``: with measured per-trial compute
    cost ``c`` and dispatch round-trip ``d``, a tile needs
    ``d / (target · c)`` trials.  The target is clamped so the remaining
    work still spreads across the pool (at least one tile per worker when
    there are enough blocks), and the memory bound stays hard.  Only the
    *grouping* changes — RNG blocks are never split — so results remain
    bit-identical to any other tiling.
    """
    from ..experiments.timing import Stopwatch

    watch = Stopwatch(clock=config.clock)
    first = np.asarray(
        _accepts_tile(kernel, distribution, tiles[0], root_entropy)
    )
    per_trial_s = max(watch.elapsed(), 1e-9) / tile_trials(tiles[0])
    dispatch_s = config.backend.dispatch_overhead_s(config.clock)
    target = dispatch_s / (config.dispatch_overhead_target * per_trial_s)
    remaining = [block for tile in tiles[1:] for block in tile]
    remaining_trials = sum(block.trials for block in remaining)
    workers = max(1, int(getattr(config.backend, "max_workers", 1)))
    fair_share = math.ceil(remaining_trials / workers)
    target = max(float(RNG_BLOCK_TRIALS), min(target, float(fair_share)))
    retiled = plan_cost_tiles(
        remaining, elements_per_trial, config.max_elements, target
    )
    config.metrics.count("autotile_retiles")
    return first, retiled


def _dispatch(
    task_fn: TileKernel,
    owner: Any,
    distribution: Any,
    trials: int,
    rng: RngLike,
    elements_per_trial: int,
) -> Array:
    """Shared plan → map → concatenate path for both execution kinds."""
    config = get_engine()
    metrics = config.metrics
    root_entropy = derive_root_entropy(rng)
    blocks = plan_blocks(trials)
    tiles = plan_tiles(blocks, elements_per_trial, config.max_elements)
    accept_path = task_fn is _accepts_tile
    results: List[Array] = []
    executed_tiles = len(tiles)
    if accept_path and _use_auto_tiling(config, len(tiles)):
        with metrics.timed():
            first, tiles = autosize_tiles(
                owner, distribution, tiles, root_entropy, elements_per_trial, config
            )
        results.append(first)
        executed_tiles = len(tiles) + 1
    with metrics.timed():
        if accept_path:
            mapped = config.backend.map_accept_tiles(
                owner, distribution, tiles, root_entropy
            )
        else:
            tasks = [(owner, distribution, tile, root_entropy) for tile in tiles]
            mapped = config.backend.map_tasks(task_fn, tasks)
    results.extend(np.asarray(piece) for piece in mapped)
    metrics.count("protocol_trials", trials)
    metrics.count("samples_drawn", trials * elements_per_trial)
    metrics.count("tiles_executed", executed_tiles)
    metrics.count("rng_blocks", len(blocks))
    return results[0] if len(results) == 1 else np.concatenate(results)


def monte_carlo_bits(
    protocol: Any, distribution: Any, trials: int, rng: RngLike = None
) -> Array:
    """(trials × k) player-bit matrix, tiled over the active backend."""
    return _dispatch(
        _protocol_bits_tile,
        protocol,
        distribution,
        trials,
        rng,
        protocol.total_samples,
    )


def chunked_accepts(
    kernel: Any, distribution: Any, trials: int, rng: RngLike = None
) -> Array:
    """Boolean accept vector of an :class:`~repro.engine.kernels.AcceptKernel`,
    tiled.

    Tiles are sized from the kernel's ``elements_per_trial`` hint; the
    kernel is shipped to workers whole, so it must be picklable.
    """
    return _dispatch(
        _accepts_tile,
        kernel,
        distribution,
        trials,
        rng,
        int(kernel.elements_per_trial),
    )

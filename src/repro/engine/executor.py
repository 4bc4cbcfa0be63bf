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

from typing import Any, Callable, List, Sequence

import numpy as np
import numpy.typing as npt

from ..rng import RngLike, ensure_rng
from .chunking import Block, plan_blocks, plan_tiles
from .config import get_engine

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
    tasks = [(owner, distribution, tile, root_entropy) for tile in tiles]
    with metrics.timed():
        results = config.backend.map_tasks(task_fn, tasks)
    metrics.count("protocol_trials", trials)
    metrics.count("samples_drawn", trials * elements_per_trial)
    metrics.count("tiles_executed", len(tiles))
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

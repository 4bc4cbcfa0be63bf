"""The AcceptKernel substrate: one interface for every estimator.

An *accept kernel* is the unit every Monte-Carlo estimation in this
library reduces to: a pure, trial-batched function

    ``accept_block(distribution, trials, generator) -> bool[trials]``

plus a stable ``cache_token`` naming the computation and an
``elements_per_trial`` sizing hint for memory-bounded tiling.  The engine
owns everything around the kernel — chunked streaming, backends, the
on-disk acceptance cache, metrics, and block-granular sequential early
stopping (:func:`~repro.engine.estimate.estimate_acceptance`).

Purity contract
---------------
``accept_block`` must be a pure function of ``(kernel configuration,
distribution, trials, generator)``: every random draw comes from the
passed generator, and the result depends on nothing else.  The engine
seeds one generator per RNG block (``default_rng(SeedSequence(root,
spawn_key=(b,)))``), which is what makes results bit-identical across
backends, worker counts and tile sizes — and what makes the cache token a
faithful name for the whole acceptance curve.

``cache_token`` must change whenever the sampling logic or its
calibration changes (bump the per-kernel ``kernel_version`` entry), and
must differ between kernels that could otherwise share every numeric
parameter — a closeness curve at (n, q) must never collide with a
protocol curve at the same (n, q).

Kernels and the one adapter
---------------------------
Every tester (:class:`~repro.core.base.UniformityTester` and the graph
layer), every :class:`~repro.core.protocol.SimultaneousProtocol`, and
the closeness / independence / network / learning kernels implement the
three members natively, so :func:`as_kernel` has two cases only:

* objects already exposing the three members pass through unchanged;
* streaming testers (``init_state``/``update``/``finalize``) are wrapped
  in :class:`StreamingKernel`, which draws the samples and streams them
  through the tester's constant-memory state.
"""

from __future__ import annotations

from typing import Any, Dict, Protocol, runtime_checkable

import numpy as np

from ..exceptions import InvalidParameterError
from ..rng import RngLike, ensure_rng

#: Bump when the kernel-token layout itself changes incompatibly.
#: Version 2: explicit per-class tokens; protocols compose their
#: players' and referee's exact tokens (version 1 reflected over
#: attributes and strategy names, which let distinct protocols collide).
KERNEL_SCHEMA_VERSION = 2

#: Boolean accept vectors flowing out of kernels.
BoolArray = np.ndarray


@runtime_checkable
class AcceptKernel(Protocol):
    """Structural interface of an accept kernel (see module docstring)."""

    @property
    def cache_token(self) -> Dict[str, Any]:
        """Stable JSON-serialisable identity of the computation."""
        ...

    @property
    def elements_per_trial(self) -> int:
        """Memory footprint hint (array elements per trial) for tiling."""
        ...

    def accept_block(
        self, distribution: Any, trials: int, rng: RngLike = None
    ) -> BoolArray:
        """Boolean accept vector for one RNG block (pure in its inputs)."""
        ...


def kernel_label(kernel: AcceptKernel) -> str:
    """Short per-kernel metrics label derived from the cache token."""
    token = kernel.cache_token
    label = token.get("class") or token.get("kind") or "kernel"
    return str(label)


class BernoulliKernel:
    """A calibrated fixture kernel with *known* acceptance probability.

    Accepts each trial independently with probability ``probability``,
    ignoring the distribution argument.  This is the canonical
    calibration instrument for the engine's sequential tests: the true
    rate is exact, so SPRT verdicts and error rates can be checked
    against ground truth.
    """

    def __init__(self, probability: float):
        if not 0.0 <= probability <= 1.0:
            raise InvalidParameterError(
                f"probability must be in [0,1], got {probability}"
            )
        self.probability = float(probability)

    @property
    def cache_token(self) -> Dict[str, Any]:
        return {
            "schema": KERNEL_SCHEMA_VERSION,
            "kind": "bernoulli",
            "class": "BernoulliKernel",
            "kernel_version": 1,
            "probability": self.probability,
        }

    @property
    def elements_per_trial(self) -> int:
        return 1

    def accept_block(
        self, distribution: Any, trials: int, rng: RngLike = None
    ) -> BoolArray:
        generator = ensure_rng(rng)
        return generator.random(trials) < self.probability


class StreamingKernel:
    """Adapter lifting a streaming tester (``init_state``/``update``/
    ``finalize``) onto the kernel protocol.

    Two draw modes:

    * ``draw="matrix"`` (default) — one ``sample_matrix(trials, q)``
      per block, streamed through ``update`` in column chunks.  The
      flat draw is identical to the batch testers', and streaming
      verdicts are partition-invariant, so results are **bit-identical
      to the batch counterpart** for any chunk width; the chunk width
      is therefore deliberately *absent* from the cache token.
    * ``draw="chunked"`` — each chunk is its own
      ``sample_matrix(trials, w)`` draw, so total memory stays bounded
      by the chunk (true constant-memory streaming).  The element
      *assignment* differs from the batch draw order, so the token
      carries the draw mode and chunk width and equivalence is pinned
      to the streaming tester's own batch oracle, not the batch tester.
    """

    def __init__(
        self, streaming: Any, chunk: int | None = None, draw: str = "matrix"
    ):
        for member in ("init_state", "update", "finalize"):
            if not hasattr(streaming, member):
                raise InvalidParameterError(
                    f"{type(streaming).__name__} is neither an AcceptKernel "
                    "(accept_block + cache_token + elements_per_trial) nor a "
                    f"streaming tester (no {member})"
                )
        if draw not in ("matrix", "chunked"):
            raise InvalidParameterError(
                f"draw must be 'matrix' or 'chunked', got {draw!r}"
            )
        if chunk is not None and chunk < 1:
            raise InvalidParameterError(f"chunk must be >= 1, got {chunk}")
        if draw == "chunked" and chunk is None:
            raise InvalidParameterError(
                "draw='chunked' requires an explicit chunk width"
            )
        self.streaming = streaming
        self.chunk = None if chunk is None else int(chunk)
        self.draw = draw

    @property
    def cache_token(self) -> Dict[str, Any]:
        token = dict(self.streaming.cache_token)
        token.setdefault("schema", KERNEL_SCHEMA_VERSION)
        token.setdefault("kind", "streaming")
        if self.draw == "chunked":
            # Chunked draws change the element assignment, hence the
            # acceptance curve; matrix draws are chunk-invariant.
            token["draw"] = "chunked"
            token["chunk"] = int(self.chunk or 0)
        return token

    @property
    def elements_per_trial(self) -> int:
        q = int(self.streaming.q)
        state_elements = (int(self.streaming.state_bytes) + 7) // 8
        if self.draw == "chunked":
            return max(1, int(self.chunk or 1)) + state_elements
        return q + state_elements

    def accept_block(
        self, distribution: Any, trials: int, rng: RngLike = None
    ) -> BoolArray:
        generator = ensure_rng(rng)
        q = int(self.streaming.q)
        state = self.streaming.init_state(trials)
        if self.draw == "matrix":
            matrix = distribution.sample_matrix(trials, q, generator)
            width = q if self.chunk is None else self.chunk
            for start in range(0, q, width):
                self.streaming.update(state, matrix[:, start : start + width])
        else:
            width = int(self.chunk or q)
            for start in range(0, q, width):
                block = distribution.sample_matrix(
                    trials, min(width, q - start), generator
                )
                self.streaming.update(state, block)
        return np.asarray(self.streaming.finalize(state), dtype=bool)

    def __repr__(self) -> str:
        return f"StreamingKernel({self.streaming!r}, draw={self.draw})"


def as_kernel(obj: Any) -> AcceptKernel:
    """Lift any simulatable object onto the :class:`AcceptKernel` protocol.

    Native kernels — every tester, protocol and estimator kernel in the
    library — pass through; anything else must be a streaming tester
    (``init_state``/``update``/``finalize``) and is wrapped in
    :class:`StreamingKernel`, which rejects every other object.  There is
    deliberately no fallback that would hide a sequential-RNG estimator
    from the engine's determinism contract.
    """
    if isinstance(obj, AcceptKernel):
        return obj
    return StreamingKernel(obj)

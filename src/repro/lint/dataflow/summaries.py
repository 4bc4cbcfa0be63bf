"""Inter-procedural function summaries.

A :class:`FunctionSummary` is the whole analysis's view of one callable:
which tags its return value carries intrinsically, and which parameters'
tags flow through to the return value.  Summaries make the analysis
compositional — a call site substitutes concrete argument values into the
callee's summary instead of re-analysing the callee inline.

Two populations exist:

* **Computed** summaries — produced by running the intra-procedural
  interpreter over every function in the analysed tree (fixpoint over the
  call graph, see :mod:`.solver`).
* **Builtin** summaries — hand-written models of the external surface the
  repository's RNG discipline is built on (``numpy.random``,
  ``repro.rng``, the engine's seed-derivation helpers).  Builtins let a
  single fixture file analyse correctly even though ``repro/rng.py``
  itself is outside the analysed set; when the real module *is* analysed,
  the builtin model still wins for these names so the contract stays
  stable (``ensure_rng`` passing a generator through unchanged is an API
  guarantee, not an implementation detail).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from .lattice import (
    DERIVATION_ROOT,
    DERIVATION_SPAWNED,
    BOTTOM,
    RngTag,
    Value,
    broad_taints,
    join,
)


@dataclass(frozen=True)
class FunctionSummary:
    """The call-site-visible behaviour of one function.

    Attributes
    ----------
    qualname:
        Fully qualified dotted name (``repro.rng.ensure_rng``).
    params:
        Positional parameter names, in order (used to map call-site
        arguments onto :class:`~.lattice.ParamTag` markers).
    return_tags:
        Tags the return value carries regardless of the arguments
        (e.g. a fresh ``RngTag`` for a generator factory).
    passthrough:
        Parameter names whose *argument* tags flow into the return value.
    rng_like_params:
        Parameter names that accept seed material / generators — the
        RL602 "this function already receives randomness" evidence.
    """

    qualname: str
    params: Tuple[str, ...] = ()
    return_tags: Value = BOTTOM
    passthrough: FrozenSet[str] = frozenset()
    rng_like_params: FrozenSet[str] = frozenset()

    def bind(self, args: Sequence[Value], kwargs: Dict[str, Value]) -> Value:
        """The return value's tags for one concrete call.

        Positional arguments map onto ``params`` by position; unmatched
        positionals (e.g. ``*args`` overflow) conservatively count as
        passthrough only if *any* parameter is passthrough.
        """
        out = set(self.return_tags)
        bound: Dict[str, Value] = {}
        for index, arg_value in enumerate(args):
            if index < len(self.params):
                bound[self.params[index]] = arg_value
        bound.update(kwargs)
        for name, arg_value in bound.items():
            if name in self.passthrough:
                out.update(arg_value)
            else:
                out.update(broad_taints(arg_value))
        for index, arg_value in enumerate(args):
            if index >= len(self.params):
                out.update(broad_taints(arg_value))
        return frozenset(out)


#: Names of parameters treated as seed material by convention (RL602).
RNG_PARAM_NAMES = frozenset(
    {
        "rng",
        "seed",
        "generator",
        "calibration_rng",
        "root_seed",
        "root_entropy",
        "rng_like",
        "random_state",
    }
)

#: Dotted annotation names that mark a parameter as seed material.
RNG_PARAM_ANNOTATIONS = frozenset(
    {
        "repro.rng.RngLike",
        "RngLike",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
    }
)


def _rng(origin: str, derivation: str = DERIVATION_ROOT, seeded: bool = True) -> Value:
    return frozenset({RngTag(origin=origin, derivation=derivation, seeded=seeded)})


#: Hand-written models of the external RNG surface, by canonical name.
#: ``ensure_rng`` is modelled in :mod:`.intra` (its behaviour depends on
#: the argument's tags); the entries here are the position-independent
#: ones.
BUILTIN_SUMMARIES: Dict[str, FunctionSummary] = {
    "repro.rng.spawn_streams": FunctionSummary(
        qualname="repro.rng.spawn_streams",
        params=("rng", "count"),
        return_tags=_rng("repro.rng.spawn_streams", DERIVATION_SPAWNED),
        rng_like_params=frozenset({"rng"}),
    ),
    "repro.rng.stream_for_player": FunctionSummary(
        qualname="repro.rng.stream_for_player",
        params=("root_seed", "player_index"),
        return_tags=_rng("repro.rng.stream_for_player", DERIVATION_SPAWNED),
        rng_like_params=frozenset({"root_seed"}),
    ),
    # Shared randomness is the one API that *deliberately* replicates a
    # stream — distributing its result across tasks is exactly RL601.
    "repro.rng.shared_randomness": FunctionSummary(
        qualname="repro.rng.shared_randomness",
        params=("rng", "num_players"),
        return_tags=_rng("repro.rng.shared_randomness", DERIVATION_ROOT),
        rng_like_params=frozenset({"rng"}),
    ),
    "repro.engine.executor.block_seed": FunctionSummary(
        qualname="repro.engine.executor.block_seed",
        params=("root_entropy", "block_index"),
        return_tags=_rng("repro.engine.executor.block_seed", DERIVATION_SPAWNED),
        rng_like_params=frozenset({"root_entropy"}),
    ),
    "repro.engine.block_seed": FunctionSummary(
        qualname="repro.engine.block_seed",
        params=("root_entropy", "block_index"),
        return_tags=_rng("repro.engine.block_seed", DERIVATION_SPAWNED),
        rng_like_params=frozenset({"root_entropy"}),
    ),
    # Returns an *int* carrying the caller's seed lineage (the ParamTag
    # flows through as a broad taint automatically) but deliberately NOT
    # the stream itself: multiplexing the derived entropy integer across
    # task payloads is the engine's documented, replay-safe protocol.
    "repro.engine.executor.derive_root_entropy": FunctionSummary(
        qualname="repro.engine.executor.derive_root_entropy",
        params=("rng",),
        rng_like_params=frozenset({"rng"}),
    ),
    "repro.engine.derive_root_entropy": FunctionSummary(
        qualname="repro.engine.derive_root_entropy",
        params=("rng",),
        rng_like_params=frozenset({"rng"}),
    ),
}


def builtin_summary(qualname: Optional[str]) -> Optional[FunctionSummary]:
    """The hand-written model for a canonical dotted name, if any."""
    if qualname is None:
        return None
    return BUILTIN_SUMMARIES.get(qualname)


def merge_summaries(
    old: FunctionSummary, new: FunctionSummary
) -> Tuple[FunctionSummary, bool]:
    """Monotone join of two summaries for the same function.

    Returns ``(merged, changed)`` — the fixpoint loop in
    :mod:`.solver` iterates until no summary changes.
    """
    return_tags = join(old.return_tags, new.return_tags)
    passthrough = old.passthrough | new.passthrough
    rng_like = old.rng_like_params | new.rng_like_params
    merged = FunctionSummary(
        qualname=old.qualname,
        params=new.params or old.params,
        return_tags=return_tags,
        passthrough=passthrough,
        rng_like_params=rng_like,
    )
    changed = (
        return_tags != old.return_tags
        or passthrough != old.passthrough
        or rng_like != old.rng_like_params
    )
    return merged, changed


"""The simultaneous-message protocol simulator.

This is the model of Section 2: ``k`` players each draw ``q`` i.i.d.
samples from the unknown distribution, apply their strategy to produce one
bit, and a referee applies a decision rule to the k bits.  The simulator
supports:

* exact per-run transcripts (:class:`ProtocolOutcome`) for debugging and
  unit tests;
* a fully vectorised Monte Carlo path: the protocol is a native
  :class:`~repro.engine.kernels.AcceptKernel`, and
  :meth:`SimultaneousProtocol.bits_block` — the one owner of the draw
  order — simulates a whole RNG block of executions at once;
* heterogeneous players (different strategies and different sample counts,
  needed by the asymmetric-rate model of Section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence

import numpy as np

from ..distributions.discrete import DiscreteDistribution
from ..distributions.sampling import SampleOracle
from ..exceptions import DimensionMismatchError, InvalidParameterError, ProtocolError
from ..rng import RngLike, ensure_rng
from .players import PlayerStrategy
from .referees import DecisionRule


@dataclass
class Player:
    """One network node: a strategy plus a per-player sample budget."""

    strategy: PlayerStrategy
    num_samples: int

    def __post_init__(self) -> None:
        if self.num_samples < 0:
            raise InvalidParameterError(
                f"num_samples must be >= 0, got {self.num_samples}"
            )


@dataclass
class ProtocolOutcome:
    """Transcript of a single protocol execution."""

    accepted: bool
    bits: np.ndarray
    samples_drawn: int

    def __repr__(self) -> str:
        verdict = "accept" if self.accepted else "reject"
        return (
            f"ProtocolOutcome({verdict}, bits={self.bits.tolist()}, "
            f"samples_drawn={self.samples_drawn})"
        )


class SimultaneousProtocol:
    """k players → one-bit messages → referee decision.

    Parameters
    ----------
    players:
        One :class:`Player` per node.  For the common homogeneous case use
        :meth:`homogeneous`.
    referee:
        The decision rule applied to the k bits.
    """

    def __init__(self, players: Sequence[Player], referee: DecisionRule):
        if len(players) == 0:
            raise InvalidParameterError("a protocol needs at least one player")
        if referee.num_players is not None and referee.num_players != len(players):
            raise DimensionMismatchError(
                f"referee expects {referee.num_players} players, got {len(players)}"
            )
        self.players = list(players)
        self.referee = referee

    @classmethod
    def homogeneous(
        cls,
        strategy: PlayerStrategy,
        num_players: int,
        num_samples: int,
        referee: DecisionRule,
    ) -> "SimultaneousProtocol":
        """All players share one strategy and one sample budget."""
        if num_players < 1:
            raise InvalidParameterError(f"num_players must be >= 1, got {num_players}")
        players = [Player(strategy, num_samples) for _ in range(num_players)]
        return cls(players, referee)

    # ------------------------------------------------------------------ #
    # properties                                                         #
    # ------------------------------------------------------------------ #

    @property
    def num_players(self) -> int:
        """k — the network width."""
        return len(self.players)

    @property
    def total_samples(self) -> int:
        """Total samples drawn across the network per execution."""
        return sum(player.num_samples for player in self.players)

    @property
    def is_homogeneous(self) -> bool:
        """Whether all players share a strategy object and sample count."""
        first = self.players[0]
        return all(
            player.strategy is first.strategy
            and player.num_samples == first.num_samples
            for player in self.players
        )

    @property
    def elements_per_trial(self) -> int:
        """Tiling hint: samples drawn per execution."""
        return self.total_samples

    @property
    def cache_token(self) -> Dict[str, Any]:
        """Exact identity composed of the player and referee tokens.

        The layout is part of the identity: a homogeneous protocol draws
        one sample matrix for all players, a heterogeneous one draws per
        player, so equal parameters under the two layouts are distinct
        computations.
        """
        from ..engine import KERNEL_SCHEMA_VERSION

        token: Dict[str, Any] = {
            "schema": KERNEL_SCHEMA_VERSION,
            "kind": "protocol",
            "class": type(self).__name__,
            "kernel_version": 1,
            "referee": self.referee.cache_token,
        }
        if self.is_homogeneous:
            first = self.players[0]
            token["homogeneous"] = {
                "k": self.num_players,
                "q": first.num_samples,
                "strategy": first.strategy.cache_token,
            }
        else:
            token["players"] = [
                {"q": player.num_samples, "strategy": player.strategy.cache_token}
                for player in self.players
            ]
        return token

    # ------------------------------------------------------------------ #
    # execution                                                          #
    # ------------------------------------------------------------------ #

    def bits_block(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        """(trials × k) player bits for one RNG block.

        The single owner of the protocol's draw order: a homogeneous
        protocol draws one ``(trials·k) × q`` sample matrix and answers it
        with one ``respond_batch``; a heterogeneous one draws and answers
        player by player.
        """
        generator = ensure_rng(rng)
        k = self.num_players
        if self.is_homogeneous:
            first = self.players[0]
            samples = distribution.sample_matrix(
                trials * k, first.num_samples, generator
            )
            return first.strategy.respond_batch(samples, generator).reshape(trials, k)
        bits = np.empty((trials, k), dtype=np.int64)
        for index, player in enumerate(self.players):
            samples = distribution.sample_matrix(trials, player.num_samples, generator)
            bits[:, index] = player.strategy.respond_batch(samples, generator)
        return bits

    def accept_block(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        """Single-tile kernel: one block of bits, then the referee."""
        bits = self.bits_block(distribution, trials, rng)
        return np.asarray(self.referee.decide_batch(bits), dtype=bool)

    def run_once(
        self, distribution: DiscreteDistribution, rng: RngLike = None
    ) -> ProtocolOutcome:
        """Execute the protocol once against a live distribution."""
        generator = ensure_rng(rng)
        bits = np.empty(self.num_players, dtype=np.int64)
        drawn = 0
        for index, player in enumerate(self.players):
            samples = distribution.sample(player.num_samples, generator)
            drawn += player.num_samples
            bits[index] = player.strategy.respond(samples, generator)
        return ProtocolOutcome(
            accepted=self.referee.decide(bits), bits=bits, samples_drawn=drawn
        )

    def run_with_oracles(
        self, oracles: Sequence[SampleOracle], rng: RngLike = None
    ) -> ProtocolOutcome:
        """Execute against explicit per-player oracles (budget-metered)."""
        if len(oracles) != self.num_players:
            raise ProtocolError(
                f"need {self.num_players} oracles, got {len(oracles)}"
            )
        generator = ensure_rng(rng)
        bits = np.empty(self.num_players, dtype=np.int64)
        drawn = 0
        for index, (player, oracle) in enumerate(zip(self.players, oracles)):
            samples = oracle.draw(player.num_samples)
            drawn += player.num_samples
            bits[index] = player.strategy.respond(samples, generator)
        return ProtocolOutcome(
            accepted=self.referee.decide(bits), bits=bits, samples_drawn=drawn
        )

    def run_batch(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        """Boolean accept vector over ``trials`` independent executions.

        Execution is delegated to the Monte Carlo engine
        (:func:`repro.engine.chunked_accepts`): trials are cut into
        memory-bounded tiles with per-block spawned generators, so the
        result is bit-identical across backends and tile sizes, and the
        full ``trials·k × q`` sample tensor never has to fit in RAM.
        """
        if trials < 1:
            raise InvalidParameterError(f"trials must be >= 1, got {trials}")
        from ..engine import chunked_accepts

        return chunked_accepts(self, distribution, trials, rng)

    def acceptance_probability(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> float:
        """Monte Carlo estimate of P[referee accepts] against ``distribution``.

        Runs through :func:`repro.engine.estimate_acceptance`, on the same
        per-block kernel as :meth:`run_batch` (bit-identical under the
        same seed).
        """
        from ..engine import estimate_acceptance

        return estimate_acceptance(self, distribution, trials=trials, rng=rng).rate

    def bit_distribution(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        """Per-player empirical P[bit = 1] — the ν(G_j) of Section 4.

        Used by the divergence-accounting experiments (E12) to measure how
        much information each player's bit actually carries.  Shares the
        per-block draw order (:meth:`bits_block`) with :meth:`run_batch`.
        """
        if trials < 1:
            raise InvalidParameterError(f"trials must be >= 1, got {trials}")
        from ..engine import monte_carlo_bits

        bits = monte_carlo_bits(self, distribution, trials, rng)
        return bits.mean(axis=0)

    def __repr__(self) -> str:
        return (
            f"SimultaneousProtocol(k={self.num_players}, "
            f"total_samples={self.total_samples}, referee={self.referee.name})"
        )

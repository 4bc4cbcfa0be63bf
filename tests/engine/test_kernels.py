"""The AcceptKernel substrate: adaptation, tokens, and the entry point.

Everything that estimates an acceptance probability flows through
``estimate_acceptance`` on an :class:`~repro.engine.AcceptKernel`; these
tests pin that every tester and protocol is a native kernel (only
streaming testers are wrapped), the bit-equality of the protocol's
accept and bit-matrix paths, and the cache keying that keeps distinct
kernels from colliding.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

import repro
import repro.core
from repro.core.faults import inject_faults
from repro.core.plugins import registered_plugins
from repro.engine import (
    AcceptanceCache,
    AcceptKernel,
    BernoulliKernel,
    StreamingKernel,
    as_kernel,
    chunked_accepts,
    engine_context,
    estimate_acceptance,
    kernel_label,
    kernel_probe_key,
    monte_carlo_bits,
)
from repro.exceptions import InvalidParameterError

N, EPS = 128, 0.5


def make_protocol():
    return repro.SimultaneousProtocol.homogeneous(
        repro.GraphStatisticPlayer(repro.complete_graph(12), threshold=0),
        num_players=6,
        num_samples=12,
        referee=repro.ThresholdRule(2, num_players=6),
    )


def make_heterogeneous_protocol():
    players = [
        repro.Player(repro.GraphStatisticPlayer(repro.complete_graph(4), 0), 4),
        repro.Player(repro.core.RandomBitPlayer(0.3), 2),
        repro.Player(repro.core.SubsetMembershipPlayer([1, 0] * (N // 2)), 3),
    ]
    return repro.SimultaneousProtocol(players, repro.MajorityRule(num_players=3))


def homogeneous(strategy, referee=None, k=3, q=2):
    return repro.SimultaneousProtocol.homogeneous(
        strategy, k, q, referee or repro.MajorityRule(num_players=k)
    )


def probe_key(obj):
    return repr(
        kernel_probe_key(as_kernel(obj), repro.uniform(16), {"trials": 100}, 7)
    )


class TestAsKernel:
    def test_native_kernel_passes_through(self):
        kernel = BernoulliKernel(0.5)
        assert as_kernel(kernel) is kernel

    def test_graph_testers_are_native_kernels(self):
        """Since the comparison-graph refactor the collision tester carries
        its own cache_token and passes through as_kernel unwrapped."""
        for tester in (
            repro.CentralizedCollisionTester(N, EPS),
            repro.UniqueElementsTester(N, EPS),
            repro.ComparisonGraphTester(N, EPS, repro.cycle_graph(24)),
        ):
            assert as_kernel(tester) is tester

    def test_unadaptable_object_raises(self):
        with pytest.raises(InvalidParameterError):
            as_kernel(object())

    def test_labels_are_short_and_stable(self):
        assert kernel_label(BernoulliKernel(0.25)) == "BernoulliKernel"
        label = kernel_label(as_kernel(repro.CentralizedCollisionTester(N, EPS)))
        assert label == "CentralizedCollisionTester"


class TestNoAdapterLadder:
    """Meta-test: the adapter ladder must not grow back.  Every tester and
    protocol is its own kernel; only streaming testers get wrapped."""

    #: Exported class → a small instance (closeness is a two-sample
    #: tester whose kernel is its ``against(reference)`` view).
    BUILDERS = {
        "ComparisonGraphTester": lambda: repro.ComparisonGraphTester(
            N, EPS, repro.cycle_graph(9)
        ),
        "AmplifiedTester": lambda: repro.AmplifiedTester(
            repro.CentralizedCollisionTester(N, EPS, q=9), 3
        ),
        "CentralizedCollisionTester": lambda: repro.CentralizedCollisionTester(N, EPS),
        "ThresholdRuleTester": lambda: repro.ThresholdRuleTester(N, EPS, k=4),
        "AndRuleTester": lambda: repro.AndRuleTester(N, EPS, k=4),
        "PairwiseHashTester": lambda: repro.PairwiseHashTester(N, EPS, k=16),
        "SimulationTester": lambda: repro.SimulationTester(N, EPS, k=16),
        "ClosenessTester": lambda: repro.ClosenessTester(N, EPS).against(
            repro.uniform(N)
        ),
        "IndependenceTester": lambda: repro.IndependenceTester(8, 8, EPS, q=32),
        "MultibitThresholdTester": lambda: repro.MultibitThresholdTester(N, EPS, k=4),
        "UniqueElementsTester": lambda: repro.UniqueElementsTester(N, EPS),
        "EmpiricalDistanceTester": lambda: repro.EmpiricalDistanceTester(N, EPS),
        "LearningSuccessKernel": lambda: repro.core.LearningSuccessKernel(
            repro.core.HitCountingLearner(8, 16, 2), 0.5
        ),
        "AsymmetricRateTester": lambda: repro.AsymmetricRateTester(
            N, EPS, rates=[1.0, 2.0], tau=8.0
        ),
    }

    @staticmethod
    def _exported_kernel_classes():
        names = []
        for name in repro.core.__all__:
            obj = getattr(repro.core, name)
            if not inspect.isclass(obj) or inspect.isabstract(obj):
                continue
            if issubclass(obj, repro.core.StreamingTester):
                continue
            if issubclass(obj, repro.core.UniformityTester) or name.endswith(
                ("Tester", "Kernel")
            ):
                names.append(name)
        return sorted(names)

    def test_every_exported_tester_is_native_kernel(self):
        assert self._exported_kernel_classes() == sorted(self.BUILDERS)
        for name, build in self.BUILDERS.items():
            tester = build()
            assert as_kernel(tester) is tester, name
            assert isinstance(tester, AcceptKernel), name

    def test_chunked_tester_is_native_kernel(self):
        tester = repro.EmpiricalDistanceTester(N, EPS)
        assert as_kernel(tester) is tester
        assert isinstance(tester, AcceptKernel)

    def test_protocol_tester_is_native_kernel(self):
        tester = repro.ThresholdRuleTester(N, EPS, k=8)
        assert as_kernel(tester) is tester
        assert isinstance(tester, AcceptKernel)

    def test_raw_protocols_are_native_kernels(self):
        for protocol in (make_protocol(), make_heterogeneous_protocol()):
            assert as_kernel(protocol) is protocol
            assert isinstance(protocol, AcceptKernel)

    def test_fault_injected_copy_is_native_kernel(self):
        faulty = inject_faults(repro.ThresholdRuleTester(N, EPS, k=4), 1)
        assert as_kernel(faulty) is faulty

    def test_only_streaming_plugins_are_wrapped(self):
        for name, plugin in registered_plugins().items():
            streaming = plugin.factory(N, EPS)
            kernel = as_kernel(streaming)
            assert isinstance(kernel, StreamingKernel), name
            assert kernel.streaming is streaming, name


class TestProtocolKernelEquality:
    def test_kernel_stream_matches_run_batch(self):
        """Accept vectors and the bit-matrix path share one draw order."""
        dist = repro.two_level_distribution(N, EPS)
        for protocol in (make_protocol(), make_heterogeneous_protocol()):
            direct = protocol.run_batch(dist, 300, rng=42)
            bits = monte_carlo_bits(protocol, dist, 300, 42)
            assert np.array_equal(direct, protocol.referee.decide_batch(bits))

    def test_fixed_estimate_matches_chunked_mean(self):
        tester = repro.ThresholdRuleTester(N, EPS, k=8)
        dist = repro.uniform(N)
        estimate = estimate_acceptance(tester, dist, trials=200, rng=11)
        accepts = chunked_accepts(tester, dist, 200, 11)
        assert estimate.rate == pytest.approx(float(accepts.mean()))
        assert estimate.trials_used == 200


class TestBernoulliKernel:
    def test_rate_near_probability(self):
        estimate = estimate_acceptance(
            BernoulliKernel(0.8), None, trials=2000, rng=5
        )
        assert 0.75 < estimate.rate < 0.85

    def test_invalid_probability(self):
        with pytest.raises(InvalidParameterError):
            BernoulliKernel(1.5)


class TestCacheKeys:
    def test_distinct_kernels_sharing_parameters_do_not_collide(self):
        """The satellite: closeness / independence / network / protocol
        kernels sharing (n, q, seed) must map to distinct cache keys."""
        n, q, seed = 64, 32, 123
        closeness = repro.ClosenessTester(n, EPS, q=q)
        kernels = [
            as_kernel(repro.CentralizedCollisionTester(n, EPS, q=q)),
            closeness.against(repro.uniform(n)),
            closeness.as_uniformity_tester(),
            repro.IndependenceTester(8, 8, EPS, q=q),
            repro.NetworkUniformityTester(
                repro.network.star_topology(8), n, EPS, q=q
            ),
            repro.ThresholdRuleTester(n, EPS, k=8, q=q),
            repro.ThresholdRuleTester(n, EPS, k=8, q=q).protocol,
            inject_faults(repro.ThresholdRuleTester(n, EPS, k=8, q=q), 1),
            repro.AndRuleTester(n, EPS, k=8, q=q),
        ]
        dist = repro.uniform(n)
        keys = [
            repr(kernel_probe_key(k, dist, {"trials": 100}, seed)) for k in kernels
        ]
        assert len(set(keys)) == len(keys)

    def test_strategy_and_referee_parameters_enter_tokens(self):
        """Regression: protocols differing only in a strategy or referee
        parameter used to share one cache key (name-only fingerprints)."""
        players = repro.core.players
        pairs = [
            (players.RandomBitPlayer(0.1), players.RandomBitPlayer(0.9)),
            (players.ConstantPlayer(0), players.ConstantPlayer(1)),
            (
                players.SubsetMembershipPlayer([1, 0] * 8),
                players.SubsetMembershipPlayer([0, 1] * 8),
            ),
            (
                players.DitheredCollisionBitPlayer(1, 0.25),
                players.DitheredCollisionBitPlayer(1, 0.2504),
            ),
        ]
        for first, second in pairs:
            assert probe_key(homogeneous(first)) != probe_key(homogeneous(second))
            assert first.cache_token != second.cache_token
        weights = [
            repro.WeightedCountRule([1, 2, 3], 2.0),
            repro.WeightedCountRule([3, 2, 1], 2.0),
        ]
        coin = players.RandomBitPlayer(0.5)
        assert probe_key(homogeneous(coin, weights[0])) != probe_key(
            homogeneous(coin, weights[1])
        )
        assert weights[0].cache_token != weights[1].cache_token

    def test_protocol_layout_enters_token(self):
        """Equal players drawn as one matrix (shared strategy object) or
        per player (distinct objects) are different computations."""
        shared = repro.core.players.RandomBitPlayer(0.5)
        layouts = [
            repro.SimultaneousProtocol.homogeneous(
                shared, 3, 2, repro.MajorityRule(num_players=3)
            ),
            repro.SimultaneousProtocol(
                [
                    repro.Player(repro.core.players.RandomBitPlayer(0.5), 2)
                    for _ in range(3)
                ],
                repro.MajorityRule(num_players=3),
            ),
        ]
        assert probe_key(layouts[0]) != probe_key(layouts[1])

    def test_cached_rates_are_not_shared_across_strategy_parameters(self, tmp_path):
        low, high = (
            homogeneous(repro.core.players.RandomBitPlayer(bias), k=3, q=1)
            for bias in (0.1, 0.9)
        )
        dist = repro.uniform(16)
        uncached = [
            estimate_acceptance(protocol, dist, trials=2000, rng=7).rate
            for protocol in (low, high)
        ]
        with engine_context(cache=AcceptanceCache(str(tmp_path))):
            cached = [
                estimate_acceptance(protocol, dist, trials=2000, rng=7).rate
                for protocol in (low, high)
            ]
        assert cached == uncached
        assert uncached[0] < 0.1 < 0.9 < uncached[1]

    def test_reference_distribution_enters_closeness_key(self):
        closeness = repro.ClosenessTester(64, EPS, q=32)
        a = closeness.against(repro.uniform(64))
        b = closeness.against(repro.two_level_distribution(64, EPS))
        assert a.cache_token != b.cache_token

    def test_estimate_round_trips_through_cache(self, tmp_path):
        kernel = BernoulliKernel(0.6)
        with engine_context(cache=AcceptanceCache(str(tmp_path))):
            cold = estimate_acceptance(kernel, None, trials=500, rng=9)
            warm = estimate_acceptance(kernel, None, trials=500, rng=9)
        assert not cold.from_cache
        assert warm.from_cache
        assert warm.rate == cold.rate
        assert warm.trials_used == cold.trials_used


class TestEntryPointValidation:
    def test_requires_exactly_one_mode(self):
        kernel = BernoulliKernel(0.5)
        with pytest.raises(InvalidParameterError):
            estimate_acceptance(kernel, None)
        from repro.engine import SprtSpec

        with pytest.raises(InvalidParameterError):
            estimate_acceptance(
                kernel, None, trials=10, sprt=SprtSpec(target=0.5)
            )

    def test_trials_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            estimate_acceptance(BernoulliKernel(0.5), None, trials=0)

"""Tests for the empirical complexity search and power curves."""

from __future__ import annotations

import pytest

from repro.core import CentralizedCollisionTester, ThresholdRuleTester
from repro.distributions import two_level_distribution, uniform
from repro.exceptions import InvalidParameterError, SearchDivergedError
from repro.experiments.registry import run_experiment
from repro.lowerbounds.theorems import theorem_1_1_q_lower
from repro.stats import (
    empirical_player_complexity,
    empirical_sample_complexity,
    power_curve,
    streaming_memory_complexity_sweep,
)
from repro.stats.complexity import (
    SampleComplexityResult,
    default_far_distributions,
    success_at,
)

N, EPS = 256, 0.5


class TestSuccessAt:
    def test_strong_tester_scores_high(self):
        tester = CentralizedCollisionTester(N, EPS, q=400)
        far = [two_level_distribution(N, EPS)]
        assert success_at(tester, far, trials=200, rng=0) >= 0.7

    def test_weak_tester_scores_low(self):
        tester = CentralizedCollisionTester(N, EPS, q=4)
        far = [two_level_distribution(N, EPS)]
        assert success_at(tester, far, trials=200, rng=0) < 0.67

    def test_requires_far_distributions(self):
        tester = CentralizedCollisionTester(N, EPS)
        with pytest.raises(InvalidParameterError):
            success_at(tester, [], trials=10)

    def test_default_far_distributions_are_far(self):
        from repro.distributions import distance_to_uniform

        for dist in default_far_distributions(N, EPS, rng=0):
            assert distance_to_uniform(dist) >= EPS - 1e-9


class TestSampleComplexitySearch:
    def test_finds_reasonable_q_star(self):
        result = empirical_sample_complexity(
            lambda q: CentralizedCollisionTester(N, EPS, q=q),
            n=N,
            epsilon=EPS,
            trials=200,
            rng=0,
        )
        # Theory: Θ(√n/ε²) = Θ(64); allow generous slack either way.
        assert 16 <= result.resource_star <= 1024

    def test_result_curve_recorded(self):
        result = empirical_sample_complexity(
            lambda q: CentralizedCollisionTester(N, EPS, q=q),
            n=N,
            epsilon=EPS,
            trials=150,
            rng=0,
        )
        assert isinstance(result, SampleComplexityResult)
        assert result.resource_star in result.curve or result.curve
        assert result.bracket_high >= result.bracket_low

    @pytest.mark.parametrize("sprt", [False, True])
    def test_immediate_success_at_minimum(self, sprt):
        result = empirical_sample_complexity(
            lambda q: CentralizedCollisionTester(N, EPS, q=max(q, 600)),
            n=N,
            epsilon=EPS,
            trials=150,
            q_min=2,
            rng=0,
            sprt=sprt,
        )
        assert result.resource_star == 2
        assert (result.bracket_low, result.bracket_high) == (2, 2)
        assert sorted(result.curve) == [2]

    @pytest.mark.parametrize("sprt", [False, True])
    def test_divergence_raises(self, sprt):
        with pytest.raises(SearchDivergedError) as raised:
            empirical_sample_complexity(
                lambda q: CentralizedCollisionTester(N, EPS, q=2),  # never improves
                n=N,
                epsilon=EPS,
                trials=100,
                q_max=64,
                rng=0,
                sprt=sprt,
            )
        partial = raised.value.result
        assert partial.censored
        assert partial.resource_star == 64
        assert sorted(partial.curve) == [2, 4, 8, 16, 32, 64]

    @pytest.mark.parametrize("sprt", [False, True])
    @pytest.mark.parametrize("search", ["sample", "player"])
    @pytest.mark.parametrize("bounds", [(400, 8), (20, 10)])
    def test_inverted_bounds_rejected(self, search, sprt, bounds):
        low, high = bounds
        probed = []

        def factory(level):
            probed.append(level)
            return ThresholdRuleTester(N, EPS, max(level, 2), q=max(level, 2))

        with pytest.raises(InvalidParameterError):
            if search == "sample":
                empirical_sample_complexity(
                    factory, N, EPS, trials=50, q_min=low, q_max=high, rng=0, sprt=sprt
                )
            else:
                empirical_player_complexity(
                    factory, N, EPS, trials=50, k_min=low, k_max=high, rng=0, sprt=sprt
                )
        assert probed == []

    def test_distributed_tester_respects_theorem_bound(self):
        result = empirical_sample_complexity(
            lambda q: ThresholdRuleTester(N, EPS, k=16, q=q),
            n=N,
            epsilon=EPS,
            margin=0.0,
            rng=5,
            sprt=True,
            sprt_margin=0.05,
            sprt_max_trials=4000,
        )
        assert result.resource_star >= theorem_1_1_q_lower(N, 16, EPS)

    def test_more_players_need_fewer_samples(self):
        few = empirical_sample_complexity(
            lambda q: ThresholdRuleTester(N, EPS, 2, q=q),
            n=N,
            epsilon=EPS,
            trials=150,
            rng=0,
        )
        many = empirical_sample_complexity(
            lambda q: ThresholdRuleTester(N, EPS, 32, q=q),
            n=N,
            epsilon=EPS,
            trials=150,
            rng=0,
        )
        assert many.resource_star < few.resource_star


class TestPlayerComplexitySearch:
    def test_threshold_tester_k_search(self):
        result = empirical_player_complexity(
            lambda k: ThresholdRuleTester(N, EPS, k, q=16),
            n=N,
            epsilon=EPS,
            trials=150,
            rng=0,
        )
        assert result.resource_star >= 2

    def test_level_rounding_applied(self):
        seen = []

        def factory(k):
            seen.append(k)
            return ThresholdRuleTester(N, EPS, k, q=24)

        empirical_player_complexity(
            factory,
            n=N,
            epsilon=EPS,
            trials=100,
            rng=0,
            level_rounding=lambda k: k + (k % 2),  # force even
        )
        assert all(k % 2 == 0 for k in seen)


class TestPowerCurve:
    def test_monotone_ish_success(self):
        curve = power_curve(
            lambda q: CentralizedCollisionTester(N, EPS, q=q),
            levels=[8, 64, 512],
            n=N,
            epsilon=EPS,
            trials=200,
            rng=0,
        )
        assert curve.successes[0] < curve.successes[-1]

    def test_crossing(self):
        curve = power_curve(
            lambda q: CentralizedCollisionTester(N, EPS, q=q),
            levels=[8, 64, 512],
            n=N,
            epsilon=EPS,
            trials=200,
            rng=0,
        )
        crossing = curve.crossing(2.0 / 3.0)
        assert crossing in (64, 512)

    def test_crossing_none_when_never_reached(self):
        curve = power_curve(
            lambda q: CentralizedCollisionTester(N, EPS, q=q),
            levels=[2, 3],
            n=N,
            epsilon=EPS,
            trials=150,
            rng=0,
        )
        assert curve.crossing(0.99) is None

    def test_rejects_empty_levels(self):
        with pytest.raises(InvalidParameterError):
            power_curve(
                lambda q: CentralizedCollisionTester(N, EPS, q=q),
                levels=[],
                n=N,
                epsilon=EPS,
            )

    def test_as_rows(self):
        curve = power_curve(
            lambda q: CentralizedCollisionTester(N, EPS, q=q),
            levels=[8],
            n=N,
            epsilon=EPS,
            trials=50,
            rng=0,
            label="demo",
        )
        rows = curve.as_rows()
        assert rows[0]["level"] == 8
        assert 0.0 <= rows[0]["success"] <= 1.0


class TestSprtMode:
    def test_sprt_agrees_with_fixed_budget(self):
        factory = lambda q: CentralizedCollisionTester(N, EPS, q=q)  # noqa: E731
        fixed = empirical_sample_complexity(
            factory, N, EPS, trials=250, rng=0
        )
        sequential = empirical_sample_complexity(
            factory, N, EPS, trials=250, rng=1, sprt=True
        )
        ratio = sequential.resource_star / fixed.resource_star
        assert 1 / 3 <= ratio <= 3

    def test_sprt_search_is_deterministic(self):
        factory = lambda q: CentralizedCollisionTester(N, EPS, q=q)  # noqa: E731
        a = empirical_sample_complexity(factory, N, EPS, trials=150, rng=9, sprt=True)
        b = empirical_sample_complexity(factory, N, EPS, trials=150, rng=9, sprt=True)
        assert a.resource_star == b.resource_star
        assert a.curve == b.curve

    def test_sprt_curve_holds_probed_levels(self):
        factory = lambda q: CentralizedCollisionTester(N, EPS, q=q)  # noqa: E731
        result = empirical_sample_complexity(
            factory, N, EPS, trials=150, rng=2, sprt=True
        )
        assert result.resource_star in result.curve
        assert all(0.0 <= rate <= 1.0 for rate in result.curve.values())

    def test_sprt_player_complexity(self):
        factory = lambda k: ThresholdRuleTester(N, EPS, k=max(2, k))  # noqa: E731
        result = empirical_player_complexity(
            factory, N, EPS, trials=150, k_min=2, k_max=4096, rng=3, sprt=True
        )
        assert result.resource_star >= 2

    def test_sprt_max_trials_validation(self):
        factory = lambda q: CentralizedCollisionTester(N, EPS, q=q)  # noqa: E731
        with pytest.raises(InvalidParameterError):
            empirical_sample_complexity(
                factory, N, EPS, trials=100, rng=0, sprt=True, sprt_max_trials=0
            )


class TestGraphFamilySweep:
    def test_families_share_probes_and_are_deterministic(self):
        from repro.stats import graph_family_complexity_sweep

        a = graph_family_complexity_sweep(
            ["complete", "matching"], 64, 0.6, trials=120, rng=4, sprt=True
        )
        b = graph_family_complexity_sweep(
            ["complete", "matching"], 64, 0.6, trials=120, rng=4, sprt=True
        )
        assert list(a) == ["complete", "matching"]
        for family in a:
            assert a[family].resource_star == b[family].resource_star
            assert a[family].curve == b[family].curve
        # Dense K_q beats the pairwise-disjoint matching at equal (n, ε).
        assert a["complete"].resource_star <= a["matching"].resource_star

    def test_per_family_run_matches_standalone_search(self):
        from repro.core.graphs import graph_tester_factory
        from repro.stats import (
            empirical_sample_complexity,
            graph_family_complexity_sweep,
        )

        swept = graph_family_complexity_sweep(
            ["cycle"], 64, 0.6, trials=120, rng=7, sprt=True
        )["cycle"]
        from repro.engine import derive_root_entropy

        alone = empirical_sample_complexity(
            graph_tester_factory("cycle", 64, 0.6),
            n=64,
            epsilon=0.6,
            trials=120,
            rng=derive_root_entropy(7),
            sprt=True,
        )
        assert swept.resource_star == alone.resource_star
        assert swept.curve == alone.curve

    def test_rejects_empty_family_list(self):
        from repro.stats import graph_family_complexity_sweep

        with pytest.raises(InvalidParameterError):
            graph_family_complexity_sweep([], 64, 0.6)


class TestStreamingMemorySweep:
    def test_censored_budget_keeps_probed_curve(self):
        result = streaming_memory_complexity_sweep(
            [16], 64, 0.6, trials=40, q_max=256, rng=0, calibration_trials=300
        )["b16"]
        assert result.censored
        assert result.resource_star == 256
        assert sorted(result.curve) == [2, 4, 8, 16, 32, 64, 128, 256]
        assert all(rate < result.target for rate in result.curve.values())


def _pin(result):
    return (
        result.resource_star,
        result.bracket_low,
        result.bracket_high,
        sorted(result.curve.items()),
    )


class TestSearchPins:
    """Exact search outcomes, recorded before the bracket-and-bisect
    skeleton was shared by the fixed-budget, SPRT and e04 searches."""

    SAMPLE = {
        False: (72, 68, 72, [
            (2, 0.025000000000000022), (4, 0.07499999999999996),
            (8, 0.3833333333333333), (16, 0.375), (32, 0.6), (64, 0.65),
            (68, 0.6166666666666667), (72, 0.7333333333333334), (80, 0.725),
            (96, 0.75), (128, 0.8),
        ]),
        True: (88, 80, 88, [
            (2, 0.0625), (4, 0.09375), (8, 0.6510416666666666),
            (16, 0.453125), (32, 0.6875), (64, 0.6666666666666667),
            (80, 0.7020833333333334), (88, 0.7578125), (96, 0.75),
            (128, 0.828125),
        ]),
    }
    PLAYER = {
        False: (128, 112, 128, [
            (2, 0.375), (4, 0.55), (8, 0.42500000000000004), (16, 0.55),
            (32, 0.6083333333333334), (64, 0.6666666666666667), (96, 0.675),
            (112, 0.6083333333333333), (128, 0.7583333333333333),
        ]),
        True: (128, 112, 128, [
            (2, 0.40625), (4, 0.5234375), (8, 0.578125), (16, 0.53125),
            (32, 0.6328125), (64, 0.70625), (96, 0.671875),
            (112, 0.6171875), (128, 0.7552083333333334),
        ]),
    }

    @pytest.mark.parametrize("sprt", [False, True])
    def test_sample_search(self, sprt):
        result = empirical_sample_complexity(
            lambda q: CentralizedCollisionTester(64, 0.5, q=q),
            64, 0.5, trials=120, rng=11, sprt=sprt,
        )
        assert _pin(result) == self.SAMPLE[sprt]

    @pytest.mark.parametrize("sprt", [False, True])
    def test_player_search(self, sprt):
        result = empirical_player_complexity(
            lambda k: ThresholdRuleTester(64, 0.5, k, q=8),
            64, 0.5, trials=120, rng=12, sprt=sprt,
            level_rounding=lambda k: k + (k % 2),
        )
        assert _pin(result) == self.PLAYER[sprt]

    def test_e04_k_star(self):
        rows = run_experiment("e04", "smoke", seed=0).rows
        assert [row["k_star"] for row in rows] == [256, 288, 144]

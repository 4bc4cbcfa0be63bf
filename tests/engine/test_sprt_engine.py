"""Block-granular SPRT: bit-deterministic early stopping.

The engine's sequential mode only stops or continues at RNG-block
boundaries, so the verdict *and* the number of trials consumed are pure
functions of (kernel, distribution, spec, root seed) — never of the
backend, the worker count, or the tile size.  These tests pin that
contract on the calibrated :class:`~repro.engine.BernoulliKernel` (whose
true acceptance probability is known exactly) and on a real tester.
"""

from __future__ import annotations

import pytest

import repro
from repro.engine import (
    RNG_BLOCK_TRIALS,
    BernoulliKernel,
    ProcessPoolBackend,
    SerialBackend,
    SprtSpec,
    engine_context,
    estimate_acceptance,
)
from repro.exceptions import InvalidParameterError


def fingerprint(estimate):
    return (
        estimate.decided_above,
        estimate.trials_used,
        estimate.successes,
        estimate.log_likelihood_ratio,
        estimate.stopped_early,
    )


@pytest.fixture(scope="module")
def pools():
    backends = [ProcessPoolBackend(max_workers=2), ProcessPoolBackend(max_workers=4)]
    yield backends
    for backend in backends:
        backend.close()


class TestDeterminism:
    @pytest.mark.parametrize("probability", [0.9, 0.5, 0.1])
    def test_worker_count_invariance(self, pools, probability):
        """Same seed ⇒ identical (verdict, trials_used) under 1/2/4 workers."""
        kernel = BernoulliKernel(probability)
        spec = SprtSpec(target=2.0 / 3.0, max_trials=4000)
        with engine_context(backend=SerialBackend()):
            baseline = fingerprint(
                estimate_acceptance(kernel, None, sprt=spec, rng=21)
            )
        for backend in pools:
            with engine_context(backend=backend):
                parallel = fingerprint(
                    estimate_acceptance(kernel, None, sprt=spec, rng=21)
                )
            assert parallel == baseline, backend

    @pytest.mark.parametrize("max_elements", [64, 777, 10_000, 10**7])
    def test_tile_size_invariance(self, max_elements):
        kernel = BernoulliKernel(0.72)
        spec = SprtSpec(target=2.0 / 3.0, max_trials=4000)
        baseline = fingerprint(estimate_acceptance(kernel, None, sprt=spec, rng=3))
        with engine_context(max_elements=max_elements):
            chunked = fingerprint(
                estimate_acceptance(kernel, None, sprt=spec, rng=3)
            )
        assert chunked == baseline, max_elements

    def test_real_tester_worker_invariance(self, pools):
        tester = repro.CentralizedCollisionTester(128, 0.5)
        far = repro.two_level_distribution(128, 0.5)
        spec = SprtSpec(target=1.0 / 3.0, max_trials=2000)
        with engine_context(backend=SerialBackend(), max_elements=50_000):
            baseline = fingerprint(
                estimate_acceptance(tester, far, sprt=spec, rng=8)
            )
        for backend in pools:
            with engine_context(backend=backend, max_elements=50_000):
                parallel = fingerprint(
                    estimate_acceptance(tester, far, sprt=spec, rng=8)
                )
            assert parallel == baseline

    def test_trials_used_is_block_multiple_or_cap(self):
        spec = SprtSpec(target=0.5, max_trials=4000)
        for seed, probability in [(0, 0.95), (1, 0.05), (2, 0.55)]:
            estimate = estimate_acceptance(
                BernoulliKernel(probability), None, sprt=spec, rng=seed
            )
            assert (
                estimate.trials_used % RNG_BLOCK_TRIALS == 0
                or estimate.trials_used == spec.max_trials
            )
            assert estimate.trials_used <= spec.max_trials


class TestCalibration:
    def test_easy_cases_stop_early_and_correctly(self):
        """Far-from-target kernels resolve in few blocks, right verdict."""
        spec = SprtSpec(target=2.0 / 3.0, margin=0.05, max_trials=8000)
        for seed in range(10):
            high = estimate_acceptance(
                BernoulliKernel(0.95), None, sprt=spec, rng=seed
            )
            assert high.decided_above is True
            assert high.stopped_early
            assert high.trials_used <= 10 * RNG_BLOCK_TRIALS
            low = estimate_acceptance(
                BernoulliKernel(0.05), None, sprt=spec, rng=seed
            )
            assert low.decided_above is False
            assert low.stopped_early
            assert low.trials_used <= 10 * RNG_BLOCK_TRIALS

    def test_easy_calls_cheaper_than_hard(self):
        """A rate far above the target stops sooner than one just above it."""
        spec = SprtSpec(target=0.66, margin=0.05, max_trials=4000)
        easy = estimate_acceptance(BernoulliKernel(0.95), None, sprt=spec, rng=2)
        hard = estimate_acceptance(BernoulliKernel(0.70), None, sprt=spec, rng=3)
        assert easy.trials_used < hard.trials_used

    def test_agreement_with_fixed_budget_on_calibrated_fixtures(self):
        """SPRT verdicts match the known ground truth within error rates."""
        spec = SprtSpec(target=0.5, margin=0.1, error_rate=0.05, max_trials=4000)
        wrong = 0
        cases = [(0.75, True), (0.25, False)]
        trials = 40
        for probability, truth in cases:
            for seed in range(trials):
                estimate = estimate_acceptance(
                    BernoulliKernel(probability), None, sprt=spec, rng=seed
                )
                wrong += estimate.decided_above is not truth
        # 80 decisions at nominal error 5%: 12 wrong is far outside range.
        assert wrong <= 12

    def test_cap_forces_llr_sign_decision(self):
        """At max_trials the LLR sign decides and stopped_early is False."""
        spec = SprtSpec(
            target=0.5, margin=0.01, error_rate=0.01, max_trials=RNG_BLOCK_TRIALS
        )
        estimate = estimate_acceptance(
            BernoulliKernel(0.5), None, sprt=spec, rng=13
        )
        assert estimate.trials_used == RNG_BLOCK_TRIALS
        assert not estimate.stopped_early
        assert estimate.decided_above is (estimate.log_likelihood_ratio > 0)


class TestSprtSpec:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SprtSpec(target=0.0)
        with pytest.raises(InvalidParameterError):
            SprtSpec(target=0.5, margin=0.6)
        with pytest.raises(InvalidParameterError):
            SprtSpec(target=0.5, error_rate=0.5)
        with pytest.raises(InvalidParameterError):
            SprtSpec(target=0.5, max_trials=0)

    def test_steps_have_expected_signs(self):
        spec = SprtSpec(target=0.5, margin=0.1)
        assert spec.success_step > 0
        assert spec.failure_step < 0
        assert spec.boundary > 0

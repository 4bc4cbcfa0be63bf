"""Differential tests: the guide-table sampler vs the binary-search oracle.

:meth:`DiscreteDistribution.sample` looks each uniform up through a
cutpoint table and a capped vectorised advance; it must return exactly
the int64 array :func:`~repro.core.oracles.discrete_sample_reference`
(plain ``searchsorted`` on the same cumulative vector) returns from an
identically seeded generator, on every pmf shape — including adversarial
uniforms that sit exactly on bucket edges and cumulative boundaries.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oracles import discrete_sample_reference
from repro.distributions import (
    DiscreteDistribution,
    dirichlet_distribution,
    point_mass,
    two_level_distribution,
    uniform,
    zipf_distribution,
)
from repro.distributions.discrete import (
    _MAX_ADVANCE_ROUNDS,
    _guide_lookup,
    _guide_table,
)


def _tables(dist):
    dist.sample(1, 0)
    return dist._cumulative, dist._guide


def _assert_matches_oracle(dist, size=20_000, seed=11):
    drawn = dist.sample(size, np.random.default_rng(seed))
    expected = discrete_sample_reference(dist, size, np.random.default_rng(seed))
    assert drawn.dtype == np.int64
    np.testing.assert_array_equal(drawn, expected)


def _edge_pmf():
    """n = 8 (guide size m = 16) with every cumulative sum on a bucket edge."""
    return DiscreteDistribution(np.array([1, 3, 2, 1, 4, 1, 2, 2]) / 16.0)


def _interior_zeros():
    pmf = np.zeros(12)
    pmf[[0, 4, 5, 11]] = [0.1, 0.3, 0.2, 0.4]
    return DiscreteDistribution(pmf)


CASES = {
    **{f"uniform-{n}": uniform(n) for n in (1, 2, 3, 256, 1024, 65536)},
    "two-level-plus": two_level_distribution(1000, 0.5),
    "two-level-near-one": two_level_distribution(4096, 0.99),
    "dirichlet-0.3": dirichlet_distribution(4096, 0.3, rng=5),
    "zipf": zipf_distribution(5000, 1.2),
    "point-mass-first": point_mass(64, 0),
    "point-mass-last": point_mass(64, 63),
    "point-mass-one": point_mass(1, 0),
    "padded-zero-tail": two_level_distribution(10, 0.4).padded_to(33),
    "interior-zeros": _interior_zeros(),
    "bucket-edges": _edge_pmf(),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_sample_matches_searchsorted_oracle(name):
    _assert_matches_oracle(CASES[name])


@pytest.mark.parametrize("name", sorted(CASES))
def test_repeated_calls_continue_the_same_stream(name):
    dist = CASES[name]
    rng = np.random.default_rng(2)
    drawn = np.concatenate([dist.sample(size, rng) for size in (1, 999, 5000)])
    expected = discrete_sample_reference(dist, 6000, np.random.default_rng(2))
    np.testing.assert_array_equal(drawn, expected)


def test_sample_matrix_matches_oracle():
    dist = two_level_distribution(256, 0.3)
    matrix = dist.sample_matrix(40, 17, np.random.default_rng(9))
    expected = discrete_sample_reference(dist, 40 * 17, np.random.default_rng(9))
    np.testing.assert_array_equal(matrix, expected.reshape(40, 17))


def test_padded_draws_equal_unpadded_draws():
    base = two_level_distribution(10, 0.4)
    np.testing.assert_array_equal(
        base.padded_to(33).sample(5000, 4), base.sample(5000, 4)
    )


def test_guide_size_is_a_power_of_two_in_2n_to_4n():
    for n in (1, 2, 3, 7, 8, 9, 1000, 1024, 1025):
        cumulative, guide = _tables(uniform(n))
        m = guide.size
        assert m & (m - 1) == 0
        assert 2 * n <= m < 4 * n
        assert guide.dtype == np.int64
        # cutpoints never overshoot: cum[guide[j] - 1] <= j/m < cum[guide[j]]
        edges = np.arange(m) / m
        assert np.all(cumulative[guide] > edges)
        below = guide > 0
        assert np.all(cumulative[guide[below] - 1] <= edges[below])


def _adversarial_uniforms(cumulative, m):
    edges = np.arange(m) / m
    inner = cumulative[:-1]
    values = np.concatenate(
        [[0.0], edges, inner, np.nextafter(inner, 0.0), np.nextafter(inner, 1.0),
         np.nextafter(edges[1:], 0.0), [np.nextafter(1.0, 0.0)]]
    )
    return values[(values >= 0.0) & (values < 1.0)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_lookup_on_adversarial_uniforms(name):
    """Bucket edges ``j/m``, cumulative boundaries and their neighbours."""
    cumulative, guide = _tables(CASES[name])
    uniforms = _adversarial_uniforms(cumulative, guide.size)
    indices, rounds, _ = _guide_lookup(cumulative, guide, uniforms)
    expected = np.searchsorted(cumulative, uniforms, side="right")
    np.testing.assert_array_equal(indices, expected)
    assert 1 <= rounds <= _MAX_ADVANCE_ROUNDS


def _packed_tiny_atoms(n=65_536):
    """Two heavy atoms around ``n - 2`` near-zero ones: every tiny atom's
    cumulative boundary falls in the single guide bucket holding 0.5."""
    pmf = np.full(n, 1e-12)
    pmf[0] = pmf[-1] = 0.5
    return DiscreteDistribution(pmf, normalize=True)


def test_packed_bucket_stops_at_round_cap():
    dist = _packed_tiny_atoms()
    cumulative, guide = _tables(dist)
    m = guide.size
    # every uniform in the packed bucket is > 60k advances from its cutpoint
    uniforms = 0.5 + np.random.default_rng(0).random(10_000) / m
    indices, rounds, tail = _guide_lookup(cumulative, guide, uniforms)
    np.testing.assert_array_equal(
        indices, np.searchsorted(cumulative, uniforms, side="right")
    )
    assert rounds == _MAX_ADVANCE_ROUNDS
    assert tail > 0
    assert int((indices - guide[(uniforms * m).astype(np.intp)]).max()) > _MAX_ADVANCE_ROUNDS


def test_packed_distribution_matches_oracle():
    _assert_matches_oracle(_packed_tiny_atoms(), size=400_000, seed=1)


def test_advance_resolves_short_runs_without_the_tail():
    """A bucket with fewer interior boundaries than the cap is finished by
    the vectorised advance alone: each element moves one atom per round."""
    steps = _MAX_ADVANCE_ROUNDS - 1
    pmf = np.array([0.5] + [1e-4] * steps + [0.5 - 1e-4 * steps])
    cumulative, guide = _tables(DiscreteDistribution(pmf))
    uniforms = 0.5 + 1e-4 * np.arange(steps + 1) + 5e-5
    indices, rounds, tail = _guide_lookup(cumulative, guide, uniforms)
    np.testing.assert_array_equal(indices, np.arange(1, steps + 2))
    assert rounds == _MAX_ADVANCE_ROUNDS
    assert tail == 0


def test_uniform_lookup_needs_no_tail():
    cumulative, guide = _tables(uniform(1000))
    uniforms = np.random.default_rng(0).random(100_000)
    _, rounds, tail = _guide_lookup(cumulative, guide, uniforms)
    assert tail == 0
    assert rounds <= _MAX_ADVANCE_ROUNDS


def test_guide_table_is_read_only_and_matches_definition():
    cumulative, _ = _tables(zipf_distribution(300, 1.0))
    guide = _guide_table(cumulative)
    m = guide.size
    np.testing.assert_array_equal(
        guide, np.searchsorted(cumulative, np.arange(m) / m, side="right")
    )
    assert not guide.flags.writeable


@pytest.mark.parametrize("sample_first", [False, True])
def test_pickled_distribution_samples_identically(sample_first):
    """Backends ship distributions by pickle, often after the parent has
    sampled them (so the cumulative vector and guide travel along)."""
    dist = two_level_distribution(1000, 0.5)
    if sample_first:
        dist.sample(10, 0)
    clone = pickle.loads(pickle.dumps(dist, protocol=pickle.HIGHEST_PROTOCOL))
    assert clone == dist
    if sample_first:
        np.testing.assert_array_equal(clone._guide, dist._guide)
    np.testing.assert_array_equal(clone.sample(5000, 8), dist.sample(5000, 8))
    np.testing.assert_array_equal(
        clone.sample(5000, 8), discrete_sample_reference(dist, 5000, 8)
    )


@st.composite
def _pmfs(draw):
    n = draw(st.integers(min_value=1, max_value=300))
    weights = draw(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=1e-15, max_value=1e-9),
            ),
            min_size=n,
            max_size=n,
        )
    )
    weights[draw(st.integers(min_value=0, max_value=n - 1))] += 1.0
    return DiscreteDistribution(weights, normalize=True)


@settings(max_examples=80, deadline=None)
@given(dist=_pmfs(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_sample_equals_oracle(dist, seed):
    _assert_matches_oracle(dist, size=2000, seed=seed)
    cumulative, guide = _tables(dist)
    uniforms = _adversarial_uniforms(cumulative, guide.size)
    indices, _, _ = _guide_lookup(cumulative, guide, uniforms)
    np.testing.assert_array_equal(
        indices, np.searchsorted(cumulative, uniforms, side="right")
    )

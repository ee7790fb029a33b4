import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from geocache import ParameterError, PopularityDistribution, from_probs, load_popularity, zipf


def test_zipf_uniform_when_flat():
    pop = zipf(4, 0.0)
    np.testing.assert_allclose(pop.probs, [0.25, 0.25, 0.25, 0.25])


def test_zipf_two_items():
    pop = zipf(2, 1.0)
    np.testing.assert_allclose(pop.probs, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-15)


def test_zipf_catalog40_top_probability():
    # direct-summation oracle: A = sum_{j=1}^{40} j^-0.9
    A = math.fsum(j**-0.9 for j in range(1, 41))
    pop = zipf(40, 0.9)
    assert pop.probs[0] == pytest.approx(1.0 / A, rel=1e-14)
    assert pop.probs[0] == pytest.approx(0.19805312735471498, rel=1e-12)


@given(
    J=st.integers(min_value=1, max_value=60),
    gamma=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    cut=st.integers(min_value=0, max_value=60),
)
def test_mass_partition_identity(J, gamma, cut):
    # the solvers read interval masses A([k, l]) as prefix[l] - prefix[k - 1]
    pop = zipf(J, gamma)
    x = min(cut, J)
    head, rest = pop.prefix[x] - pop.prefix[0], pop.prefix[J] - pop.prefix[x]
    assert head == pytest.approx(math.fsum(pop.probs[:x].tolist()), abs=1e-12)
    assert head + rest == pytest.approx(1.0, abs=1e-12)


@given(
    J=st.integers(min_value=2, max_value=40),
    g1=st.floats(min_value=0.0, max_value=2.0),
    g2=st.floats(min_value=0.0, max_value=2.0),
)
def test_zipf_steeper_exponent_raises_top_probability(J, g1, g2):
    lo, hi = sorted((g1, g2))
    assert zipf(J, hi).probs[0] >= zipf(J, lo).probs[0] - 1e-15


def test_from_probs_sorts_and_normalizes():
    with pytest.warns(UserWarning):
        pop = from_probs([1.0, 3.0, 2.0])
    np.testing.assert_allclose(pop.probs, [0.5, 1.0 / 3.0, 1.0 / 6.0], rtol=1e-14)


def test_from_probs_rejects_negative():
    with pytest.raises(ParameterError):
        from_probs([0.5, -0.1])


def test_distribution_rejects_increasing():
    with pytest.raises(ParameterError):
        PopularityDistribution(np.array([0.3, 0.7]))


def test_distribution_rejects_unnormalized():
    with pytest.raises(ParameterError):
        PopularityDistribution(np.array([0.6, 0.3]))


def test_load_popularity_json(tmp_path):
    path = tmp_path / "pop.json"
    path.write_text(json.dumps({"probs": [0.2, 0.5, 0.3]}))
    pop = load_popularity(path)
    np.testing.assert_allclose(pop.probs, [0.5, 0.3, 0.2])


def test_load_popularity_csv(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("0.5\n0.25\n0.25\n")
    pop = load_popularity(path)
    np.testing.assert_allclose(pop.probs, [0.5, 0.25, 0.25])


def test_prefix_is_derived_not_an_input():
    with pytest.raises(TypeError):
        PopularityDistribution(np.array([0.5, 0.5]), prefix=np.array([0.0, 0.5, 1.0]))
    np.testing.assert_array_equal(PopularityDistribution(np.array([0.5, 0.5])).prefix,
                                  [0.0, 0.5, 1.0])


def test_load_popularity_rejects_bad_json(tmp_path):
    path = tmp_path / "pop.json"
    path.write_text(json.dumps({"values": [1, 2]}))
    with pytest.raises(ParameterError):
        load_popularity(path)

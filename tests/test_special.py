"""The Cephes ports in fpfkit.special equal SciPy's ufuncs bit for bit."""

import numpy as np
import pytest
from scipy import special

from fpfkit.special import loggamma, ndtr


def _mismatches(port, reference, x):
    got, want = port(x), reference(x)
    assert got.shape == want.shape
    return x[got != want]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 0.1, 1e-3, 2.5])
def test_loggamma_table_of_counts_plus_alpha(alpha):
    # bsp tabulates log Gamma(k + alpha) for every count k of a search
    x = np.arange(10**6 + 1) + alpha
    assert _mismatches(loggamma, special.loggamma, x).size == 0


def test_loggamma_on_random_arguments():
    rng = np.random.default_rng(20)
    x = np.exp(rng.uniform(np.log(1e-3), np.log(1e6), 200_000))
    assert _mismatches(loggamma, special.loggamma, x).size == 0


def test_loggamma_at_its_branch_edges():
    # the recurrence ends at 2 and 3, the rational gives way to the Stirling
    # series at 13, whose tail switches at 1000 and stops above 1e8
    edges = np.array([1.0, 2.0, 3.0, 13.0, 1000.0, 1e8, 1e10, 1e300])
    x = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    assert _mismatches(loggamma, special.loggamma, x).size == 0


def test_loggamma_returns_a_float_for_a_scalar():
    value = loggamma(7.5)
    assert type(value) is float
    assert value == special.loggamma(7.5)
    assert loggamma(np.ones((2, 3))).shape == (2, 3)


def test_ndtr_on_random_arguments():
    rng = np.random.default_rng(21)
    x = rng.uniform(-40.0, 40.0, 500_000)
    assert _mismatches(ndtr, special.ndtr, x).size == 0


def test_ndtr_at_its_branch_edges():
    # erf below |x| = 1/sqrt(2) (a/sqrt(2) on the ndtr argument), erfc with
    # P/Q from 1 and R/S from 8, underflow past exp(-MAXLOG)
    edges = np.array([0.0, 1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), 37.5, 38.5, 40.0])
    edges = np.concatenate([edges, -edges])
    x = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    x = np.concatenate([x, [np.inf, -np.inf]])
    assert _mismatches(ndtr, special.ndtr, x).size == 0
    assert np.isnan(ndtr(np.nan))


def test_ndtr_returns_a_float_for_a_scalar():
    value = ndtr(-1.25)
    assert type(value) is float
    assert value == special.ndtr(-1.25)

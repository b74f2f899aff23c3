"""Shared test helpers."""

import pytest


@pytest.fixture
def mc_pvalue():
    """Chi-square goodness-of-fit p-value of an empirical law against an
    exact one, by scipy as an independent reference.  Every sampled count
    must lie in the exact support, and every expected bin must hold at
    least 5 draws."""
    from scipy.stats import chisquare

    def pvalue(exact, emp):
        support = exact.support()
        outside = set(emp.freqs) - set(support)
        assert not outside, f"sampled counts outside the exact support: {sorted(outside)}"
        expected = [float(emp.samples * exact.probability(m)) for m in support]
        assert min(expected) >= 5, f"expected bin count {min(expected)} below 5"
        observed = [emp.freqs.get(m, 0) for m in support]
        return chisquare(observed, expected).pvalue

    return pvalue

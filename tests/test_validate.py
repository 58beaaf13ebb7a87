"""The fast statistical suites, their exact references, the dependence suite, and a mutant it must catch."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from speccast import kernels
from speccast.prob import overlap
from speccast.validate import _g_bin_masses, run_suites, suite_dependence


@pytest.mark.parametrize(
    "name", ["overlap", "residual-exactness", "estimator", "bounds", "gamma-rule", "predictor-identities"]
)
def test_fast_suite_passes_at_its_defaults(name):
    ((result, _),) = run_suites([name], seed=0)
    assert result.name == name
    assert result.passed, result.failures


def test_practical_law_bin_masses_are_exact():
    # the practical-law suite's bins: p = N(0, 1), q = N(1, 1), edges at the means -/+ 8
    edges = np.linspace(-8.0, 9.0, 65)
    masses = _g_bin_masses(edges, 0.0, 1.0, 1.0)
    beta = float(overlap(1.0))
    # min(p, q) is q below the midpoint 0.5 and p above it
    edge_mass = ndtr(-0.5) - ndtr(-9.0) + ndtr(9.0) - ndtr(0.5) + (1.0 - beta) * (ndtr(9.0) - ndtr(-8.0))
    assert abs(masses.sum() - edge_mass) <= 1e-15

    def g(x):
        p, q = math.exp(-0.5 * x * x), math.exp(-0.5 * (x - 1.0) ** 2)
        return (min(p, q) + (1.0 - beta) * p) / math.sqrt(2.0 * math.pi)

    # 0.5 is an edge, so no bin straddles the kink of min(p, q)
    per_bin = [quad(g, lo, hi, epsabs=1e-15)[0] for lo, hi in zip(edges, edges[1:])]
    np.testing.assert_allclose(masses, per_bin, rtol=0, atol=1e-12)


def test_dependence_suite_passes():
    result = suite_dependence()
    assert result.passed, result.failures
    assert result.details["windows"] > 300
    for label in ("practical,sigma=0.1", "practical,sigma=1", "lossless,sigma=0.1", "lossless,sigma=1"):
        row = result.details[label]
        assert abs(row["z"]) <= 4.0
        lo, hi = row["interval"]
        assert lo <= row["mean_L"] <= hi


def test_dependence_suite_catches_a_skewed_acceptance(monkeypatch):
    # Accepting on u < 2 alpha accepts more than the heads' overlap allows,
    # so the accepted count drifts far above the sum of betas.
    scan = kernels.round_accept

    def accept_double(xs, uniforms, mus, scratch, dists, params):
        n = scan(xs, uniforms, mus, scratch, dists, params)
        if n < 0:
            return n
        alphas = kernels.acceptance_columns(dists, params)[2]
        n = 0
        while n < len(uniforms) and uniforms[n] < 2.0 * alphas[n]:
            n += 1
        return n

    monkeypatch.setattr(kernels, "round_accept", accept_double)
    result = suite_dependence()
    assert not result.passed
    assert any("SD from the sum of betas" in f for f in result.failures)

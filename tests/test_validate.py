"""The fast statistical suites, the dependence suite on engine decodes, and a mutant it must catch."""

import pytest

from speccast import kernels
from speccast.validate import run_suites, suite_dependence


@pytest.mark.parametrize("name", ["overlap", "estimator", "bounds", "gamma-rule", "predictor-identities"])
def test_fast_suite_passes_at_its_defaults(name):
    ((result, _),) = run_suites([name], seed=0)
    assert result.name == name
    assert result.passed, result.failures


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

"""Upper regularized incomplete gamma: identities and independent oracles."""

from __future__ import annotations

import math
import random

import pytest
import scipy.integrate
import scipy.special

from lodrec.special import regularized_gamma_q


def quad_gamma_q(a: float, x: float) -> float:
    """Oracle by direct numerical integration of the defining integral."""
    value, _ = scipy.integrate.quad(
        lambda t: t ** (a - 1.0) * math.exp(-t - math.lgamma(a)), x,
        math.inf)
    return value


class TestBoundaries:
    def test_at_zero(self):
        assert regularized_gamma_q(2.5, 0.0) == 1.0

    @pytest.mark.parametrize("a", [0.0, -1.0])
    def test_nonpositive_shape_rejected(self, a):
        with pytest.raises(ValueError):
            regularized_gamma_q(a, 1.0)

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            regularized_gamma_q(1.0, -0.5)


class TestIdentities:
    def test_p_plus_q_is_one(self):
        # P from scipy: the package computes only Q
        rng = random.Random(83)
        for _ in range(200):
            a = rng.uniform(0.05, 30.0)
            x = rng.uniform(0.0, 60.0)
            q = regularized_gamma_q(a, x)
            assert scipy.special.gammainc(a, x) + q == \
                pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= q <= 1.0

    def test_shape_one_is_exponential(self):
        # Q(1, x) = exp(-x): the chi-square survival function at df = 2
        for x in (0.1, 0.5, 1.0, 3.0, 10.0, 25.0):
            assert regularized_gamma_q(1.0, x) == \
                pytest.approx(math.exp(-x), rel=1e-12)

    def test_shape_half_is_erfc(self):
        # Q(1/2, x) = erfc(sqrt(x)): the chi-square case at df = 1
        for x in (0.04, 0.25, 1.0, 4.0, 9.0):
            assert regularized_gamma_q(0.5, x) == \
                pytest.approx(math.erfc(math.sqrt(x)), rel=1e-10)

    def test_monotone_in_x(self):
        xs = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
        qs = [regularized_gamma_q(3.0, x) for x in xs]
        assert qs == sorted(qs, reverse=True)


class TestOracles:
    def test_against_quadrature(self):
        # integration oracle: independent of any closed-form gamma code
        rng = random.Random(89)
        for _ in range(20):
            a = rng.uniform(0.5, 5.0)  # df <= 10 in chi-square terms
            x = rng.uniform(0.01, 50.0)
            assert regularized_gamma_q(a, x) == \
                pytest.approx(quad_gamma_q(a, x), abs=1e-6)

    def test_against_scipy_reference(self):
        rng = random.Random(97)
        for _ in range(200):
            a = rng.uniform(0.05, 40.0)
            x = rng.uniform(0.0, 80.0)
            assert regularized_gamma_q(a, x) == \
                pytest.approx(scipy.special.gammaincc(a, x), abs=1e-12)

    def test_reference_p_value(self):
        # survival value for the shipped study statistic: Q(1.5, x/2)
        p = regularized_gamma_q(1.5, 15.147057449282737 / 2.0)
        assert p == pytest.approx(0.0016951944119971305, abs=1e-12)

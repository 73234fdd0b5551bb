"""Limiting density: band sets, window masses, sech moments, moment laws."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from specdiff.density import (
    BandSet,
    band_count_slope,
    delta_m,
    mu,
    rhs_integral,
    sech_moment,
)


class TestBandSet:
    def test_sorted_descending_and_iterable(self):
        b = BandSet([0.3, 0.9, 0.5])
        assert list(b) == [0.9, 0.5, 0.3]
        assert len(b) == 3

    def test_drops_edges_at_floor(self):
        assert list(BandSet([0.5, 1e-9])) == [0.5]
        assert len(BandSet([])) == 0

    def test_rejects_edges_beyond_one(self):
        with pytest.raises(ValueError):
            BandSet([1.1])
        # roundoff just above 1 is clipped, not rejected
        assert list(BandSet([1.0 + 1e-13])) == [1.0]

    def test_rejects_negative_edges_and_drops_zero(self):
        with pytest.raises(ValueError, match="must lie in"):
            BandSet([0.5, -0.5])
        # a1 = |S - 1|/2 vanishes where S = 1: that edge is dropped, not rejected
        assert list(BandSet([0.0, 0.5])) == [0.5]

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            BandSet([np.nan])


class TestMu:
    def test_single_band_value(self):
        # a = 1, y = 1/sqrt(2): 1/(y sqrt(1 - y^2)) = 2
        assert mu(BandSet([1.0]), 1.0 / math.sqrt(2)) == pytest.approx(2.0 / math.pi**2)

    def test_vanishes_outside_bands(self):
        assert mu(BandSet([0.5]), 0.7) == 0.0

    def test_bands_superpose(self):
        b1, b2, both = BandSet([0.9]), BandSet([0.6]), BandSet([0.9, 0.6])
        y = 0.35
        assert mu(both, y) == pytest.approx(mu(b1, y) + mu(b2, y), rel=1e-14)

    def test_even(self):
        rng = np.random.default_rng(12)
        bands = BandSet(rng.uniform(0.1, 1.0, size=4))
        for y in rng.uniform(0.01, 0.99, size=50):
            assert abs(mu(bands, y) - mu(bands, -y)) < 1e-10

    def test_domain_errors(self):
        b = BandSet([0.5])
        for y in (0.0, 1.0, -1.0, 1.5, math.nan):  # nan gave 0.0
            with pytest.raises(ValueError):
                mu(b, y)


class TestBandCountSlope:
    def test_single_band_closed_form(self):
        assert band_count_slope(BandSet([0.8]), 0.4) == pytest.approx(
            math.acosh(2.0) / math.pi**2, rel=1e-14
        )

    def test_threshold_above_all_edges(self):
        assert band_count_slope(BandSet([0.8]), 0.9) == 0.0
        assert band_count_slope(BandSet([0.8]), math.inf) == 0.0

    def test_rejects_nonpositive_threshold(self):
        for b in (0.0, -0.4):
            with pytest.raises(ValueError):
                band_count_slope(BandSet([0.8]), b)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_equals_one_sided_mu_mass(self):
        # int_b^1 mu dy computed by adaptive quadrature with the band-edge
        # singularities declared as break points; quad may grumble about the
        # inverse-square-root edges but lands well inside 1e-8 regardless
        rng = np.random.default_rng(13)
        for _ in range(8):
            bands = BandSet(rng.uniform(0.05, 1.0, size=int(rng.integers(1, 5))))
            for b in (0.1, 0.3, 0.5):
                pts = [a for a in bands if b < a < 1.0]
                val, _ = integrate.quad(
                    lambda y: mu(bands, y), b, 1.0,
                    points=pts, limit=500, epsabs=1e-11, epsrel=1e-11,
                )
                assert val == pytest.approx(band_count_slope(bands, b), abs=1e-8)


class TestSechMoment:
    def test_known_values(self):
        assert sech_moment(1) == pytest.approx(math.pi, rel=1e-11)
        assert sech_moment(2) == pytest.approx(2.0, rel=1e-11)
        assert sech_moment(3) == pytest.approx(math.pi / 2.0, rel=1e-11)
        assert sech_moment(4) == pytest.approx(4.0 / 3.0, rel=1e-11)
        assert sech_moment(6) == pytest.approx(16.0 / 15.0, rel=1e-11)

    @pytest.mark.parametrize("m", [1, 1.5, 2, 2.5, 3, 4, 6, 7.3, 20, 60])
    def test_equals_the_beta_function(self, m):
        assert sech_moment(m) == pytest.approx(special.beta(m / 2.0, 0.5), rel=1e-14)

    @pytest.mark.parametrize("m", [1, 7.3, 60, 338, 339.9, 340, 341, 1000, 1e6])
    def test_recurrence_holds_across_the_series_switch(self, m):
        # int sech^(m+2) = m / (m + 1) int sech^m, by parts; m = 340 is where
        # the gamma ratio hands over to its asymptotic series
        assert sech_moment(m + 2) == pytest.approx(sech_moment(m) * m / (m + 1), rel=1e-14)

    def test_rejects_order_below_one(self):
        with pytest.raises(ValueError):
            sech_moment(0.5)


class TestDeltaM:
    def test_odd_moments_vanish(self):
        bands = BandSet([0.9, 0.4])
        assert delta_m(bands, 1) == 0.0
        assert delta_m(bands, 3) == 0.0

    def test_even_moment_single_band(self):
        assert delta_m(BandSet([0.6]), 2) == pytest.approx(0.72 / math.pi**2, rel=1e-10)

    def test_even_moment_adds_over_bands(self):
        assert delta_m(BandSet([0.9, 0.4]), 4) == pytest.approx(
            delta_m(BandSet([0.9]), 4) + delta_m(BandSet([0.4]), 4), rel=1e-12
        )

    def test_rejects_bad_order(self):
        for m in (0, -2, 1.5, True, 1.0):
            with pytest.raises(ValueError):
                delta_m(BandSet([0.5]), m)


class TestRhsIntegral:
    def test_indicator_recovers_twice_the_count_slope(self):
        bands = BandSet([0.85, 0.3])
        b = 0.2
        g = lambda y: 1.0 if abs(y) >= b else 0.0
        assert rhs_integral(bands, g, b) == pytest.approx(
            2.0 * band_count_slope(bands, b), rel=1e-9
        )

    def test_even_moment_matches_delta_m(self):
        bands = BandSet([0.7, 0.5])
        val = rhs_integral(bands, lambda y: y**2, 1e-5)
        assert val == pytest.approx(delta_m(bands, 2), abs=1e-8)

    def test_odd_integrand_cancels(self):
        bands = BandSet([0.8])
        assert abs(rhs_integral(bands, lambda y: y**3, 1e-4)) < 1e-10

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            rhs_integral(BandSet([0.5]), lambda y: y, 0.0)

    def test_a_band_below_eta_adds_nothing(self):
        # mu vanishes beyond its band edge, so a band of 0.1 has no mass above eta = 0.2
        g = lambda y: y * y * math.cos(5.0 * y)
        assert rhs_integral(BandSet([0.9, 0.1]), g, 0.2) == rhs_integral(BandSet([0.9]), g, 0.2)

    @pytest.mark.parametrize("g", [math.exp, lambda y: y * y * math.cos(5.0 * y)])
    def test_matches_quadpack_in_y(self, g):
        # independent oracle: the y-space integral of g against mu, band by
        # band, with QUADPACK's algebraic weight (a - y)^(-1/2) at the edge
        bands, eta = BandSet([0.9, 0.35]), 0.05
        expected = 0.0
        for a in bands:
            val, _ = integrate.quad(
                lambda y, a=a: a * (g(y) + g(-y)) / (y * math.sqrt(a + y)),
                eta, a, weight="alg", wvar=(0.0, -0.5), epsabs=1e-13, epsrel=1e-13,
            )
            expected += val / math.pi**2
        assert rhs_integral(bands, g, eta) == pytest.approx(expected, rel=1e-10)

    def test_jump_inside_the_bands_raises(self):
        # the composite rule cannot settle across a jump of g above eta; the
        # mass of a window (b1, b2) is rhs(1_{|y|>=b1}, b1) - rhs(1_{|y|>=b2}, b2)
        with pytest.raises(ValueError, match="did not settle"):
            rhs_integral(BandSet([0.8]), lambda y: 1.0 if abs(y) < 0.5 else 0.0, 0.2)

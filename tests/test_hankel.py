"""Model trace class: kernel, grids, factorization, symbol recovery, trace slopes."""

import math
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

from specdiff.hankel import (
    QuadratureGrid,
    default_grid,
    default_laplace_grid,
    discretize_hankel,
    gauss_legendre_grid,
    geometric_panel_grid,
    k_eps_kernel,
    k_eps_trace_exact,
    k_eps_trace_slopes,
    kernel_from_symbol,
    laplace_section,
    limit_slope,
    section_grid,
    sequence_limit,
)
from specdiff import hankel
from specdiff.profiles import builtin_profile, zeta, zeta_eps
from specdiff.quadrature import gauss_legendre, panel_rule, uniform_panels


class TestGrids:
    def test_gauss_legendre_integrates_polynomials(self):
        g = gauss_legendre_grid(0.0, 2.0, 6)
        assert np.dot(g.weights, g.nodes**3) == pytest.approx(4.0, rel=1e-13)

    def test_geometric_panels_cover_range(self):
        g = geometric_panel_grid(1e-3, 10.0, 8, 5)
        assert g.size == 40
        assert g.nodes[0] > 1e-3 and g.nodes[-1] < 10.0
        assert np.all(np.diff(g.nodes) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureGrid([1.0, 0.5], [1.0, 1.0])  # not increasing
        with pytest.raises(ValueError):
            QuadratureGrid([0.5, 1.0], [1.0, -1.0])  # negative weight
        with pytest.raises(ValueError):
            geometric_panel_grid(0.0, 1.0, 4, 4)

    def test_default_grid_spans_kernel_support(self):
        g = default_grid(1e-3)
        assert g.nodes[0] < 1e-3 and g.nodes[-1] > 1e3

    def test_section_grid_is_uniform_in_log_x(self):
        for eps, size in ((1e-2, 32), (1e-12, 112)):
            g = section_grid(eps)
            assert g.size == size
            assert eps < g.nodes[0] and g.nodes[-1] < 1.0
            # w_x / x integrates 1 over sigma = -log x in (0, |log eps|)
            assert np.sum(g.weights / g.nodes) == pytest.approx(math.log(1 / eps), rel=1e-14)


class TestKernel:
    def test_small_t_limit(self):
        assert k_eps_kernel(0.0, 0.5) == pytest.approx(0.5 / math.pi, rel=1e-12)
        assert k_eps_kernel(1e-14, 0.1) == pytest.approx(0.9 / math.pi, rel=1e-9)

    def test_value_matches_formula(self):
        t, eps = 1.0, 0.5
        expected = (math.exp(-0.5) - math.exp(-1.0)) / math.pi
        assert k_eps_kernel(t, eps) == pytest.approx(expected, rel=1e-14)

    def test_rejects_negative_t_and_bad_eps(self):
        with pytest.raises(ValueError):
            k_eps_kernel(-1.0, 0.5)
        for eps in (0.0, 1.0, 2.0):
            with pytest.raises(ValueError):
                k_eps_kernel(1.0, eps)

    def test_positive_and_decaying(self):
        t = np.geomspace(1e-6, 1e3, 200)
        vals = k_eps_kernel(t, 1e-2)
        assert np.all(vals > 0)
        assert vals[-1] < 1e-6


class TestExactTraces:
    def test_closed_forms(self):
        assert k_eps_trace_exact(1e-3, 1) == pytest.approx(math.log(1e3) / (2 * math.pi))
        eps = 1e-3
        expected = (2 * math.log1p(eps) - math.log(4 * eps)) / math.pi**2
        assert k_eps_trace_exact(eps, 2) == pytest.approx(expected, rel=1e-14)

    def test_discretization_reproduces_them(self):
        for eps in (1e-1, 1e-3):
            grid = default_grid(eps)
            w = discretize_hankel(partial(k_eps_kernel, eps=eps), grid).eigenvalues()
            assert float(np.sum(w)) == pytest.approx(k_eps_trace_exact(eps, 1), rel=1e-6)
            assert float(np.sum(w**2)) == pytest.approx(k_eps_trace_exact(eps, 2), rel=1e-6)

    def test_unknown_power_rejected(self):
        for m in (3, True, 1.0):
            with pytest.raises(ValueError):
                k_eps_trace_exact(1e-3, m)


class TestLaplaceFactorization:
    def test_reproduces_kernel_matrix(self):
        eps = 1e-2
        gt, gx = default_grid(eps), default_laplace_grid(eps)
        k = discretize_hankel(partial(k_eps_kernel, eps=eps), gt)
        sec = laplace_section(eps, gt, gx)
        assert sec.entries.shape == (gx.size, gt.size)
        err = np.max(np.abs(k.entries - (sec.entries.T @ sec.entries) / math.pi))
        assert err < 1e-8

    def test_gram_structure_makes_k_positive(self):
        eps = 1e-3
        k = discretize_hankel(partial(k_eps_kernel, eps=eps), default_grid(eps))
        assert float(k.eigenvalues()[0]) >= -1e-10

    def test_frequency_grid_must_sit_inside(self):
        gt = default_grid(1e-2)
        with pytest.raises(ValueError):
            laplace_section(1e-2, gt, geometric_panel_grid(1e-3, 0.5, 4, 4))


class TestKernelFromSymbol:
    def test_round_trip_against_closed_form(self):
        t = np.array([0.1, 0.7, 2.0, 10.0])
        for eps in (0.5, 0.1):
            omega = lambda x, e=eps: zeta_eps(x, e) - zeta(x)
            rec = kernel_from_symbol(omega, t)
            assert np.max(np.abs(rec - k_eps_kernel(t, eps))) < 1e-6

    def test_rejects_even_symbol(self):
        with pytest.raises(ValueError, match="odd"):
            kernel_from_symbol(lambda x: 1.0 / (1.0 + x**2), [1.0])

    def test_rejects_nondecaying_symbol(self):
        with pytest.raises(ValueError, match="decay"):
            kernel_from_symbol(lambda x: math.tanh(x), [1.0])

    def test_rejects_nonpositive_t(self):
        omega = lambda x: zeta_eps(x, 0.5) - zeta(x)
        with pytest.raises(ValueError):
            kernel_from_symbol(omega, [0.0])

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_t_that_is_not_finite(self, t):
        # nan gave nan and inf gave -0.0, with no error
        omega = lambda x: zeta_eps(x, 0.5) - zeta(x)
        with pytest.raises(ValueError, match="finite t > 0"):
            kernel_from_symbol(omega, [1.0, t])

    def test_imaginary_residual_check_fires(self):
        # an even bump far from the check points of _check_symbol: its
        # imaginary residual at t = 1 is 7.5e-8, above the default IMAG_TOL
        bump = lambda x: 1e-6 * np.exp(-4.0 * (np.abs(x) - 5.0) ** 2)
        omega = lambda x: zeta_eps(x, 0.5) - zeta(x) + bump(x)
        with pytest.raises(ValueError, match="imaginary residual"):
            kernel_from_symbol(omega, [1.0])

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-10])
    def test_arctan_symbol_at_small_eps(self, eps):
        # the symbol varies on the scale eps, far below any fixed difference step
        t = np.geomspace(1e-2, 1e4, 30)
        omega = lambda x: zeta_eps(x, eps) - zeta(x)
        assert np.max(np.abs(kernel_from_symbol(omega, t) - k_eps_kernel(t, eps))) < 1e-12

    @pytest.mark.parametrize("eps", [1e-3, 1e-6])
    def test_tanh_symbol_against_closed_form(self, eps):
        # omega = 2 (psi(x / eps) - psi(x)) has k(t) = (eps csch(pi eps t / 2) - csch(pi t / 2)) / 2;
        # csch(a) = -2 e^{-a} / expm1(-2a), since np.sinh overflows at large t
        psi = builtin_profile("TANH_HALF")
        csch = lambda a: -2.0 * np.exp(-a) / np.expm1(-2.0 * a)
        t = np.geomspace(1e-2, 1e4, 30)
        exact = 0.5 * (eps * csch(np.pi * eps * t / 2.0) - csch(np.pi * t / 2.0))
        recovered = kernel_from_symbol(lambda x: 2.0 * (psi(x / eps) - psi(x)), t)
        assert np.max(np.abs(recovered - exact)) < 1e-12

    @pytest.mark.parametrize("eps", [0.5, 0.1])
    def test_mollified_symbol_against_quad(self, eps):
        # by parts, with psi' = -b / (2 B) on (-1, 1), b the bump exp(-1/(1 - s^2))
        # and B its mass on (0, 1): k(t) = (int_0^1 b(s) (cos(eps t s) - cos(t s)) ds) / (pi t B)
        bump = lambda s: math.exp(-1.0 / (1.0 - s * s)) if abs(s) < 1.0 else 0.0
        mass = quad(bump, 0.0, 1.0, epsabs=1e-14)[0]

        def exact(t):
            near = quad(bump, 0.0, 1.0, weight="cos", wvar=eps * t, epsabs=1e-14)[0]
            far = quad(bump, 0.0, 1.0, weight="cos", wvar=t, epsabs=1e-14)[0]
            return (near - far) / (math.pi * t * mass)

        psi = builtin_profile("MOLLIFIED_STEP")
        t = np.linspace(0.1, 10.0, 40)
        recovered = kernel_from_symbol(lambda x: 2.0 * (psi(x / eps) - psi(x)), t)
        assert np.max(np.abs(recovered - [exact(v) for v in t])) < 2e-5

    def test_halving_the_step_moves_kernels_below_1e_13(self, monkeypatch):
        t = np.geomspace(1e-2, 1e4, 30)
        symbols = [lambda x, e=eps: zeta_eps(x, e) - zeta(x) for eps in (0.5, 1e-2, 1e-6)]
        coarse = [kernel_from_symbol(omega, t) for omega in symbols]
        monkeypatch.setattr(hankel, "DE_STEP", hankel.DE_STEP / 2.0)
        monkeypatch.setattr(hankel, "_SINE_RULE", hankel._fourier_rule(0.0, np.sin))
        monkeypatch.setattr(hankel, "_COSINE_RULE", hankel._fourier_rule(-0.5, np.cos))
        for omega, k in zip(symbols, coarse):
            assert np.max(np.abs(kernel_from_symbol(omega, t) - k)) <= 1e-13

    def test_one_call_of_the_symbol_per_t_at_961_points(self):
        sizes = []

        def omega(x):
            sizes.append(np.size(x))
            return zeta_eps(x, 0.5) - zeta(x)

        kernel_from_symbol(omega, [0.5, 2.0])
        assert sizes[-2:] == [961, 961]

    def test_no_runtime_warnings(self):
        omega = lambda x: zeta_eps(x, 0.1) - zeta(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel_from_symbol(omega, np.linspace(0.1, 10.0, 40))


class TestTraceSlopes:
    def test_slopes_match_sech_moments(self):
        res = k_eps_trace_slopes([1, 2], np.geomspace(1e-2, 1e-5, 5))
        assert res.resolution_ok
        for m in (1, 2):
            assert res.fitted[m] == pytest.approx(res.predicted[m], rel=5e-3)

    def test_traces_increase_as_eps_shrinks(self):
        res = k_eps_trace_slopes([1], np.geomspace(1e-2, 1e-4, 4))
        assert np.all(np.diff(res.traces[1]) > 0)
        assert np.all(np.diff(res.log_inv_eps) > 0)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            k_eps_trace_slopes([1], [1e-2, 1e-3])

    @pytest.mark.parametrize("powers, message", [
        ([2.5, 1], "positive integers, got 2.5"),
        ([2.0], "positive integers, got 2.0"),
        ([True], "positive integers, got True"),
        ([0], "positive integers, got 0"),
        ([2, 1, 2], "trace powers must be distinct"),
    ])
    def test_powers_are_checked_not_truncated(self, powers, message):
        with pytest.raises(ValueError, match=message):
            k_eps_trace_slopes(powers, np.geomspace(1e-2, 1e-4, 4))

    def test_coarse_grid_trips_resolution_flag(self, monkeypatch):
        monkeypatch.setattr(hankel, "section_grid", lambda eps: gauss_legendre_grid(eps, 1.0, 6))
        res = k_eps_trace_slopes([1], np.geomspace(1e-2, 1e-4, 4))
        assert not res.resolution_ok

    def test_coarse_sigma_uniform_grid_trips_resolution_flag(self, monkeypatch):
        # 2 Gauss points on width-20 panels in sigma = -log x: Tr K stays exact
        # to rounding on any sigma-uniform rule, Tr K^2 is 92% off at eps = 1e-6
        def coarse(eps):
            sigma, w = panel_rule(uniform_panels(0.0, math.log(1.0 / eps), 20.0),
                                  gauss_legendre(2))
            x = np.exp(-sigma)
            return QuadratureGrid(x[::-1], (x * w)[::-1])

        monkeypatch.setattr(hankel, "section_grid", coarse)
        res = k_eps_trace_slopes([1], [1e-6, 1e-7, 1e-8])
        exact = [k_eps_trace_exact(eps, 1) for eps in res.eps]
        np.testing.assert_allclose(res.traces[1], exact, rtol=1e-14)
        assert not res.resolution_ok

    def test_section_traces_match_nystrom_traces(self):
        powers = [1, 2, 3, 4, 6]
        eps_values = [1e-2, 1e-3, 1e-4]
        res = k_eps_trace_slopes(powers, eps_values)
        for i, eps in enumerate(res.eps):
            w = discretize_hankel(partial(k_eps_kernel, eps=eps), default_grid(eps)).eigenvalues()
            for m in powers:
                assert res.traces[m][i] == pytest.approx(float(np.sum(w ** float(m))), rel=1e-7)

    def test_section_traces_match_closed_forms(self):
        res = k_eps_trace_slopes([1, 2], np.geomspace(1e-2, 1e-12, 11))
        for m in (1, 2):
            exact = [k_eps_trace_exact(eps, m) for eps in res.eps]
            np.testing.assert_allclose(res.traces[m], exact, rtol=1e-13)


class TestLimitSlope:
    def test_converged_window_matches_law_and_fit(self):
        res = k_eps_trace_slopes([1, 2, 3, 4, 6], np.geomspace(1e-6, 1e-12, 7))
        assert res.resolution_ok
        for m, slope in res.extrapolated.items():
            assert slope == pytest.approx(res.predicted[m], rel=1e-6)
            assert slope == pytest.approx(res.fitted[m], rel=5e-4)

    def test_exact_on_geometric_tail(self):
        x = np.linspace(2.0, 8.0, 7)
        y = 0.3 * x + 1.7 - 2.5 * np.exp(-x)
        assert limit_slope(x, y) == pytest.approx(0.3, rel=1e-12)
        assert np.polyfit(x, y, 1)[0] != pytest.approx(0.3, rel=1e-3)

    def test_deepest_local_slope_when_differences_do_not_shrink(self):
        x = np.arange(5.0)
        growing = np.concatenate([[0.0], np.cumsum([1.0, 1.0, 2.0, 4.0])])  # d2/d1 = 2
        assert limit_slope(x, growing) == pytest.approx(4.0)
        alternating = np.concatenate([[0.0], np.cumsum([1.0, 1.0, 3.0, 2.0])])  # d2/d1 < 0
        assert limit_slope(x, alternating) == pytest.approx(2.0)
        constant = 0.5 * x  # d1 = 0
        assert limit_slope(x, constant) == pytest.approx(0.5)
        assert limit_slope(x[:3], growing[:3]) == pytest.approx(1.0)  # two local slopes

    def test_shallow_window_can_still_miss(self):
        res = k_eps_trace_slopes([6], np.geomspace(1e-1, 1e-4, 7))
        assert abs(res.extrapolated[6] - res.predicted[6]) > 0.02 * res.predicted[6]

    def test_sequence_limit_is_the_rule_on_any_sequence(self):
        tail = 0.7 - 2.5 * 0.4 ** np.arange(6.0)
        assert sequence_limit(tail) == pytest.approx(0.7, rel=1e-12)
        growing = [0.0, 1.0, 3.0, 7.0]  # d2/d1 = 2: the last term
        assert sequence_limit(growing) == 7.0
        assert sequence_limit([0.0, 1.0, 0.5]) == 0.5  # d2/d1 < 0
        assert sequence_limit([4.0, 3.0]) == 3.0  # fewer than three terms
        with pytest.raises(ValueError):
            sequence_limit([])

    def test_validation(self):
        with pytest.raises(ValueError):
            limit_slope([1.0], [2.0])
        with pytest.raises(ValueError):
            limit_slope([1.0, 1.0, 2.0], [0.0, 1.0, 2.0])

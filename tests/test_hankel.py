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
from specdiff.matrices import SelfAdjointMatrix, trace_powers
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
        with pytest.raises(ValueError, match="equal length"):
            QuadratureGrid([0.5, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            QuadratureGrid([0.5, np.inf], [1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            QuadratureGrid([0.5, 1.0], [1.0, np.nan])
        with pytest.raises(ValueError):
            geometric_panel_grid(0.0, 1.0, 4, 4)

    def test_default_grid_spans_kernel_support(self):
        # one 12-point panel on [0, 1], where the kernel is entire, then the tail to 50/eps
        g = default_grid(1e-3)
        head = slice(0, hankel.PANEL_POINTS)
        assert 0.0 < g.nodes[0] and g.nodes[head][-1] < 1.0 < g.nodes[hankel.PANEL_POINTS]
        assert abs(np.sum(g.weights[head]) - 1.0) <= 1e-15
        assert g.nodes[-1] > 1e3

    def test_default_grids_lay_one_module_rule(self, monkeypatch):
        # the t-grid is panel_rule on [0, 1] and the geometric panels of (1, 50/eps);
        # the x-grid is bitwise the geometric_panel_grid it used to call; no new 12-point rule
        def panels(lo, hi):
            return int(math.ceil(math.log10(hi / lo) * hankel.PANELS_PER_DECADE))

        def t_grid(eps):
            hi = 50.0 / eps
            edges = np.concatenate(([0.0], np.geomspace(1.0, hi, panels(1.0, hi) + 1)))
            return QuadratureGrid(*panel_rule(edges, gauss_legendre(12)))

        cases = [(eps, t_grid(eps),
                  geometric_panel_grid(eps, 1.0, max(2, panels(eps, 1.0)), 12))
                 for eps in (0.5, 1e-2, 1e-7)]

        def no_rule(n):
            raise AssertionError("a default grid computed its own rule")

        monkeypatch.setattr(hankel, "gauss_legendre", no_rule)
        monkeypatch.setattr(hankel, "geometric_panel_grid", no_rule)
        for eps, t_grid, x_grid in cases:
            for got, expected in ((default_grid(eps), t_grid),
                                  (default_laplace_grid(eps), x_grid)):
                assert np.array_equal(got.nodes, expected.nodes)
                assert np.array_equal(got.weights, expected.weights)

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

    def test_matches_the_substituting_formula_bitwise(self):
        def substituted(t, eps):
            tiny = t < hankel.SMALL_T
            safe = np.where(tiny, 1.0, t)
            vals = (np.expm1(-eps * safe) - np.expm1(-safe)) / (np.pi * safe)
            return np.where(tiny, (1.0 - eps) / np.pi, vals)

        wide = np.geomspace(1e-11, 1e4, 501)
        grid = default_grid(1e-3).nodes
        for t in (wide, np.concatenate(([0.0, 1e-13], wide)), grid[:, None] + grid[None, :]):
            for eps in (0.5, 1e-3, 1e-12):
                assert np.array_equal(k_eps_kernel(t, eps), substituted(t, eps))
        assert k_eps_kernel(0.7, 1e-2) == float(substituted(np.array(0.7), 1e-2))

    def test_positive_and_decaying(self):
        t = np.geomspace(1e-6, 1e3, 200)
        vals = k_eps_kernel(t, 1e-2)
        assert np.all(vals > 0)
        assert vals[-1] < 1e-6


@pytest.fixture(scope="module")
def section_traces():
    return k_eps_trace_slopes([3, 4, 6], [1e-1, 1e-3, 1e-6, 1e-10, 1e-12])


class TestExactTraces:
    def test_closed_forms(self):
        assert k_eps_trace_exact(1e-3, 1) == pytest.approx(math.log(1e3) / (2 * math.pi))
        eps = 1e-3
        expected = (2 * math.log1p(eps) - math.log(4 * eps)) / math.pi**2
        assert k_eps_trace_exact(eps, 2) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("eps", [0.9, 0.5, 1e-1, 1e-3, 1e-6, 1e-10, 1e-12])
    def test_discretization_reproduces_them(self, eps, section_traces):
        # the t-grid Nystrom traces against the closed forms (m = 1, 2) and the
        # section's (m = 3, 4, 6), and its smallest eigenvalue
        k = discretize_hankel(partial(k_eps_kernel, eps=eps), default_grid(eps))
        traces = trace_powers(k, (1, 2, 3, 4, 6))
        for m in (1, 2):
            assert traces[m] == pytest.approx(k_eps_trace_exact(eps, m), rel=1e-12, abs=0.0)
        if eps in section_traces.eps:
            i = int(np.flatnonzero(section_traces.eps == eps)[0])
            for m in (3, 4, 6):
                assert traces[m] == pytest.approx(section_traces.traces[m][i], rel=1e-11, abs=0.0)
        assert float(k.eigenvalues()[0]) >= -1e-10

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

    @pytest.mark.parametrize("count", [2, 64, 65, 130])
    def test_one_call_of_the_symbol_per_block_of_t(self, count):
        # 961 points per t, at most SYMBOL_BLOCK = 64 t per call
        shapes = []

        def omega(x):
            shapes.append(np.shape(x))
            return zeta_eps(x, 0.5) - zeta(x)

        kernel_from_symbol(omega, np.linspace(0.1, 10.0, count))
        calls = shapes[-math.ceil(count / 64):]  # _check_symbol's scalar calls come first
        assert all(shape[1:] == (961,) and shape[0] <= 64 for shape in calls)
        assert sum(shape[0] for shape in calls) == count
        assert max(np.prod(shape) for shape in shapes) <= 64 * 961

    def test_blocks_agree_with_a_loop_over_t(self):
        # 130 t span three blocks; the reference takes one t at a time
        def per_t(omega, t_values):
            (y_sin, c_sin), (y_cos, c_cos) = hankel._SINE_RULE, hankel._COSINE_RULE
            out = []
            for t in t_values:
                values = np.asarray(omega(np.concatenate((y_sin, y_cos, -y_cos)) / t))
                out.append(-float(c_sin @ values[:y_sin.size]) / (np.pi * t))
            return np.array(out)

        t = np.geomspace(1e-2, 1e4, 130)
        for eps in (0.5, 1e-6):
            omega = lambda x, e=eps: zeta_eps(x, e) - zeta(x)
            assert np.max(np.abs(kernel_from_symbol(omega, t) - per_t(omega, t))) <= 1e-14

    def test_imaginary_residual_names_the_first_t_that_fails(self):
        # the even bump's residual is below IMAG_TOL for t in [8, 12] and 1.8e-7
        # at t = 2: the 71st t fails, in the second block
        bump = lambda x: 1e-6 * np.exp(-4.0 * (np.abs(x) - 5.0) ** 2)
        omega = lambda x: zeta_eps(x, 0.5) - zeta(x) + bump(x)
        t = np.concatenate((np.linspace(8.0, 12.0, 70), [2.0, 0.5]))
        with pytest.raises(ValueError, match=r"residual 1\.845e-07 at t=2\.0 exceeds"):
            kernel_from_symbol(omega, t)

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

    def test_one_fit_for_all_powers_matches_a_fit_per_power(self):
        res = k_eps_trace_slopes([1, 2, 3, 4, 6], np.geomspace(1e-2, 1e-12, 21))
        for m, slope in res.fitted.items():
            alone = float(np.polyfit(res.log_inv_eps, res.traces[m], 1)[0])
            assert slope == pytest.approx(alone, rel=1e-14, abs=0.0)

    def test_traces_come_from_products_with_no_eigensolve(self, monkeypatch):
        # hankel-deep's grid: 21 eps from 1e-2 to 1e-12; the eigenvalue route is the reference
        eps_values = np.geomspace(1e-2, 1e-12, 21)
        powers = list(range(1, 8))
        spectra = [
            np.linalg.eigvalsh(discretize_hankel(hankel._carleman, section_grid(eps)).entries)
            for eps in sorted(eps_values, reverse=True)
        ]

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("k_eps_trace_slopes ran an eigensolve")

        monkeypatch.setattr(SelfAdjointMatrix, "eigenvalues", no_eigensolve)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        res = k_eps_trace_slopes(powers, eps_values)
        for m in powers:
            reference = [float(np.sum(w ** float(m))) for w in spectra]
            np.testing.assert_allclose(res.traces[m], reference, rtol=1e-14, atol=0.0)

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

"""The Gauss-Legendre rule: Bogaert's asymptotic formulas against an extended-precision oracle."""

import math

import numpy as np
import pytest
from scipy import special

from specdiff import hankel, quadrature
from specdiff.models import RankOneModel
from specdiff.quadrature import (
    ASYMPTOTIC_MIN_N,
    MAX_PANELS,
    gauss_legendre,
    gauss_legendre_grid,
    gauss_legendre_reference,
    panel_integral,
    panel_rule,
    uniform_panels,
)

ASYMPTOTIC_SIZES = [101, 200, 800, 1500, 4000]
extended = pytest.mark.skipif(
    not np.finfo(np.longdouble).eps < 1e-18,
    reason="np.longdouble is no wider than float64 here, so the Newton oracle "
    "cannot resolve the rule's last digits",
)


@extended
@pytest.mark.parametrize("n", ASYMPTOTIC_SIZES)
def test_matches_the_extended_precision_newton_rule(n):
    x, w = gauss_legendre(n)
    x_ref, w_ref = gauss_legendre_reference(n)
    assert x.dtype == w.dtype == np.float64 and x.shape == w.shape == (n,)
    # measured 5.1e-16 and 3.8e-15 at n = 4000: the bounds leave a factor two
    # to three, so that a wrong coefficient that moves the rule is caught
    assert float(np.max(np.abs(x - x_ref))) <= 1e-15
    assert float(np.max(np.abs(w / w_ref - 1))) <= 1e-14


@extended
def test_reference_is_converged():
    # two more Newton steps move neither nodes nor weights
    x, w = gauss_legendre_reference(800)
    x5, w5 = gauss_legendre_reference(800, steps=4)
    assert np.array_equal(x, x5) and float(np.max(np.abs(w / w5 - 1))) <= 1e-17


@pytest.mark.parametrize("n", ASYMPTOTIC_SIZES + [102, 1501])
def test_symmetric_sorted_and_normalised(n):
    x, w = gauss_legendre(n)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    if n % 2:
        assert x[n // 2] == 0.0
    assert np.all(np.diff(x) > 0.0) and -1.0 < x[0] and np.all(w > 0.0)
    assert abs(float(np.sum(w)) - 2.0) <= 1e-14


@pytest.mark.parametrize("n", [101, 800, 4001])
def test_integrates_even_monomials_to_degree_2n_minus_1(n):
    x, w = gauss_legendre(n)
    term, x2 = w.copy(), x * x
    for k in range(n):  # x^(2k), 2k <= 2n - 1; odd monomials vanish by symmetry
        assert abs(float(np.sum(term)) - 2.0 / (2 * k + 1)) <= 1e-14, k
        term *= x2


@pytest.mark.parametrize("n", [1, 2, 8, 12, 64, 99, ASYMPTOTIC_MIN_N - 1])
def test_small_rules_are_numpys_leggauss_bit_for_bit(n):
    x, w = gauss_legendre(n)
    x_np, w_np = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(x, x_np) and np.array_equal(w, w_np)


def test_the_model_and_the_kernel_grids_read_the_rule():
    model = RankOneModel(L=8.0, n=800)
    x, w = gauss_legendre(800)
    assert np.array_equal(model.nodes, 8.0 * x) and np.array_equal(model.weights, 8.0 * w)
    grid = gauss_legendre_grid(-1.0, 1.0, 150)
    assert np.array_equal(grid.nodes, gauss_legendre(150)[0])


def test_bessel_tables_are_scipys_values_bit_for_bit():
    assert np.array_equal(quadrature._J0_ZEROS, special.jn_zeros(0, 20))
    # the 21st J1 value is taken at McMahon's j_21, as the rule uses it
    zeros = quadrature._bessel_data(60)[0]
    assert np.array_equal(zeros[:20], quadrature._J0_ZEROS)
    assert np.array_equal(quadrature._J1_SQUARED_AT_ZEROS, special.j1(zeros[:21]) ** 2)


def test_hankel_reads_the_grids_from_here():
    for name in ("QuadratureGrid", "gauss_legendre_grid", "geometric_panel_grid", "panel_rule"):
        assert getattr(hankel, name) is getattr(quadrature, name)


class TestPanelRules:
    def test_uniform_panels_refuse_a_span_that_is_not_finite(self):
        # a ValueError, not math.ceil's OverflowError: the CLI turns it into exit 2
        for lo, hi in ((0.0, math.inf), (-1e308, 1e308)):
            with pytest.raises(ValueError, match="cannot cut"):
                uniform_panels(lo, hi, 4.0)

    def test_uniform_panels_refuse_more_than_max_panels(self):
        # np.linspace raised NumPy's "Maximum allowed size exceeded" at 8e200 panels
        assert uniform_panels(0.0, 4.0 * MAX_PANELS, 4.0).size == MAX_PANELS + 1
        for hi in (4.0 * MAX_PANELS * (1.0 + 1e-12), 1e200):
            with pytest.raises(ValueError, match="cannot cut .* more than 1e\\+06"):
                uniform_panels(0.0, hi, 4.0)

    def test_panel_rule_is_exact_for_piecewise_polynomials(self):
        edges = np.array([-1.0, -0.25, 0.5, 2.0])
        x, w = panel_rule(edges, gauss_legendre(3))
        assert x.shape == w.shape == (9,) and np.all(np.diff(x) > 0.0)
        assert float(w @ x**5) == pytest.approx((2.0**6 - 1.0) / 6.0, rel=1e-14)
        assert float(w @ np.abs(x - 0.5) ** 3) == pytest.approx((1.5**4 + 1.5**4) / 4.0, rel=1e-14)

    def test_panel_integral_settles_on_a_smooth_integrand(self):
        value = panel_integral(np.exp, np.linspace(0.0, 3.0, 4), gauss_legendre(8), 1e-13, 1)
        assert value == pytest.approx(np.expm1(3.0), rel=1e-14)

    def test_panel_integral_raises_when_the_panels_are_too_wide(self):
        with pytest.raises(ValueError, match="did not settle"):
            panel_integral(lambda x: np.sin(200.0 * x), np.linspace(0.0, 3.0, 4),
                           gauss_legendre(8), 1e-10, 3)
        # a jump never settles to a tight tolerance, however often it is halved
        with pytest.raises(ValueError, match="did not settle"):
            panel_integral(lambda x: (x > 1.0 / 3.0).astype(float), np.array([0.0, 1.0]),
                           gauss_legendre(8), 1e-10, 6)

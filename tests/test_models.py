"""Rank-one scattering model: resolvent boundary values, S, D_eps, controls."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from specdiff.density import BandSet
from specdiff.experiments import count_window, unfolded_count
from specdiff.matrices import LANCZOS_START, SpectralDifference
from specdiff.models import (
    BUMPS,
    ExceptionalPointError,
    RankOneModel,
    ResolutionGuardWarning,
    negative_control,
)
from specdiff.profiles import CutoffProfile, ProfileKind, builtin_profile


@pytest.fixture(scope="module")
def model():
    # small-n model for unit tests; the default n = 4000 belongs to acceptance
    return RankOneModel(n=400)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            RankOneModel(L=0.0)
        with pytest.raises(ValueError):
            RankOneModel(n=4)
        with pytest.raises(ValueError, match="known bumps"):
            RankOneModel(bump="box")
        with pytest.raises(ValueError):
            RankOneModel(c=math.inf)

    def test_callable_bump(self):
        m = RankOneModel(n=400, bump=BUMPS["sech"])
        assert m.bump_name in ("<lambda>", "custom")

    def test_underresolved_grid_rejected(self):
        # 20 nodes cannot integrate the gaussian coupling on (-8, 8)
        with pytest.raises(ValueError, match="increase n"):
            RankOneModel(n=20)

    def test_h_is_h0_plus_rank_one(self, model):
        h = model.h
        off = h.entries - np.diag(model.nodes)
        assert np.linalg.matrix_rank(off, tol=1e-10) == 1


class TestResolventBoundaryValue:
    def test_at_zero_is_i_pi(self, model):
        t = model.t_plus(0.0)
        # v^2 is even, so the principal value cancels identically
        assert abs(t.real) < 1e-9
        assert t.imag == pytest.approx(math.pi, rel=1e-12)

    def test_imaginary_part_is_pi_v_squared(self, model):
        for lam in (-1.3, 0.4, 2.2):
            assert model.t_plus(lam).imag == pytest.approx(
                math.pi * math.exp(-2.0 * lam**2), rel=1e-12
            )

    def test_real_part_against_cauchy_weight_quadrature(self, model):
        # independent oracle: QUADPACK's dedicated principal-value rule
        for lam in (0.7, -1.1):
            pv, _ = integrate.quad(
                lambda x: math.exp(-2.0 * x**2),
                -model.L, model.L,
                weight="cauchy", wvar=lam, limit=400,
            )
            assert model.t_plus(lam).real == pytest.approx(pv, abs=1e-8)

    def test_energy_domain(self, model):
        for lam in (8.0, -8.0, 7.9999999):
            with pytest.raises(ValueError):
                model.t_plus(lam)


class TestScatteringPoint:
    def test_anchors_at_zero(self, model):
        p = model.scattering_point(0.0)
        den = 1.0 + 0.5j * math.pi
        assert p.s == pytest.approx(den.conjugate() / den, abs=1e-9)
        assert p.a1 == pytest.approx(math.pi / (2.0 * abs(den)), abs=1e-9)
        assert p.xi == pytest.approx(math.atan(math.pi / 2.0) / math.pi, abs=1e-9)

    def test_unimodular_on_grid(self, model):
        rng = np.random.default_rng(14)
        for lam in np.linspace(-3.9, 3.9, 50):
            assert abs(abs(model.scattering_point(lam).s) - 1.0) < 1e-8
        for c in rng.uniform(-2.0, 2.0, size=3):
            m = RankOneModel(n=400, bump="sech", c=float(c))
            for lam in rng.uniform(-3.0, 3.0, size=5):
                p = m.scattering_point(float(lam))
                assert abs(abs(p.s) - 1.0) < 1e-8
                assert 0.0 <= p.a1 <= 1.0

    def test_band_set_has_single_edge(self, model):
        bands = model.band_set(0.0)
        assert len(bands) == 1

    def test_exceptional_point_raises_before_blowup(self):
        # at lam = 4 the coupling weight pi v^2 ~ 1e-13 is already below the
        # guard, so tuning c to cancel Re(1 + cT) lands inside the tolerance
        probe = RankOneModel(n=400)
        re_t = probe.t_plus(4.0).real
        bad = RankOneModel(n=400, c=-1.0 / re_t)
        with pytest.raises(ExceptionalPointError):
            bad.scattering_point(4.0)


class TestProjectionDifference:
    def test_level_spacing_near_center(self, model):
        # Gauss-Legendre spacing at the interval center is ~ pi L / n
        assert model.local_level_spacing(0.0) == pytest.approx(
            math.pi * model.L / model.n, rel=0.05
        )

    def test_guard_floor_scales_with_kappa(self, model):
        assert model.guard_floor(0.0, kappa=2.0) == pytest.approx(
            2.0 * model.local_level_spacing(0.0)
        )

    def test_warns_below_guard(self, model):
        psi = builtin_profile("ARCTAN_HALF")
        with pytest.warns(ResolutionGuardWarning):
            model.build_d_eps(psi, 1e-4, 0.0)

    def test_no_warning_above_guard(self, model):
        psi = builtin_profile("ARCTAN_HALF")
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", ResolutionGuardWarning)
            model.build_d_eps(psi, 0.2, 0.0)

    def test_zero_coupling_gives_zero_difference(self):
        m = RankOneModel(n=400, c=0.0)
        d = m.build_d_eps(builtin_profile("TANH_HALF"), 0.1, 0.0)
        assert np.max(np.abs(d.entries)) < 1e-12

    def test_norm_bounded_by_one(self, model):
        d = model.build_d_eps(builtin_profile("ARCTAN_HALF"), 0.1, 0.0)
        w = d.eigenvalues()
        assert np.max(np.abs(w)) <= 1.0 + 1e-12

    def test_eps_domain(self, model):
        psi = builtin_profile("ARCTAN_HALF")
        for eps in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                model.build_d_eps(psi, eps, 0.0)


WINDOWS = ((0.4, 1.0), (0.4, math.inf), (-math.inf, -0.4), (0.1, 0.3))


def assert_traces_close(d, w):
    # relative to Tr |D|^m, which bounds |Tr D^m| and does not vanish with it
    for m in (1, 2, 3):
        exact, scale = float(np.sum(w ** float(m))), float(np.sum(np.abs(w) ** m))
        assert abs(d.trace_power(m) - exact) <= 1e-11 * scale, m


class TestStructuredDifference:
    """The factored D_eps against its own dense form, the oracle."""

    @pytest.mark.parametrize("lam", [0.0, 0.2])
    @pytest.mark.parametrize("name", ["ARCTAN_HALF", "TANH_HALF", "MOLLIFIED_STEP"])
    @pytest.mark.parametrize("eps", [0.1, 0.03, 0.02])  # 0.02 is below the n = 400 guard
    def test_matches_dense(self, model, name, lam, eps):
        psi = builtin_profile(name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionGuardWarning)
            d = model.build_d_eps(psi, eps, lam)
            w = model.build_d_eps(psi, eps, lam).eigenvalues()
        bands = BandSet([model.scattering_point(lam).a1])
        assert_traces_close(d, w)
        for window in WINDOWS:
            assert count_window(d, window) == count_window(w, window)
            partial = d.window_eigenvalues(min(abs(window[0]), abs(window[1])))
            assert partial.size < w.size  # Lanczos, not the dense fallback
            assert count_window(partial, window) == count_window(w, window)
            assert unfolded_count(partial, window, bands) == pytest.approx(
                unfolded_count(w, window, bands), abs=1e-12
            )
        assert d._dense is None  # nothing above built the dense matrix

    def test_lanczos_grows_k_for_a_low_threshold(self, model):
        psi = builtin_profile("ARCTAN_HALF")
        d = model.build_d_eps(psi, 0.03, 0.0)
        w = model.build_d_eps(psi, 0.03, 0.0).eigenvalues()
        partial = d.window_eigenvalues(0.01)
        assert 2 * LANCZOS_START < partial.size < w.size
        assert np.all(np.diff(partial) >= 0.0)
        beyond = w[np.abs(w) > 0.01]
        assert np.allclose(partial[np.abs(partial) > 0.01], beyond, rtol=0.0, atol=1e-13)

    def test_high_power_uses_the_dense_spectrum(self, model):
        d = model.build_d_eps(builtin_profile("TANH_HALF"), 0.05, 0.0)
        w = model.build_d_eps(builtin_profile("TANH_HALF"), 0.05, 0.0).eigenvalues()
        assert d.trace_power(4) == float(np.sum(w**4.0))
        # with the spectrum at hand, the window eigenvalues are all of it
        assert np.array_equal(d.window_eigenvalues(0.4), w)

    def test_dense_entries_on_demand(self, model):
        w_h, q = model.h.eig()
        psi = builtin_profile("ARCTAN_HALF")
        d = model.build_d_eps(psi, 0.1, 0.0)
        assert d._dense is None and d.q is q
        expected = (q * psi(w_h / 0.1)) @ q.T - np.diag(psi(model.nodes / 0.1))
        assert np.max(np.abs(d.entries - expected)) < 1e-14
        assert d.dim == model.n

    def test_zero_coupling_falls_back_to_dense(self):
        # D = 0 exactly: ARPACK cannot start, so the whole dense spectrum is used
        m = RankOneModel(n=400, c=0.0)
        d = m.build_d_eps(builtin_profile("TANH_HALF"), 0.1, 0.0)
        w = d.window_eigenvalues(0.4)
        assert w.size == m.n and np.all(w == 0.0)
        assert d._dense is not None

    def test_certificate_doubles_k_until_the_remainder_is_small(self):
        # D = diag(f): with k = 4 per side the eigenvalues 0.27 .. 0.24 left
        # out carry more than rho^2 = 0.3^2 of Tr D^2, with k = 8 they do not
        outer = np.array([0.9, 0.3, 0.29, 0.28, 0.27, 0.26, 0.25, 0.24])
        f = np.concatenate([outer, -outer, np.linspace(-1e-3, 1e-3, 84)])
        d = SpectralDifference(np.eye(100), f, np.zeros(100), np.eye(100))
        w = d.window_eigenvalues(0.5)
        assert np.allclose(w, np.sort(np.concatenate([outer, -outer])), rtol=0.0, atol=1e-14)
        assert d._dense is None

    def test_small_matrices_use_the_dense_spectrum(self):
        # k = 4 per side already reaches n/2
        f = np.linspace(-0.9, 0.9, 8)
        d = SpectralDifference(np.eye(8), f, np.zeros(8), np.eye(8))
        assert np.array_equal(d.window_eigenvalues(0.4), f)

    def test_validation(self):
        q = np.eye(3)
        with pytest.raises(ValueError, match="shapes"):
            SpectralDifference(q, np.zeros(2), np.zeros(3), q)
        with pytest.raises(ValueError, match="finite"):
            SpectralDifference(q, np.array([0.0, np.nan, 0.0]), np.zeros(3), q)
        d = SpectralDifference(q, np.zeros(3), np.zeros(3), q)
        with pytest.raises(ValueError):
            d.trace_power(0)
        with pytest.raises(ValueError):
            d.window_eigenvalues(0.0)


class TestNegativeControl:
    def test_alpha_one_count(self):
        psi = builtin_profile("MOLLIFIED_STEP")
        assert negative_control(1.0, 2000, psi, 1e-3) == 999

    def test_alpha_half_count(self):
        psi = builtin_profile("MOLLIFIED_STEP")
        # k^{-2} > 1e-3  iff  k <= 31
        assert negative_control(0.5, 2000, psi, 1e-3) == 31

    def test_large_eps_empties_the_count(self):
        psi = builtin_profile("MOLLIFIED_STEP")
        assert negative_control(1.0, 100, psi, 1.0) == 0

    def test_count_saturates_at_n(self):
        psi = builtin_profile("MOLLIFIED_STEP")
        assert negative_control(1.0, 50, psi, 1e-4) == 50

    def test_soft_profile_rejected(self):
        with pytest.raises(ValueError, match="compactly flat"):
            negative_control(1.0, 100, builtin_profile("ARCTAN_HALF"), 0.1)

    def test_profile_must_vanish_at_zero(self):
        shifted = CutoffProfile(
            "offset",
            lambda x: np.full_like(np.asarray(x, dtype=float), -0.25),
            ProfileKind.COMPACT_FLAT,
            flat_radius=1.0,
        )
        with pytest.raises(ValueError, match="vanish at 0"):
            negative_control(1.0, 100, shifted, 0.1)

    def test_parameter_validation(self):
        psi = builtin_profile("MOLLIFIED_STEP")
        with pytest.raises(ValueError):
            negative_control(0.0, 100, psi, 0.1)
        with pytest.raises(ValueError):
            negative_control(1.0, 0, psi, 0.1)
        with pytest.raises(ValueError):
            negative_control(1.0, 100, psi, -0.1)

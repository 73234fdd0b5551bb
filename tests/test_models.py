"""Rank-one scattering model: resolvent boundary values, S, D_eps, controls."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from specdiff import matrices
from specdiff.density import BandSet
from specdiff.experiments import count_window, unfolded_count
from specdiff.matrices import (
    BLOCK_START,
    RITZ_TOL,
    EigendecompositionError,
    SpectralDifference,
)
from specdiff.models import (
    BUMPS,
    ExceptionalPointError,
    RankOneModel,
    negative_control,
)
from specdiff.profiles import CutoffProfile, builtin_profile


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

    def test_underresolved_grid_rejected(self):
        # 20 nodes cannot integrate the gaussian coupling on (-8, 8)
        with pytest.raises(ValueError, match="increase n"):
            RankOneModel(n=20)

    def test_h_is_h0_plus_rank_one(self, model):
        h = model.h
        off = h.entries - np.diag(model.nodes)
        assert np.linalg.matrix_rank(off, tol=1e-10) == 1
        # the dense oracle and the secular solve read one (x, u, c)
        assert np.array_equal(h.entries, model.rank_one.entries)


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

    @pytest.mark.parametrize("bump", ["gaussian", "sech"])
    def test_real_part_matches_quadpack_across_the_interval(self, bump):
        # the panel rule against QUADPACK's Cauchy-weight rule at tight
        # tolerance, up to 0.4 from either end of (-8, 8)
        m = RankOneModel(n=400, bump=bump)
        for lam in (-7.6, -3.2, -1.1, 0.7, 2.5, 5.0, 7.6):
            pv, _ = integrate.quad(
                lambda x: float(m.v(x)) ** 2, -m.L, m.L,
                weight="cauchy", wvar=lam, limit=400, epsabs=1e-12, epsrel=1e-12,
            )
            assert m.t_plus(lam).real == pytest.approx(pv, rel=1e-10)

    def test_narrow_bump_raises_instead_of_a_wrong_value(self, monkeypatch):
        # width 0.1: the n = 1000 nodes and the v^2 reference resolve it, the
        # unit panels of t_plus do not, and their halving check says so
        monkeypatch.setitem(BUMPS, "narrow", lambda x: np.exp(-(np.asarray(x) / 0.1) ** 2))
        narrow = RankOneModel(n=1000, bump="narrow")
        with pytest.raises(ValueError, match="did not settle"):
            narrow.t_plus(0.5)
        # width 0.03 is too narrow for the v^2 reference itself
        monkeypatch.setitem(BUMPS, "narrower", lambda x: np.exp(-(np.asarray(x) / 0.03) ** 2))
        with pytest.raises(ValueError, match="did not settle"):
            RankOneModel(n=4000, bump="narrower")

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

    def test_zero_coupling_gives_zero_difference(self):
        m = RankOneModel(n=400, c=0.0)
        psi = builtin_profile("TANH_HALF")
        d = m.build_d_eps(psi, 0.1, 0.0)
        # every node deflates: the kept block is empty, the n x n D is 0
        assert d.entries.shape == (0, 0)
        assert np.max(np.abs(dense_spectrum(m, psi, 0.1, 0.0))) < 1e-12

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


def assert_traces_close(d, w, powers=(1, 2, 3, 4)):
    # relative to Tr |D|^m, which bounds |Tr D^m| and does not vanish with it
    for m in powers:
        exact, scale = float(np.sum(w ** float(m))), float(np.sum(np.abs(w) ** m))
        assert abs(d.trace_power(m) - exact) <= 1e-11 * scale, m


class TestStructuredDifference:
    """The factored D_eps against its own dense form, the oracle."""

    @pytest.mark.parametrize("lam", [0.0, 0.2])
    @pytest.mark.parametrize("name", ["ARCTAN_HALF", "TANH_HALF", "MOLLIFIED_STEP"])
    @pytest.mark.parametrize("eps", [0.1, 0.03, 0.02])  # 0.02 is below the n = 400 guard
    def test_matches_dense(self, model, name, lam, eps):
        psi = builtin_profile(name)
        d = model.build_d_eps(psi, eps, lam)
        w = model.build_d_eps(psi, eps, lam).eigenvalues()
        bands = BandSet([model.scattering_point(lam).a1])
        assert_traces_close(d, w)
        for window in WINDOWS + ((0.01, 1.0),):
            partial = d.window_eigenvalues(min(abs(window[0]), abs(window[1])))
            assert partial.size < w.size  # a block much narrower than n
            assert count_window(partial, window) == count_window(w, window)
            assert unfolded_count(partial, window, bands) == pytest.approx(
                unfolded_count(w, window, bands), abs=1e-12
            )
        assert d._dense is None  # nothing above built the dense matrix

    @pytest.mark.parametrize("eps", [0.023, 0.01])
    def test_low_threshold_matches_dense(self, model, eps):
        psi = builtin_profile("ARCTAN_HALF")
        window = (0.01, 1.0)
        d = model.build_d_eps(psi, eps, 0.0)
        w = model.build_d_eps(psi, eps, 0.0).eigenvalues()
        theta = d.window_eigenvalues(0.01)
        assert np.all(np.diff(theta) >= 0.0)
        beyond = w[np.abs(w) > 0.01]
        assert np.allclose(theta[np.abs(theta) > 0.01], beyond, rtol=0.0, atol=1e-13)
        bands = BandSet([model.scattering_point(0.0).a1])
        assert count_window(theta, window) == count_window(w, window)
        assert unfolded_count(theta, window, bands) == pytest.approx(
            unfolded_count(w, window, bands), abs=1e-12
        )
        assert d._dense is None

    @pytest.mark.parametrize("name", ["ARCTAN_HALF", "TANH_HALF", "MOLLIFIED_STEP"])
    def test_the_first_block_resolves_the_outermost_eigenvalues(self, name):
        # at eps = 3e-4 the first block of BLOCK_START columns is certified, both that no
        # eigenvalue it reads is missing and that each read Ritz value is within RITZ_TOL,
        # and its four outermost Ritz values per side match the dense spectrum to rounding
        # (the read values of a block of 24 were within 1.8e-15 of it over 13 eps from 1e-1
        # to 3e-4 and these three profiles at n = 800)
        d = RankOneModel(n=800).build_d_eps(builtin_profile(name), 3e-4, 0.0)
        theta = d.window_eigenvalues(0.4)
        assert theta.size == BLOCK_START
        y = d.eigenvalues()
        assert np.max(np.abs(theta[-4:] - y[-4:])) <= 1e-14
        assert np.max(np.abs(theta[:4] - y[:4])) <= 1e-14

    def test_the_certificate_bounds_the_read_ritz_values_and_widens_until_they_are_accurate(self):
        # MOLLIFIED_STEP at n = 1500 and eps = 0.1: the first block holds every eigenvalue it
        # reads (R <= rho^2), but its Ritz values are off by up to 4.5e-12, and its own
        # remainder bounds them by about 1e-10, above RITZ_TOL: the block must widen
        d = RankOneModel(n=1500).build_d_eps(builtin_profile("MOLLIFIED_STEP"), 0.1, 0.0)
        y = d.eigenvalues()
        rounding = 8.0 * np.finfo(float).eps * float(d.f @ d.f + d.g @ d.g)

        def read_errors_and_bound(theta):
            # the distances of the read Ritz values from the dense spectrum, the remainder,
            # and the quadratic residual bound (R / 2) / (rho - sqrt(R)), R raised by the
            # rounding of Tr D^2
            errors, rho = [], np.inf
            for out, exact in ((theta[::-1], y[::-1]), (-theta, -y)):
                read = max(int(np.count_nonzero(out > 0.4)), 1) + 1
                errors.append(np.abs(out[:read] - exact[:read]))
                rho = min(rho, float(np.min(np.abs(out[:read]))))
            remainder = d.trace_power(2) - float(theta @ theta)
            r = max(remainder, 0.0) + rounding
            assert r <= rho * rho
            return np.concatenate(errors), remainder, (r / 2.0) / (rho - np.sqrt(r))

        SpectralDifference.fill([d])
        first = d._ritz
        assert first.size == BLOCK_START
        errors, remainder, bound = read_errors_and_bound(first)
        assert remainder > rounding and bound > RITZ_TOL
        assert np.all(errors <= bound) and np.max(errors) > 1e-12

        theta = d.window_eigenvalues(0.4)
        assert theta.size == 2 * BLOCK_START
        errors, remainder, bound = read_errors_and_bound(theta)
        assert remainder <= rounding or bound <= RITZ_TOL
        assert np.all(errors <= bound) and np.max(errors) <= RITZ_TOL

    def test_the_fourth_power_widens_until_its_trace_is_certified(self):
        # MOLLIFIED_STEP at n = 4000 and eps = 0.03: the first block leaves out only R^2 of
        # about 2e-18 of Tr D^4, but its Ritz values are off by up to 4e-10, so the sum of
        # theta^4 misses Tr D^4 by about 2e-9 relative: the block must widen
        model = RankOneModel(n=4000)
        d = model.build_d_eps(builtin_profile("MOLLIFIED_STEP"), 0.03, 0.0)
        exact = float(np.sum(d.eigenvalues() ** 4.0))
        SpectralDifference.fill([d], (4,), windows=False)
        assert d._ritz.size == BLOCK_START
        assert abs(float(np.sum(d._ritz ** 4.0)) - exact) > 1e-10 * exact
        assert abs(d.trace_power(4) - exact) <= RITZ_TOL * exact
        assert d._ritz.size == 2 * BLOCK_START
        # ARCTAN_HALF at eps = 0.1: the first block's remainder is within the rounding of
        # Tr D^2, where the bound reads 1.7e-11 relative, above RITZ_TOL; no wider block can
        # lower it, so the block stays
        d = model.build_d_eps(builtin_profile("ARCTAN_HALF"), 0.1, 0.0)
        exact = float(np.sum(d.eigenvalues() ** 4.0))
        assert abs(d.trace_power(4) - exact) <= RITZ_TOL * exact
        assert d._ritz.size == BLOCK_START

    @pytest.mark.parametrize("name", ["ARCTAN_HALF", "TANH_HALF", "MOLLIFIED_STEP"])
    def test_high_power_traces_hold_from_a_narrow_first_block(self, monkeypatch, name):
        # a first block of 8 columns misses up to 1e-4 relative of Tr D^6 at n = 800 with
        # R^3 far below it; the certificate widens each block until the sum of theta^m
        # is within RITZ_TOL relative
        draw = SpectralDifference.start_block
        monkeypatch.setattr(SpectralDifference, "start_block",
                            staticmethod(lambda q, columns=8: draw(q, columns)))
        model = RankOneModel(n=800)
        for eps in (0.1, 0.03, 0.01, 3e-3):
            y = model.build_d_eps(builtin_profile(name), eps, 0.0).eigenvalues()
            for m in (4, 5, 6):
                d = model.build_d_eps(builtin_profile(name), eps, 0.0)
                value, scale = d.trace_power(m), float(np.sum(np.abs(y) ** m))
                assert abs(value - float(np.sum(y ** float(m)))) <= RITZ_TOL * scale, (eps, m)

    def test_high_power_uses_the_dense_spectrum(self, model):
        # the dense spectrum is the oracle; Tr D^m for m >= 4 comes from the Ritz values
        d = model.build_d_eps(builtin_profile("TANH_HALF"), 0.05, 0.0)
        w = model.build_d_eps(builtin_profile("TANH_HALF"), 0.05, 0.0).eigenvalues()
        assert_traces_close(d, w, powers=(4, 5, 6, 8))
        assert d._dense is None

    def test_dense_entries_on_demand(self, model):
        q = model.solve()[1]
        psi = builtin_profile("ARCTAN_HALF")
        d = model.build_d_eps(psi, 0.1, 0.0)
        assert d._dense is None and d.q is q
        # against the n x n D built from the dense H's own eigendecomposition:
        # it vanishes off the kept block, and d is that block
        w_h, q_h = model.h.eig()
        expected = (q_h * psi(w_h / 0.1)) @ q_h.T - np.diag(psi(model.nodes / 0.1))
        block = np.ix_(model.kept, model.kept)
        assert np.max(np.abs(d.entries - expected[block])) < 1e-14
        expected[block] = 0.0
        assert np.max(np.abs(expected)) < 1e-14
        assert d.dim == model.kept.size < model.n

    def test_zero_coupling_gives_exact_zeros(self):
        # every node deflates: D = 0 exactly, on an empty block
        m = RankOneModel(n=400, c=0.0)
        d = m.build_d_eps(builtin_profile("TANH_HALF"), 0.1, 0.0)
        assert m.block is None and d.dim == 0
        assert d.window_eigenvalues(0.4).size == 0
        assert [d.trace_power(k) for k in (1, 2, 3, 4)] == [0.0] * 4
        assert d._dense is None

    def test_certificate_doubles_k_until_the_remainder_is_small(self):
        # D = diag(f) has 2 (BLOCK_START - 5) eigenvalues of size at least 0.24: a block
        # of BLOCK_START leaves out more than rho^2 = 0.3^2 of Tr D^2, a block of
        # 2 BLOCK_START holds them all
        outer = np.concatenate([[0.9], np.linspace(0.3, 0.24, BLOCK_START - 6)])
        f = np.concatenate([outer, -outer, np.zeros(200 - 2 * outer.size)])
        q = np.eye(200)
        d = SpectralDifference(q, f, np.zeros(200))
        w = d.window_eigenvalues(0.5)
        assert w.size == 2 * BLOCK_START
        beyond = w[np.abs(w) > 1e-8]
        assert np.allclose(beyond, np.sort(np.concatenate([outer, -outer])), rtol=0.0, atol=1e-14)
        assert d._dense is None

    def test_a_doubled_block_draws_its_own_start(self, monkeypatch):
        # the same 2 (BLOCK_START - 5) outer eigenvalues in a random orthogonal basis: a
        # lone D draws its first block of BLOCK_START, and the block of 2 BLOCK_START is
        # drawn afresh, with its own Q^T Omega
        outer = np.concatenate([[0.9], np.linspace(0.3, 0.24, BLOCK_START - 6)])
        f = np.concatenate([outer, -outer, np.zeros(200 - 2 * outer.size)])
        q = np.linalg.qr(np.random.default_rng(7).standard_normal((200, 200)))[0]
        d = SpectralDifference(q, f, np.zeros(200))
        drawn = []
        draw = SpectralDifference.start_block

        def recording(q, columns=BLOCK_START):
            drawn.append(columns)
            return draw(q, columns)

        monkeypatch.setattr(SpectralDifference, "start_block", staticmethod(recording))
        w = d.window_eigenvalues(0.5)
        assert drawn == [BLOCK_START, 2 * BLOCK_START] and w.size == 2 * BLOCK_START
        beyond = w[np.abs(w) > 1e-8]
        assert np.allclose(beyond, np.sort(np.concatenate([outer, -outer])), rtol=0.0, atol=1e-14)
        assert d._dense is None

    @pytest.mark.parametrize("inner", [(), (0.3,)])
    def test_a_block_with_one_ritz_value_inside_the_threshold_widens(self, inner):
        # BLOCK_START - 1 eigenvalues of 0.8, and 0 or 0.3 next: the first block spans the
        # range of D, so its remainder is at rounding level, but it holds only one Ritz value
        # <= 0.5 on the positive side, one too few to read an unfolded count: it must widen.
        # A wider block reads a zero eigenvalue on the negative side, so rho is at rounding
        # level and how far it widens depends on the rounding of R
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((200, 200)))[0]
        outer = np.full(BLOCK_START - 1, 0.8)
        f = np.concatenate([outer, inner, np.zeros(200 - outer.size - len(inner))])
        d = SpectralDifference(q, f, np.zeros(200))
        w = d.window_eigenvalues(0.5)
        assert w.size == 2 * BLOCK_START
        beyond = w[np.abs(w) > 1e-8]
        expected = np.concatenate([inner, outer])
        assert beyond.shape == expected.shape
        assert np.allclose(beyond, expected, rtol=0.0, atol=1e-14)

    def test_small_matrices_use_the_dense_spectrum(self):
        # a block of min(BLOCK_START, n) = n columns spans the whole space: Rayleigh-Ritz is exact
        f = np.linspace(-0.9, 0.9, 8)
        q = np.eye(8)
        d = SpectralDifference(q, f, np.zeros(8))
        assert np.allclose(d.window_eigenvalues(0.4), f, rtol=0.0, atol=1e-15)
        assert d._dense is None

    def test_a_zero_difference_has_zero_ritz_values(self):
        # D Ω = 0: the block pass's kick alone spans the block, and V^T D V = 0
        q = np.linalg.qr(np.random.default_rng(3).standard_normal((50, 50)))[0]
        d = SpectralDifference(q, np.zeros(50), np.zeros(50))
        assert np.array_equal(d.window_eigenvalues(0.4), np.zeros(BLOCK_START))

    def test_a_rank_deficient_block_without_its_kick_raises(self, monkeypatch):
        monkeypatch.setattr(matrices, "BASIS_KICK", 0.0)
        q = np.linalg.qr(np.random.default_rng(3).standard_normal((50, 50)))[0]
        d = SpectralDifference(q, np.zeros(50), np.zeros(50))
        with pytest.raises(EigendecompositionError, match="not of full rank"):
            d.window_eigenvalues(0.4)

    def test_fill_takes_points_on_one_q(self, model):
        psi = builtin_profile("ARCTAN_HALF")
        other = RankOneModel(n=400, c=-0.7)
        points = [model.build_d_eps(psi, 0.1, 0.0), other.build_d_eps(psi, 0.1, 0.0)]
        with pytest.raises(ValueError, match="one Q"):
            SpectralDifference.fill(points)

    def test_validation(self):
        q = np.eye(3)
        with pytest.raises(ValueError, match="shapes"):
            SpectralDifference(q, np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            SpectralDifference(q, np.array([0.0, np.nan, 0.0]), np.zeros(3))
        d = SpectralDifference(q, np.zeros(3), np.zeros(3))
        for m in (0, True, 1.0):
            with pytest.raises(ValueError):
                d.trace_power(m)
        with pytest.raises(ValueError):
            d.window_eigenvalues(0.0)


def dense_spectrum(model, psi, eps, lam):
    """Eigenvalues of the n x n D_eps from the dense H's own eigendecomposition."""
    w, q = model.h.eig()
    d = (q * psi((w - lam) / eps)) @ q.T - np.diag(psi((model.nodes - lam) / eps))
    return np.linalg.eigvalsh((d + d.T) / 2.0)


class TestKeptBlock:
    """D_eps on H's kept block against the n x n D_eps from the dense H."""

    CASES = {
        "zero coupling, m = 0": (dict(n=400, c=0.0), 0.0, lambda m, n: m == 0),
        "sech bump, m = n": (dict(n=400, bump="sech"), 0.0, lambda m, n: m == n),
        # no n keeps fewer than 25 nodes at L = 8 (n = 51; below it the build refuses), so a
        # kept block below BLOCK_START comes from a narrower model
        "m < BLOCK_START": (dict(L=3.0, n=22), 0.0, lambda m, n: 0 < m < BLOCK_START),
        "negative coupling": (dict(n=400, c=-0.7), 0.0, lambda m, n: 0 < m < n),
        "lam = 0.2": (dict(n=400), 0.2, lambda m, n: 0 < m < n),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("eps", [0.1, 0.03])
    def test_matches_the_dense_d_eps(self, case, eps):
        spec, lam, size_ok = self.CASES[case]
        model = RankOneModel(**spec)
        assert size_ok(model.kept.size, model.n)
        psi = builtin_profile("TANH_HALF")
        d = model.build_d_eps(psi, eps, lam)
        y = dense_spectrum(model, psi, eps, lam)
        assert d.dim == model.kept.size
        for m in (1, 2, 3, 4):
            exact = float(np.sum(y ** float(m)))
            assert abs(d.trace_power(m) - exact) <= 1e-11 * max(1.0, abs(exact)), m
        bands = BandSet([model.scattering_point(lam).a1])
        for window in WINDOWS + ((0.01, 1.0),):
            partial = d.window_eigenvalues(min(abs(window[0]), abs(window[1])))
            assert count_window(partial, window) == count_window(y, window)
            assert unfolded_count(partial, window, bands) == pytest.approx(
                unfolded_count(y, window, bands), abs=1e-12
            )
        if model.block is None:  # D = 0: exact zeros, and nothing to count
            assert [d.trace_power(m) for m in (1, 2, 3, 4)] == [0.0] * 4
            assert all(count_window(d.window_eigenvalues(min(abs(lo), abs(hi))), (lo, hi)) == 0
                       for lo, hi in WINDOWS)

    @pytest.fixture
    def secular_calls(self, monkeypatch):
        """Sizes of the secular solves that the test runs."""
        calls = []
        solve = matrices._secular_eig

        def recording(d, z, reverse=False):
            calls.append(d.size)
            return solve(d, z, reverse)

        monkeypatch.setattr(matrices, "_secular_eig", recording)
        return calls

    def test_h_is_solved_on_its_kept_block_only(self, secular_calls):
        # H's deflated nodes keep (x_j, e_j): it is never completed to n x n
        model = RankOneModel(n=400)
        assert model.kept.size < 400
        with pytest.raises(ValueError, match="solve block"):
            model.rank_one.eig()
        assert model.solve()[0].size == model.kept.size
        assert secular_calls == [model.kept.size]

    @pytest.mark.parametrize("c", [0.5, 0.0])
    def test_solve_is_one_cached_step(self, secular_calls, c):
        # fill compares Q by identity: every call returns the same two arrays
        model = RankOneModel(n=400, c=c)
        w, q = model.solve()
        w_again, q_again = model.solve()
        assert w_again is w and q_again is q
        m = model.kept.size
        assert secular_calls == ([m] if m else [])
        assert (w.shape, q.shape) == ((m,), (m, m))

    def test_the_block_is_its_own_split(self, secular_calls):
        # no node of the kept block deflates: its eig solves it, with no copy made
        model = RankOneModel(n=400)
        model.solve()
        kept = model.block.kept()
        assert kept.size == model.block.dim and model.block.block(kept) is model.block
        assert secular_calls == [model.kept.size]

    @pytest.mark.parametrize("c", [0.5, -0.7])
    def test_eig_peak_memory_stays_near_one_block_array(self, c):
        # Q itself, formed from delta in place, and the m x STRIP_WIDTH work arrays
        model = RankOneModel(n=1500, c=c)
        tracemalloc.start()
        try:
            q = model.block.eig()[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = model.kept.size
        assert q.shape == (m, m) and q.flags.c_contiguous
        assert peak <= 1.5 * 8 * m * m

    @pytest.mark.parametrize("c", [0.5, -0.7, 2.0])
    @pytest.mark.parametrize("n", [800, 1500])
    def test_strips_change_no_arithmetic(self, monkeypatch, n, c):
        # a strip wider than the block makes every pass whole: (w, Q) and the
        # traces must not move by a bit
        def solved():
            model = RankOneModel(n=n, c=c)
            w, q = model.solve()[:2]
            d = model.build_d_eps(builtin_profile("ARCTAN_HALF"), 0.01, 0.0)
            return w, q, [d.trace_power(k) for k in (1, 2, 3)]

        w, q, traces = solved()
        assert q.shape[0] > matrices.STRIP_WIDTH + 1
        monkeypatch.setattr(matrices, "STRIP_WIDTH", n + 1)
        w_wide, q_wide, traces_wide = solved()
        assert np.array_equal(w, w_wide) and np.array_equal(q, q_wide)
        assert traces == traces_wide


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

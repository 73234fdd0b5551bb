"""Acceptance scoreboard: one test per release criterion, each at a fixed tolerance.

Each test prints a single PASS/FAIL scoreboard line (run with -s to see them
live; failed lines also appear in the captured-output section of the report)
and then asserts the same condition, so the suite documents the verdicts and
enforces them.  The slope criteria drive the full default model: a handful of
sweeps at n = 4000, each one O(n^2) secular eigensolve of H and eight to
thirteen eps points with one block pass each, so this module takes tens of
seconds where the unit suites take seconds.

The paper's laws are limits as eps -> +0, and the windows here are short and
pre-asymptotic, so three criteria gate on estimators of the limit rather than
on plain least-squares (OLS) slopes; their lines print the OLS numbers too.

- 02 gates ``TraceSlopeResult.extrapolated``: Aitken's delta-squared on the
  last three local slopes.  The K_eps traces carry a transient of order
  eps |log eps|^(m-2), which pulls OLS over [1e-5, 1e-2] 4.7% off for m = 4
  and 16.6% off for m = 6.
- 09 and 11 gate the slopes of the unfolded window counts.  The integer count
  in (0.4, 1) changes at most once over the sweep, so its OLS slope is 0,
  0.285 or 0.380 depending only on where the single step falls.  Unfolded in
  u(y) = band_count_slope(bands, |y|), where mu is uniform, the count stays
  within 1/2 of the integer count and advances steadily; both criteria also
  assert that bound on every clean record.
- 10 (profile universality) and 12 (odd trace slope) still gate OLS and still
  fail.  Unfolded, the worst pairwise deviation of 10 is 9.9% at n = 4000 but
  10.9% at n = 8000: at eps = 3e-3 the guard admits points that are not
  resolved for the steeper profiles, and TANH_HALF's local unfolded slope is
  still climbing (0.102 to 0.136).  The Tr D^3 slope of 12 fits at -0.025
  (n = 4000) and -0.026 (n = 8000) while its local slopes still shrink
  (-0.040 to -0.011); the delta-squared estimate flips sign between the two
  sizes, so no estimator checked so far settles it.
"""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

from specdiff.density import BandSet, band_count_slope, mu, sech_moment
from specdiff.experiments import (
    default_config,
    negative_control_study,
    run_sweep,
    symmetry_study,
    trace_formula_study,
    universality_study,
)
from specdiff.hankel import (
    default_grid,
    default_laplace_grid,
    discretize_hankel,
    k_eps_kernel,
    k_eps_trace_exact,
    k_eps_trace_slopes,
    kernel_from_symbol,
    laplace_section,
)
from specdiff.matrices import (
    SelfAdjointMatrix,
    schatten_norm,
    sho_assemble,
    singular_values,
    trace_powers,
)
from specdiff.models import RankOneModel
from specdiff.profiles import builtin_profile, zeta, zeta_eps

COUNT_KEY = "count (0.4,1)"


def verdict(number: int, name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {number:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def unfolding_gap(result, count_key: str) -> float:
    """Largest |unfolded - integer count| over the clean records of a sweep."""
    window = count_key.removeprefix("count ")
    return max(abs(r.unfolded[window] - r.counts[window]) for r in result.clean_records())


@pytest.fixture(scope="module")
def shared():
    """Default-model sweep shared by the slope criteria (runs once)."""
    return trace_formula_study(default_config())


@pytest.fixture(scope="module")
def extended(shared):
    """The same sweep extended one decade at matched point density."""
    cfg = shared.result.config
    return run_sweep(replace(cfg, eps_stop=cfg.eps_stop / 10.0, eps_count=13))


@pytest.fixture(scope="module")
def symmetry():
    return symmetry_study(default_config())


@pytest.fixture(scope="module")
def universality():
    return universality_study(
        default_config(), profiles=("ARCTAN_HALF", "TANH_HALF", "MOLLIFIED_STEP")
    )


class TestKernelOracles:
    def test_criterion_01_exact_traces(self):
        worst = 0.0
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            grid = default_grid(eps)
            assert grid.size <= 4000
            k = discretize_hankel(partial(k_eps_kernel, eps=eps), grid)
            for m in (1, 2):
                exact = k_eps_trace_exact(eps, m)
                worst = max(worst, abs(trace_powers(k, (m,))[m] - exact) / exact)
        assert verdict(
            1, "exact traces of K_eps", worst <= 1e-6,
            f"worst relative error {worst:.3e} (tolerance 1e-6)",
        )

    def test_criterion_02_trace_slope_law(self):
        # The limit slope is gated: plain OLS over this window carries the
        # O(eps |log eps|^(m-2)) transient and is printed alongside.
        tolerances = {1: 0.01, 2: 0.01, 3: 0.02, 4: 0.02, 6: 0.02}
        res = k_eps_trace_slopes(list(tolerances), np.geomspace(1e-2, 1e-5, 7))
        deviations, ols = {}, {}
        for m in tolerances:
            assert res.predicted[m] == pytest.approx(
                sech_moment(m) / (2.0 * math.pi**2), rel=1e-12
            )
            deviations[m] = abs(res.extrapolated[m] - res.predicted[m]) / res.predicted[m]
            ols[m] = abs(res.fitted[m] - res.predicted[m]) / res.predicted[m]
        bad = [m for m, d in deviations.items() if d > tolerances[m]]
        detail = ", ".join(
            f"m={m}: {deviations[m]:.2%} (tol {tolerances[m]:.0%}; OLS {ols[m]:.2%})"
            for m in tolerances
        )
        assert verdict(2, "trace slope law", not bad, detail)

    def test_criterion_03_laplace_factorization(self):
        worst_err, worst_min = 0.0, 0.0
        for eps in (1e-2, 1e-3):
            gt, gx = default_grid(eps), default_laplace_grid(eps)
            k = discretize_hankel(partial(k_eps_kernel, eps=eps), gt)
            sec = laplace_section(eps, gt, gx)
            gram = (sec.entries.T @ sec.entries) / math.pi
            worst_err = max(worst_err, float(np.max(np.abs(k.entries - gram))))
            worst_min = min(worst_min, float(k.eigenvalues()[0]))
        ok = worst_err <= 1e-8 and worst_min >= -1e-10
        assert verdict(
            3, "Laplace factorization", ok,
            f"reconstruction error {worst_err:.3e} (tolerance 1e-8), "
            f"min eigenvalue {worst_min:.3e} (floor -1e-10)",
        )

    def test_criterion_04_kernel_round_trip(self):
        t = np.linspace(0.1, 10.0, 40)
        worst = 0.0
        for eps in (0.5, 0.1):
            omega = lambda x, e=eps: zeta_eps(x, e) - zeta(x)
            recovered = kernel_from_symbol(omega, t)
            worst = max(worst, float(np.max(np.abs(recovered - k_eps_kernel(t, eps)))))
        assert verdict(
            4, "kernel round-trip", worst <= 1e-6,
            f"sup error {worst:.3e} on t in [0.1, 10] (tolerance 1e-6)",
        )


class TestMatrixOracles:
    def test_criterion_05_sho_spectrum(self):
        rng = np.random.default_rng(20260814)
        worst = 0.0
        for _ in range(100):
            r, c = int(rng.integers(1, 41)), int(rng.integers(1, 61))
            x = rng.standard_normal((r, c))
            s = singular_values(x)
            w = np.sort(sho_assemble(x).eigenvalues())
            expected = np.sort(np.concatenate([s, -s, np.zeros(abs(r - c))]))
            worst = max(worst, float(np.max(np.abs(w - expected))))
        assert verdict(
            5, "SHO spectrum", worst <= 1e-10,
            f"worst eigenvalue mismatch {worst:.3e} over 100 matrices (tolerance 1e-10)",
        )

    def test_criterion_06_matrix_inequalities(self):
        rng = np.random.default_rng(31)
        holder_slack = math.inf
        for i in range(100):
            n = int(rng.integers(2, 13))
            x = rng.standard_normal((n, n))
            y = rng.standard_normal((n, n))
            p, q, r = ((2, 2, 1), (4, 4, 2))[i % 2]
            slack = schatten_norm(x, p) * schatten_norm(y, q) - schatten_norm(x @ y, r)
            holder_slack = min(holder_slack, slack)
        trace_slack = math.inf
        for i in range(100):
            n = int(rng.integers(2, 13))
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            x = SelfAdjointMatrix((a + a.T) / 2.0)
            y = SelfAdjointMatrix((b + b.T) / 2.0)
            m = (2, 3, 4)[i % 3]
            lhs = abs(trace_powers(x, (m,))[m] - trace_powers(y, (m,))[m])
            rhs = (
                m
                * schatten_norm(x.entries - y.entries, m)
                * max(schatten_norm(x, m), schatten_norm(y, m)) ** (m - 1)
            )
            trace_slack = min(trace_slack, rhs - lhs)
        ok = holder_slack >= -1e-10 and trace_slack >= -1e-10
        assert verdict(
            6, "matrix inequalities", ok,
            f"min Holder slack {holder_slack:.3e}, min trace-difference slack "
            f"{trace_slack:.3e} (floor -1e-10), 100 instances each",
        )


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
class TestDensityOracles:
    def test_criterion_07_density_consistency(self):
        rng = np.random.default_rng(7)
        worst_mass, worst_even, worst_odd = 0.0, 0.0, 0.0
        g = lambda y: y**3 - 0.5 * y
        for _ in range(20):
            bands = BandSet(rng.uniform(0.05, 1.0, size=int(rng.integers(1, 5))))
            for b in (0.1, 0.3, 0.5):
                interior = [a for a in bands if b < a < 1.0]
                numeric, _ = quad(
                    lambda y: mu(bands, y), b, 1.0,
                    points=interior, limit=300, epsabs=1e-11, epsrel=1e-11,
                )
                worst_mass = max(worst_mass, abs(numeric - band_count_slope(bands, b)))
            for y in np.linspace(0.04, 0.96, 24):
                worst_even = max(worst_even, abs(mu(bands, y) - mu(bands, -y)))
            upper, _ = quad(
                lambda y: g(y) * mu(bands, y), 0.05, 1.0,
                points=list(bands), limit=300, epsabs=1e-12,
            )
            lower, _ = quad(
                lambda y: g(y) * mu(bands, y), -1.0, -0.05,
                points=[-a for a in bands], limit=300, epsabs=1e-12,
            )
            worst_odd = max(worst_odd, abs(upper + lower))
        ok = worst_mass <= 1e-8 and worst_even <= 1e-10 and worst_odd <= 1e-10
        assert verdict(
            7, "density consistency", ok,
            f"worst mass error {worst_mass:.3e} (tolerance 1e-8), evenness defect "
            f"{worst_even:.3e}, odd-integrand defect {worst_odd:.3e} (tolerance 1e-10)",
        )


class TestScatteringOracles:
    def test_criterion_08_scattering_anchors(self):
        model = RankOneModel()
        worst = max(
            abs(abs(model.scattering_point(lam).s) - 1.0)
            for lam in np.linspace(-2.0, 2.0, 50)
        )
        a1 = model.scattering_point(0.0).a1
        ok = worst <= 1e-8 and abs(a1 - 0.84356) <= 1e-4
        assert verdict(
            8, "scattering anchors", ok,
            f"worst |S| defect {worst:.3e} on 50 energies (tolerance 1e-8), "
            f"a1(0) = {a1:.6f} vs 0.84356 (tolerance 1e-4)",
        )


class TestSlopeLaws:
    def test_criterion_09_count_slope(self, shared, extended):
        # Gated on the unfolded count, whose slope follows the window mass; the
        # integer count is a 0-or-1 staircase here and its OLS slope is printed.
        base = shared.result
        unfolded = base.unfolded_slopes[COUNT_KEY]
        predicted = base.predicted_slopes[COUNT_KEY]
        assert predicted == pytest.approx(0.1396, abs=2e-3)
        deviation = base.unfolded_deviations[COUNT_KEY]
        base_floor = min(r.epsilon for r in base.clean_records())
        ext_floor = min(r.epsilon for r in extended.clean_records())
        if ext_floor < base_floor * 0.999:
            ext_dev = extended.unfolded_deviations[COUNT_KEY]
            shrink_ok = ext_dev <= deviation + 1e-12
            note = (
                f"extended-decade deviation {ext_dev:.1%} "
                f"({'shrank' if shrink_ok else 'grew'})"
            )
        else:
            # guard flags every extension point, so the clause is vacuous here
            shrink_ok = True
            note = (
                f"extension guard-blocked (clean floor {ext_floor:.2e} "
                f"vs base {base_floor:.2e})"
            )
        gap = max(unfolding_gap(res, COUNT_KEY) for res in (base, extended))
        ok = deviation <= 0.15 and shrink_ok and gap <= 0.5
        assert verdict(
            9, "count-slope law", ok,
            f"unfolded {unfolded:+.4f} vs predicted {predicted:+.4f}, deviation "
            f"{deviation:.1%} (tolerance 15%), max |unfolded - count| {gap:.3f} "
            f"(bound 1/2); OLS of integer counts {base.fitted_slopes[COUNT_KEY]:+.4f} "
            f"({base.deviations[COUNT_KEY]:.1%}); {note}",
        )

    def test_criterion_10_universality(self, universality):
        worst = universality.pairwise_deviation[COUNT_KEY]
        slopes = ", ".join(
            f"{name} {res.fitted_slopes[COUNT_KEY]:+.4f}"
            for name, res in universality.results.items()
        )
        assert verdict(
            10, "profile universality", worst <= 0.10,
            f"worst pairwise slope deviation {worst:.1%} (tolerance 10%); {slopes}",
        )

    def test_criterion_11_window_symmetry(self, symmetry):
        # Gated on the unfolded counts; the OLS slopes of the integer counts
        # (the SymmetryResult fields) are printed alongside.
        res = symmetry.result
        pos_key, neg_key = "count (0.4,inf)", "count (-inf,-0.4)"
        pos, neg = res.unfolded_slopes[pos_key], res.unfolded_slopes[neg_key]
        deviation = abs(pos - neg) / max(abs(pos), abs(neg))
        gap = max(unfolding_gap(res, key) for key in (pos_key, neg_key))
        ok = deviation <= 0.10 and gap <= 0.5
        assert verdict(
            11, "window symmetry", ok,
            f"unfolded slopes {pos:+.4f} on (0.4, inf) and {neg:+.4f} on (-inf, -0.4), "
            f"deviation {deviation:.1%} (tolerance 10%), max |unfolded - count| "
            f"{gap:.3f} (bound 1/2); OLS of integer counts "
            f"{symmetry.positive_slope:+.4f} and {symmetry.negative_slope:+.4f} "
            f"({symmetry.deviation:.1%})",
        )

    def test_criterion_12_odd_trace_slope(self, shared):
        slope = shared.result.fitted_slopes["trace m=3"]
        assert verdict(
            12, "odd trace slope", abs(slope) <= 0.02,
            f"Tr D_eps^3 slope {slope:+.4f} (tolerance 0.02 absolute)",
        )

    def test_criterion_13_trace_formula(self, shared):
        bound = max(abs(t) for t in shared.traces)
        ok = bound <= 1.0 and shared.deviation <= 0.05
        assert verdict(
            13, "trace formula", ok,
            f"max |Tr D_eps| {bound:.4f} (bound 1), limit {shared.limit:+.4f} vs "
            f"{shared.predicted:+.4f}, deviation {shared.deviation:.4f} (tolerance 0.05)",
        )

    def test_criterion_14_negative_control(self, shared):
        eps_values = np.geomspace(1e-1, 3e-3, 8)
        profile = builtin_profile("MOLLIFIED_STEP")
        baseline = shared.result.residuals[COUNT_KEY]
        parts, ratios, slopes_ok = [], {}, True
        for alpha in (1.0, 0.5):
            control = negative_control_study(alpha, profile, eps_values)
            slope_dev = abs(control.loglog_fit.slope - alpha) / alpha
            ratios[alpha] = control.loglaw_fit.residual_rms / baseline
            slopes_ok = slopes_ok and slope_dev <= 0.10
            parts.append(
                f"alpha={alpha:g}: log-log slope {control.loglog_fit.slope:.3f} "
                f"({slope_dev:.1%} off), log-law residual {ratios[alpha]:.1f}x baseline"
            )
        ok = slopes_ok and ratios[1.0] >= 10.0
        assert verdict(14, "negative control", ok, "; ".join(parts))

"""Sweep harness: configs, counting, fitting, studies, and output formats."""

import csv
import json
import math
import warnings

import numpy as np
import pytest

from specdiff.experiments import (
    ConfigError,
    ModelSpec,
    ResolutionGuardError,
    SweepConfig,
    count_window,
    default_config,
    negative_control_study,
    predicted_window_slope,
    run_sweep,
    slope_fit,
    symmetry_study,
    trace_formula_study,
    unfolded_count,
    universality_study,
)
from specdiff.density import BandSet, band_count_slope
from specdiff.matrices import SelfAdjointMatrix, SpectralDifference
from specdiff.models import ResolutionGuardWarning
from specdiff.profiles import builtin_profile

# small-n config: guard floor is 0.4 * pi * 8 / 400 ~ 0.025, so eps down to
# 0.03 stays clean and each sweep costs a fraction of a second
SMALL = dict(
    model=ModelSpec(n=400),
    eps_start=0.3,
    eps_stop=0.03,
    eps_count=5,
)


def small_config(**overrides):
    return default_config(**{**SMALL, **overrides})


class TestCountWindow:
    def test_zero_matrix(self):
        assert count_window(SelfAdjointMatrix(np.zeros((3, 3))), (0.3, 1.0)) == 0

    def test_diagonal_example(self):
        d = SelfAdjointMatrix(np.diag([0.5, -0.5, 0.1]))
        assert count_window(d, (0.3, 1.0)) == 1

    def test_boundary_counts_as_outside(self):
        d = SelfAdjointMatrix(np.diag([0.4, 0.7, 1.0]))
        assert count_window(d, (0.4, 1.0)) == 1

    def test_accepts_eigenvalue_arrays(self):
        assert count_window(np.array([-0.6, 0.5, 0.45]), (0.4, 1.0)) == 2

    def test_window_validation(self):
        d = SelfAdjointMatrix(np.eye(2))
        for window in ((-0.5, 0.5), (0.0, 1.0), (-1.0, 0.0), (0.7, 0.4), (0.1, np.nan)):
            with pytest.raises(ConfigError):
                count_window(d, window)

    def test_matches_indicator_trace_route(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((30, 30))
        d = SelfAdjointMatrix((a + a.T) / 2.0)
        w, q = d.eig()
        for window in ((0.2, 0.9), (-3.0, -0.1), (1.0, math.inf)):
            lo, hi = window
            indicator = lambda x: ((x > lo) & (x < hi)).astype(float)
            tr = float(np.trace((q * indicator(w)) @ q.T))
            assert count_window(d, window) == int(round(tr))

    def test_monotone_in_the_window(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((25, 25))
        d = SelfAdjointMatrix((a + a.T) / 2.0)
        assert count_window(d, (0.5, 2.0)) <= count_window(d, (0.3, 4.0))


class TestSlopeFit:
    def test_exact_line(self):
        x = np.arange(5.0)
        fit = slope_fit(x, 2.0 * x + 1.0)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)

    def test_constant_data(self):
        assert slope_fit([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]).slope == pytest.approx(0.0, abs=1e-14)

    def test_noisy_line_within_ols_error(self):
        rng = np.random.default_rng(17)
        x = np.linspace(0.0, 10.0, 30)
        sigma = 0.01
        y = 2.0 * x + 1.0 + sigma * rng.standard_normal(30)
        fit = slope_fit(x, y)
        bound = 3.0 * sigma / math.sqrt(float(np.sum((x - x.mean()) ** 2)))
        assert abs(fit.slope - 2.0) < bound

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            slope_fit([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            slope_fit([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            slope_fit([1.0, 2.0, 3.0], [[1.0], [2.0], [3.0]])


class TestPredictedWindowSlope:
    def test_positive_window(self):
        bands = BandSet([0.8])
        expected = band_count_slope(bands, 0.4)  # hi = 1.0 contributes nothing
        assert predicted_window_slope(bands, (0.4, 1.0)) == pytest.approx(expected)

    def test_mirror_window_by_evenness(self):
        bands = BandSet([0.8])
        assert predicted_window_slope(bands, (-1.0, -0.4)) == pytest.approx(
            predicted_window_slope(bands, (0.4, 1.0))
        )

    def test_half_line_window(self):
        bands = BandSet([0.8])
        assert predicted_window_slope(bands, (0.4, math.inf)) == pytest.approx(
            band_count_slope(bands, 0.4)
        )


class TestSweepConfig:
    def test_defaults_are_valid(self):
        cfg = default_config()
        assert cfg.model.n == 4000
        assert cfg.windows == ((0.4, 1.0),)
        grid = cfg.epsilon_grid()
        assert grid[0] == pytest.approx(0.1) and grid[-1] == pytest.approx(3e-3)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            default_config(eps_start=1e-3, eps_stop=1e-1)
        with pytest.raises(ConfigError):
            default_config(eps_count=2)
        with pytest.raises(ConfigError):
            default_config(profiles=("NOT_A_PROFILE",))
        with pytest.raises(ConfigError):
            default_config(windows=((-0.5, 0.5),))
        with pytest.raises(ConfigError):
            default_config(trace_powers=(1, 1))
        with pytest.raises(ConfigError):
            default_config(trace_powers=(0,))
        with pytest.raises(ConfigError):
            default_config(windows=(), trace_powers=())
        with pytest.raises(ConfigError):
            default_config(kappa=0.0)
        with pytest.raises(ConfigError):
            default_config(tolerance=-1.0)

    def test_dict_round_trip(self):
        cfg = small_config(windows=((0.4, 1.0), (0.2, math.inf)))
        again = SweepConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_null_bounds_become_infinite(self):
        cfg = SweepConfig.from_dict({"windows": [[0.4, None], [None, -0.4]]})
        assert cfg.windows == ((0.4, math.inf), (-math.inf, -0.4))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            SweepConfig.from_dict({"modle": {}})

    def test_bad_epsilon_block(self):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict({"epsilon": {"start": 0.1, "midpoint": 0.01}})

    def test_non_integer_count_rejected_not_truncated(self):
        for count in (8.7, 8.0, True):
            with pytest.raises(ConfigError, match="epsilon count"):
                SweepConfig.from_dict({"epsilon": {"count": count}})

    def test_non_integer_power_rejected_not_truncated(self):
        for power in (2.5, 2.0, True):
            with pytest.raises(ConfigError, match="trace powers"):
                SweepConfig.from_dict({"trace_powers": [power]})

    def test_non_string_output_rejected(self):
        for output in (5, ["sw"], {"path": "sw"}):
            with pytest.raises(ConfigError, match="output"):
                SweepConfig.from_dict({"output": output})
        assert SweepConfig.from_dict({"output": None}).output is None

    @pytest.mark.parametrize("data, message", [
        ({"trace_powers": 5}, "trace_powers must be a list"),
        ({"profiles": 5}, "profiles must be a list"),
        ({"windows": 5}, "windows must be a list"),
        ({"lambda": [1]}, "lambda must be a number"),
    ])
    def test_wrong_value_type_rejected(self, data, message):
        with pytest.raises(ConfigError, match=message):
            SweepConfig.from_dict(data)

    def test_legacy_workers_and_seed_are_ignored(self):
        assert SweepConfig.from_dict({"workers": 4, "seed": 7}) == SweepConfig()

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        cfg = small_config(lam=0.5)
        path.write_text(json.dumps(cfg.to_dict()))
        assert SweepConfig.from_json(path) == cfg

    def test_json_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            SweepConfig.from_json(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            SweepConfig.from_json(bad)


@pytest.fixture(scope="module")
def small_sweep():
    return run_sweep(small_config())


class TestRunSweep:
    def test_record_shape(self, small_sweep):
        res = small_sweep
        assert len(res.records) == 5
        assert all(not r.guard_flag for r in res.records)
        for r in res.records:
            assert set(r.counts) == {"(0.4,1)"}
            assert set(r.traces) == {1, 2, 3}
            assert all(isinstance(c, int) and c >= 0 for c in r.counts.values())
        assert res.profile == "ARCTAN_HALF"
        assert len(res.band_edges) == 1

    def test_fit_keys_and_finiteness(self, small_sweep):
        keys = {"count (0.4,1)", "trace m=1", "trace m=2", "trace m=3"}
        assert set(small_sweep.fitted_slopes) == keys
        assert set(small_sweep.predicted_slopes) == keys
        for v in small_sweep.fitted_slopes.values():
            assert math.isfinite(v)

    def test_zero_coupling_is_exactly_null(self):
        res = run_sweep(small_config(model=ModelSpec(n=400, c=0.0)))
        for r in res.records:
            assert r.counts["(0.4,1)"] == 0
        assert res.fitted_slopes["count (0.4,1)"] == pytest.approx(0.0, abs=1e-12)
        assert res.predicted_slopes["count (0.4,1)"] == 0.0
        assert res.deviations["count (0.4,1)"] == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_records(self):
        cfg = small_config()
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        assert a.summary_dict() == b.summary_dict()
        assert [r.epsilon for r in a.records] == sorted(
            (r.epsilon for r in a.records), reverse=True
        )

    def test_all_flagged_is_a_hard_error(self):
        with pytest.raises(ResolutionGuardError):
            run_sweep(small_config(eps_start=0.02, eps_stop=0.005))

    def test_too_few_clean_points_is_a_hard_error(self):
        with pytest.raises(ResolutionGuardError):
            run_sweep(small_config(eps_start=0.04, eps_stop=0.01))

    def test_flagged_points_are_kept_but_not_fitted(self):
        res = run_sweep(small_config(eps_start=0.3, eps_stop=0.02))
        assert any(r.guard_flag for r in res.records)
        assert len(res.clean_records()) >= 3
        assert len(res.clean_records()) < len(res.records)


class TestStructuredSweep:
    """run_sweep reads the factored D_eps; its dense spectrum is the oracle."""

    WINDOWS = ((0.4, 1.0), (0.4, math.inf), (-math.inf, -0.4), (0.1, 0.3))

    @staticmethod
    def dense_spectra(config, name):
        model = config.model.build()
        prof = builtin_profile(name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionGuardWarning)
            return [model.build_d_eps(prof, float(eps), config.lam, kappa=config.kappa)
                    .eigenvalues() for eps in config.epsilon_grid()]

    @pytest.mark.parametrize("lam", [0.0, 0.2])
    @pytest.mark.parametrize("name", ["ARCTAN_HALF", "TANH_HALF", "MOLLIFIED_STEP"])
    def test_records_match_the_dense_spectrum(self, name, lam):
        # eps down to 0.02 puts the last point below the n = 400 guard floor
        cfg = small_config(lam=lam, eps_stop=0.02, windows=self.WINDOWS)
        res = run_sweep(cfg, profile=name)
        assert res.records[-1].guard_flag
        bands = BandSet(res.band_edges)
        for r, w in zip(res.records, self.dense_spectra(cfg, name)):
            for win in self.WINDOWS:
                key = f"({win[0]:g},{win[1]:g})"
                assert r.counts[key] == count_window(w, win)
                assert r.unfolded[key] == pytest.approx(unfolded_count(w, win, bands), abs=1e-12)
            for m in (1, 2, 3):
                exact = float(np.sum(w ** float(m)))
                assert abs(r.traces[m] - exact) <= 1e-11 * float(np.sum(np.abs(w) ** m))

    def test_fourth_power_takes_the_dense_path(self):
        cfg = small_config(trace_powers=(4,), windows=self.WINDOWS)
        res = run_sweep(cfg)
        bands = BandSet(res.band_edges)
        for r, w in zip(res.records, self.dense_spectra(cfg, "ARCTAN_HALF")):
            assert r.traces == {4: float(np.sum(w**4.0))}
            for win in self.WINDOWS:
                key = f"({win[0]:g},{win[1]:g})"
                assert r.counts[key] == count_window(w, win)
                assert r.unfolded[key] == unfolded_count(w, win, bands)

    @pytest.mark.parametrize("c, dense_builds", [(0.0, 5), (0.5, 0)])
    def test_only_zero_coupling_builds_dense_matrices(self, monkeypatch, c, dense_builds):
        built = []
        dense = SpectralDifference.dense

        def counted(self):
            built.append(self)
            return dense(self)

        monkeypatch.setattr(SpectralDifference, "dense", counted)
        run_sweep(small_config(model=ModelSpec(n=400, c=c)))
        assert len(built) == dense_builds

    def test_reruns_are_bitwise_identical(self):
        cfg = small_config(windows=self.WINDOWS)
        assert run_sweep(cfg).records == run_sweep(cfg).records


class TestUnfoldedCount:
    A1 = 0.84356

    def ladder(self, log_scale, phase=0.3):
        # +-a1 sech(pi^2 (k - phase) / log_scale), the two signs interlaced
        k = np.arange(1, 61, dtype=float)
        pos = self.A1 / np.cosh(np.pi**2 * (k - phase) / log_scale)
        neg = -self.A1 / np.cosh(np.pi**2 * (k - phase - 0.5) / log_scale)
        return np.sort(np.concatenate([pos, neg, np.zeros(5)]))

    def test_ladder_slope_is_the_window_mass(self):
        bands = BandSet([self.A1])
        scales = np.linspace(2.0, 30.0, 8)
        for window, b in (((0.4, 1.0), 0.4), ((-math.inf, -0.3), 0.3)):
            values = [unfolded_count(self.ladder(s), window, bands) for s in scales]
            counts = [count_window(self.ladder(s), window) for s in scales]
            assert slope_fit(scales, values).slope == pytest.approx(
                band_count_slope(bands, b), rel=1e-10
            )
            assert max(abs(v - c) for v, c in zip(values, counts)) <= 0.5

    def test_mirror_window_on_mirrored_spectrum(self):
        bands = BandSet([self.A1])
        w = self.ladder(7.0)
        assert unfolded_count(w, (-1.0, -0.4), bands) == pytest.approx(
            unfolded_count(np.sort(-w), (0.4, 1.0), bands), abs=1e-15
        )

    def test_within_half_of_the_count_on_a_sweep(self, small_sweep):
        key = "(0.4,1)"
        for r in small_sweep.records:
            assert abs(r.unfolded[key] - r.counts[key]) <= 0.5
        assert set(small_sweep.unfolded_slopes) == {"count (0.4,1)"}
        assert set(small_sweep.unfolded_deviations) == {"count (0.4,1)"}
        assert math.isfinite(small_sweep.unfolded_slopes["count (0.4,1)"])

    def test_zero_coupling_gives_exactly_zero(self):
        res = run_sweep(small_config(model=ModelSpec(n=400, c=0.0)))
        for r in res.records:
            assert r.unfolded["(0.4,1)"] == 0.0
        assert res.unfolded_slopes["count (0.4,1)"] == pytest.approx(0.0, abs=1e-12)
        assert res.unfolded_deviations["count (0.4,1)"] == pytest.approx(0.0, abs=1e-12)

    def test_unit_and_infinite_upper_edges_agree(self):
        res = run_sweep(small_config(windows=((0.4, 1.0), (0.4, math.inf))))
        for r in res.records:
            assert r.unfolded["(0.4,1)"] == r.unfolded["(0.4,inf)"]
        assert res.unfolded_slopes["count (0.4,1)"] == res.unfolded_slopes["count (0.4,inf)"]


class TestOutputs:
    def test_csv_format(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        small_sweep.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epsilon", "log_inv_eps", "window", "count", "guard_flag"]
        assert len(rows) == 1 + len(small_sweep.records)
        eps = float(rows[1][0])
        assert eps == small_sweep.records[0].epsilon  # 17 digits round-trips

    def test_json_summary(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.json"
        small_sweep.write_summary(path)
        data = json.loads(path.read_text())
        expected = {
            "fitted_slopes", "predicted_slopes", "deviations", "residuals",
            "records", "band_edges", "xi", "profile", "guard_floor",
        }
        assert expected <= set(data)
        assert len(data["records"]) == len(small_sweep.records)


class TestStudies:
    def test_universality_two_profiles(self):
        res = universality_study(small_config(), profiles=("ARCTAN_HALF", "TANH_HALF"))
        assert set(res.results) == {"ARCTAN_HALF", "TANH_HALF"}
        assert set(res.pairwise_deviation) == {"count (0.4,1)"}
        assert res.max_pairwise() >= 0.0

    def test_universality_needs_two(self):
        with pytest.raises(ConfigError):
            universality_study(small_config(), profiles=("ARCTAN_HALF",))

    def test_symmetry_windows(self):
        res = symmetry_study(small_config(), b=0.4)
        assert math.isfinite(res.positive_slope) and math.isfinite(res.negative_slope)
        assert res.predicted == pytest.approx(
            band_count_slope(BandSet(res.result.band_edges), 0.4)
        )
        with pytest.raises(ConfigError):
            symmetry_study(small_config(), b=0.0)

    def test_trace_formula_bounded_and_adds_power_one(self):
        res = trace_formula_study(small_config(trace_powers=(2,)))
        assert all(abs(t) <= 1.0 for t in res.traces)
        assert math.isfinite(res.limit)
        assert res.predicted == pytest.approx(-res.result.xi)

    def test_negative_control_exponent_recovery(self):
        psi = builtin_profile("MOLLIFIED_STEP")
        res = negative_control_study(1.0, psi, np.geomspace(1e-1, 1e-3, 5), n=10000)
        assert res.counts[0] == 9 and res.counts[-1] == 999
        assert res.loglog_fit.slope == pytest.approx(1.0, rel=0.05)
        assert res.loglaw_fit.residual_rms > 10.0

    def test_negative_control_rejects_empty_counts(self):
        psi = builtin_profile("MOLLIFIED_STEP")
        with pytest.raises(ValueError, match="empty count"):
            negative_control_study(1.0, psi, [2.0, 1.5, 1.2], n=100)

"""Sweep harness: configs, counting, fitting, studies, and output formats."""

import csv
import json
import math
import tracemalloc

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
from specdiff.matrices import (
    BLOCK_START,
    DiagonalPlusRankOne,
    SelfAdjointMatrix,
    SpectralDifference,
)
from specdiff.models import RankOneModel
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
        assert count_window(SelfAdjointMatrix(np.zeros((3, 3))).eigenvalues(), (0.3, 1.0)) == 0

    def test_diagonal_example(self):
        d = SelfAdjointMatrix(np.diag([0.5, -0.5, 0.1]))
        assert count_window(d.eigenvalues(), (0.3, 1.0)) == 1

    def test_boundary_counts_as_outside(self):
        d = SelfAdjointMatrix(np.diag([0.4, 0.7, 1.0]))
        assert count_window(d.eigenvalues(), (0.4, 1.0)) == 1

    def test_accepts_eigenvalue_arrays(self):
        assert count_window(np.array([-0.6, 0.5, 0.45]), (0.4, 1.0)) == 2

    def test_window_validation(self):
        w = np.ones(2)
        for window in ((-0.5, 0.5), (0.0, 1.0), (-1.0, 0.0), (0.7, 0.4), (0.1, np.nan)):
            with pytest.raises(ConfigError):
                count_window(w, window)

    def test_matches_indicator_trace_route(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((30, 30))
        d = SelfAdjointMatrix((a + a.T) / 2.0)
        w, q = d.eig()
        for window in ((0.2, 0.9), (-3.0, -0.1), (1.0, math.inf)):
            lo, hi = window
            indicator = lambda x: ((x > lo) & (x < hi)).astype(float)
            tr = float(np.trace((q * indicator(w)) @ q.T))
            assert count_window(w, window) == int(round(tr))

    def test_monotone_in_the_window(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((25, 25))
        d = SelfAdjointMatrix((a + a.T) / 2.0)
        w = d.eigenvalues()
        assert count_window(w, (0.5, 2.0)) <= count_window(w, (0.3, 4.0))


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

    @pytest.mark.parametrize("x, y", [
        ([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0], [1.0, math.inf, 3.0]),
    ], ids=["nan_x", "inf_y"])
    def test_values_that_are_not_finite(self, capfd, x, y):
        # a nan x passed the spread check and failed in LAPACK, an inf y gave a nan slope
        with pytest.raises(ValueError, match="finite"):
            slope_fit(x, y)
        assert capfd.readouterr().err == ""


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


# each config key given a value of the wrong type, and the message it gets
WRONG_VALUE_TYPES = [
    ({"trace_powers": 5}, "trace_powers must be a list"),
    ({"profiles": 5}, "profiles must be a list"),
    ({"windows": 5}, "windows must be a list"),
    ({"lambda": [1]}, "lambda must be a number"),
    ({"model": {"L": [1], "n": 400}}, "model L must be a number"),
    ({"model": {"c": "x", "n": 400}}, "model c must be a number"),
    ({"model": {"n": 400.0}}, "model n must be an integer"),
    ({"model": {"n": True}}, "model n must be an integer"),
    ({"model": {"bump": 3}}, "model bump must be a name string"),
    ({"model": 5}, "model block must have keys"),
    ({"model": {"m": 1}}, "model block must have keys"),
    ({"lambda": True}, "lambda must be a number"),
    ({"lambda": "0.3"}, "lambda must be a number"),
    ({"model": {"c": True, "n": 400}}, "model c must be a number"),
    ({"tolerance": "1e9"}, "tolerance must be a number"),
]


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

    @pytest.mark.parametrize("data, message", [
        ([0.4, 1.0], "config must be a JSON object"),
        ({"profiles": []}, "at least one profile"),
        ({"windows": [[0.4, 1.0, 2.0]]}, "window must be a pair"),
        ({"windows": [0.4]}, "window must be a pair"),
    ], ids=["list", "no_profiles", "window_triple", "window_number"])
    def test_from_dict_rejects_a_malformed_config(self, data, message):
        with pytest.raises(ConfigError, match=message):
            SweepConfig.from_dict(data)

    def test_a_bare_profile_string_is_rejected(self):
        # not read as the profiles "A", "R", "C", ...
        with pytest.raises(ConfigError, match="profiles must be a sequence of names"):
            SweepConfig(profiles="ARCTAN_HALF")

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

    @pytest.mark.parametrize("data, message", WRONG_VALUE_TYPES)
    def test_wrong_value_type_rejected(self, data, message):
        with pytest.raises(ConfigError, match=message):
            SweepConfig.from_dict(data)

    @pytest.mark.parametrize("data, message", [
        case for case in WRONG_VALUE_TYPES if "block" not in case[1]
    ])
    def test_constructors_reject_the_same_types(self, data, message):
        # the Python twin of each from_dict case (the model block's layout
        # cases have none): from_dict checks no type of its own
        fields = {"lam" if key == "lambda" else key: value for key, value in data.items()}
        with pytest.raises(ConfigError, match=message):
            if "model" in fields:
                fields["model"] = ModelSpec(**fields["model"])
            SweepConfig(**fields)

    @pytest.mark.parametrize("cls, fields, message", [
        (SweepConfig, {"trace_powers": 3}, "trace_powers must be a list"),
        (SweepConfig, {"profiles": 3}, "profiles must be a list"),
        (SweepConfig, {"trace_powers": "12"}, "trace_powers must be a list"),
        (SweepConfig, {"windows": "ab"}, "windows must be a list"),
        (SweepConfig, {"eps_start": "0.1"}, "epsilon start must be a number"),
        (SweepConfig, {"kappa": "1"}, "kappa must be a number"),
        (SweepConfig, {"lam": "0.0"}, "lambda must be a number"),
        (SweepConfig, {"lam": True}, "lambda must be a number"),
        (SweepConfig, {"tolerance": True}, "tolerance must be a number"),
        (SweepConfig, {"windows": (("0.4", "1"),)}, "window bound must be a number"),
        (SweepConfig, {"model": {"n": 400}}, "model must be a ModelSpec"),
        (ModelSpec, {"n": 400.0}, "model n must be an integer"),
    ], ids=[
        "powers_int", "profiles_int", "powers_str", "windows_str", "eps_start_str",
        "kappa_str", "lam_str", "lam_bool", "tolerance_bool", "window_bound_str",
        "model_dict", "model_n_float",
    ])
    def test_python_api_gets_the_config_checks(self, cls, fields, message):
        with pytest.raises(ConfigError, match=message):
            cls(**fields)

    def test_numbers_are_stored_as_floats_and_lists_as_tuples(self):
        cfg = SweepConfig(model=ModelSpec(L=8, n=400, c=1), lam=0, eps_start=0.3,
                          eps_stop=0.03, eps_count=5, profiles=["TANH_HALF"],
                          windows=[[1, 2]], trace_powers=[2, 1], kappa=1, tolerance=1)
        assert cfg == SweepConfig.from_dict({
            "model": {"L": 8, "n": 400, "c": 1}, "lambda": 0,
            "epsilon": {"start": 0.3, "stop": 0.03, "count": 5}, "profiles": ["TANH_HALF"],
            "windows": [[1, 2]], "trace_powers": [2, 1], "kappa": 1, "tolerance": 1,
        })
        for value in (cfg.model.L, cfg.model.c, cfg.lam, cfg.kappa, cfg.tolerance,
                      *cfg.windows[0]):
            assert type(value) is float
        assert cfg.profiles == ("TANH_HALF",)
        assert cfg.windows == ((1.0, 2.0),)
        assert cfg.trace_powers == (2, 1)

    @pytest.mark.parametrize("profiles", [
        ("ARCTAN_HALF", "ARCTAN_HALF"),
        ("ARCTAN_HALF", "arctan_half", "ARCTAN_HALF"),
        ("TANH_HALF", " tanh_half "),
    ])
    def test_repeated_profiles_rejected(self, profiles):
        with pytest.raises(ConfigError, match="profiles must be distinct"):
            SweepConfig(profiles=profiles)
        with pytest.raises(ConfigError, match="profiles must be distinct"):
            SweepConfig.from_dict({"profiles": list(profiles)})

    @pytest.mark.parametrize("windows", [
        [[0.4, 1.0], [0.4, 1.0]],
        [[0.4, 1.0], [0.4000001, 1.0]],  # one key, "(0.4,1)", to 6 digits
    ])
    def test_repeated_windows_rejected(self, windows):
        with pytest.raises(ConfigError, match="windows must be distinct"):
            SweepConfig(windows=tuple(tuple(w) for w in windows))
        with pytest.raises(ConfigError, match="windows must be distinct"):
            SweepConfig.from_dict({"windows": windows})

    def test_legacy_workers_and_seed_are_ignored(self):
        assert SweepConfig.from_dict({"workers": 4, "seed": 7}) == SweepConfig()

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "model": {"L": 8.0, "n": 400, "bump": "sech", "c": -0.7},
            "lambda": 0.5,
            "profiles": ["ARCTAN_HALF", "TANH_HALF"],
            "epsilon": {"start": 0.1, "stop": 0.02, "count": 4},
            "windows": [[0.4, 1.0], [0.2, None]],
            "trace_powers": [1, 2],
            "kappa": 0.5,
            "tolerance": 0.2,
            "output": "sw",
        }))
        assert SweepConfig.from_json(path) == SweepConfig(
            model=ModelSpec(L=8.0, n=400, bump="sech", c=-0.7), lam=0.5,
            profiles=("ARCTAN_HALF", "TANH_HALF"), eps_start=0.1, eps_stop=0.02, eps_count=4,
            windows=((0.4, 1.0), (0.2, math.inf)), trace_powers=(1, 2), kappa=0.5,
            tolerance=0.2, output="sw",
        )

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

    @pytest.mark.parametrize(
        "eps_start, eps_stop",
        [(0.02, 0.005), (0.04, 0.01)],
        ids=["all_flagged", "two_clean"],
    )
    def test_guard_blocked_sweep_is_refused_before_h_is_solved(
        self, monkeypatch, eps_start, eps_stop
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("a guard-blocked sweep reached the model")

        monkeypatch.setattr(RankOneModel, "solve", unreachable)
        monkeypatch.setattr(RankOneModel, "scattering_point", unreachable)
        with pytest.raises(ResolutionGuardError, match="resolution guard"):
            run_sweep(small_config(eps_start=eps_start, eps_stop=eps_stop))

    def test_flagged_points_are_kept_but_not_fitted(self):
        cfg = small_config(eps_start=0.3, eps_stop=0.02)
        res = run_sweep(cfg)
        assert res.guard_floor == cfg.kappa * cfg.model.build().local_level_spacing(cfg.lam)
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
        return [model.build_d_eps(prof, float(eps), config.lam).eigenvalues()
                for eps in config.epsilon_grid()]

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

    @pytest.mark.parametrize("lam", [0.0, 0.2])
    @pytest.mark.parametrize("c", [0.5, -0.7])
    @pytest.mark.parametrize("name", ["ARCTAN_HALF", "TANH_HALF", "MOLLIFIED_STEP"])
    def test_batched_points_match_the_dense_spectrum(self, name, c, lam):
        # 13 eps: the block passes take two at a time, so the last chunk holds one
        cfg = small_config(model=ModelSpec(n=400, c=c), lam=lam, eps_count=13,
                           windows=self.WINDOWS)
        res = run_sweep(cfg, profile=name)
        bands = BandSet(res.band_edges)
        for r, w in zip(res.records, self.dense_spectra(cfg, name), strict=True):
            for win in self.WINDOWS:
                key = f"({win[0]:g},{win[1]:g})"
                assert r.counts[key] == count_window(w, win)
                assert abs(r.unfolded[key] - unfolded_count(w, win, bands)) <= 1e-11
            for m, value in r.traces.items():
                exact = float(np.sum(w ** float(m)))
                assert abs(value - exact) <= 1e-11 * max(1.0, abs(exact))

    def test_sweeps_make_no_householder_qr(self, monkeypatch):
        def qr(*args, **kwargs):
            raise AssertionError("the sweep called numpy.linalg.qr")

        monkeypatch.setattr(np.linalg, "qr", qr)
        run_sweep(small_config(windows=self.WINDOWS, trace_powers=(1, 2, 3, 4)))

    def test_fourth_power_comes_from_the_block_pass(self):
        cfg = small_config(trace_powers=(4,), windows=self.WINDOWS)
        res = run_sweep(cfg)
        bands = BandSet(res.band_edges)
        for r, w in zip(res.records, self.dense_spectra(cfg, "ARCTAN_HALF")):
            assert abs(r.traces[4] - float(np.sum(w**4.0))) <= 1e-11 * float(np.sum(w**4.0))
            for win in self.WINDOWS:
                key = f"({win[0]:g},{win[1]:g})"
                assert r.counts[key] == count_window(w, win)
                assert r.unfolded[key] == pytest.approx(unfolded_count(w, win, bands), abs=1e-12)

    @pytest.mark.parametrize("c", [0.0, 0.5])
    def test_sweeps_build_no_dense_matrices(self, monkeypatch, c):
        def dense(self):
            raise AssertionError("the sweep built a dense D_eps")

        monkeypatch.setattr(SpectralDifference, "dense", dense)
        run_sweep(small_config(model=ModelSpec(n=400, c=c), trace_powers=(1, 2, 3, 4)))

    @pytest.mark.parametrize("c", [0.5, -0.7])
    def test_secular_eigensolve_matches_the_dense_one(self, monkeypatch, c):
        cfg = small_config(model=ModelSpec(n=400, c=c), windows=self.WINDOWS)
        fast = run_sweep(cfg)
        # the n x n route: every node kept, H solved by the dense eigh
        monkeypatch.setattr(DiagonalPlusRankOne, "kept", lambda h: np.arange(h.dim))
        monkeypatch.setattr(RankOneModel, "solve", lambda model: model.h.eig())
        dense = run_sweep(cfg)
        for a, b in zip(fast.records, dense.records, strict=True):
            assert (a.counts, a.guard_flag) == (b.counts, b.guard_flag)
            for m, value in a.traces.items():
                assert abs(value - b.traces[m]) <= 1e-11 * max(1.0, abs(b.traces[m]))
            for key, value in a.unfolded.items():
                assert abs(value - b.unfolded[key]) <= 1e-11

    def test_the_sweep_works_on_the_kept_block(self, monkeypatch):
        shapes = set()
        init = SpectralDifference.__init__

        def recording(self, q, f, g):
            shapes.add((q.shape, np.shape(f), np.shape(g)))
            init(self, q, f, g)

        monkeypatch.setattr(SpectralDifference, "__init__", recording)
        cfg = small_config(trace_powers=(1, 2, 3, 4))
        run_sweep(cfg)
        m = cfg.model.build().kept.size
        assert 0 < m < cfg.model.n  # the gaussian bump deflates about half the nodes
        assert shapes == {((m, m), (m,), (m,))}

    @pytest.fixture
    def drawn(self, monkeypatch):
        """(Q's shape, columns) of every start of a block pass that the test draws."""
        drawn = []
        draw = SpectralDifference.start_block

        def recording(q, columns=BLOCK_START):
            drawn.append((q.shape, columns))
            return draw(q, columns)

        monkeypatch.setattr(SpectralDifference, "start_block", staticmethod(recording))
        return drawn

    def test_one_start_block_per_sweep(self, drawn):
        cfg = small_config(trace_powers=(1, 2, 3, 4), windows=self.WINDOWS)
        run_sweep(cfg)
        m = cfg.model.build().kept.size
        assert drawn == [((m, m), BLOCK_START)]  # no block widens in this sweep

    def test_a_sweep_without_block_passes_draws_no_start(self, drawn):
        # no window and no power above 3: the traces alone, from one pass over Q
        run_sweep(small_config(windows=(), trace_powers=(1, 2, 3)))
        assert drawn == []

    def test_the_sweep_holds_no_block_array_but_q(self):
        # Q, the m x STRIP_WIDTH work arrays of its solve, and the block pass's few columns
        cfg = default_config(model=ModelSpec(n=1500))
        m = cfg.model.build().kept.size
        np.random.default_rng(0)  # the first use of numpy.random imports it: not the sweep's
        tracemalloc.start()
        try:
            run_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * m * m

    def test_the_sweep_builds_no_dense_h(self, monkeypatch):
        def dense_h(model):
            raise AssertionError("the sweep built the dense H")

        monkeypatch.setattr(RankOneModel, "h", property(dense_h))
        run_sweep(small_config(windows=self.WINDOWS))

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

    def test_no_positive_eigenvalue_gives_the_integer_count(self):
        # the eigenvalues that would bracket 0.4 are -0.1 and -0.5, whose u do not
        # ascend: the count 0 is returned as it is, not interpolated
        w = [-0.7, -0.5, -0.1]
        assert unfolded_count(w, (0.4, 1.0), BandSet([0.84])) == 0 == count_window(w, (0.4, 1.0))

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
        assert res.pairwise_deviation["count (0.4,1)"] >= 0.0

    def test_universality_needs_two(self):
        with pytest.raises(ConfigError):
            universality_study(small_config(), profiles=("ARCTAN_HALF",))

    @pytest.mark.parametrize("profiles, message", [
        (("ARCTAN_HALF", "ARCTAN_HALF"), "profiles must be distinct"),
        (("ARCTAN_HALF", "TANH_HALF", "NOT_A_PROFILE"), "unknown profile"),
    ])
    def test_universality_checks_its_profiles_before_any_sweep(
        self, monkeypatch, profiles, message
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("a sweep ran before the profiles were checked")

        monkeypatch.setattr(RankOneModel, "solve", unreachable)
        with pytest.raises(ConfigError, match=message):
            universality_study(small_config(), profiles=profiles)

    def test_symmetry_windows(self):
        res = symmetry_study(small_config())
        assert math.isfinite(res.positive_slope) and math.isfinite(res.negative_slope)
        assert res.predicted == pytest.approx(
            band_count_slope(BandSet(res.result.band_edges), 0.4)
        )

    def test_trace_formula_bounded_and_adds_power_one(self):
        res = trace_formula_study(small_config(trace_powers=(2,)))
        assert all(abs(t) <= 1.0 for t in res.traces)
        assert res.limit == res.traces[-1]
        assert res.predicted == pytest.approx(-res.result.xi)

    def test_negative_control_exponent_recovery(self):
        psi = builtin_profile("MOLLIFIED_STEP")
        res = negative_control_study(1.0, psi, np.geomspace(1e-1, 1e-3, 5))
        assert res.counts[0] == 9 and res.counts[-1] == 999
        assert res.loglog_fit.slope == pytest.approx(1.0, rel=0.05)
        assert res.loglaw_fit.residual_rms > 10.0

    def test_negative_control_rejects_empty_counts(self):
        psi = builtin_profile("MOLLIFIED_STEP")
        with pytest.raises(ValueError, match="empty count"):
            negative_control_study(1.0, psi, [2.0, 1.5, 1.2])

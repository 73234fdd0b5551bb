"""Sweep experiments: eigenvalue counts and traces of D_eps against |log eps|.

A sweep fixes a model, an energy lam, and a profile, builds the smoothed
projection difference D_eps over a geometric eps grid, and records window
counts and trace powers per eps.  D_eps stays factored (``SpectralDifference``)
on the m nodes of H's kept block, where it lives: traces of powers up to 3
are O(m^2) sums against the squared entries of H's eigenvectors Q, taken
for every eps in one pass over Q in strips of rows, so a sweep holds no
m x m array but Q; the counts and the higher powers read the Ritz values
of one certified block pass, which holds every eigenvalue beyond the
smallest window edge.  Fitted slopes
against |log eps| are compared with the predictions coming from the
scattering data: window masses of the limiting density for counts, Delta_m
moments for traces.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .density import BandSet, band_count_slope, delta_m
from .hankel import sequence_limit
from .matrices import SpectralDifference, check_trace_powers
from .models import RankOneModel, negative_control
from .profiles import CutoffProfile, builtin_profile

__all__ = [
    "ConfigError",
    "FitResult",
    "ModelSpec",
    "NegativeControlResult",
    "RESOLUTION_KAPPA",
    "ResolutionGuardError",
    "SweepConfig",
    "SweepRecord",
    "SweepResult",
    "SymmetryResult",
    "TraceFormulaResult",
    "UniversalityResult",
    "count_window",
    "default_config",
    "negative_control_study",
    "predicted_window_slope",
    "run_sweep",
    "slope_fit",
    "symmetry_study",
    "trace_formula_study",
    "unfolded_count",
    "universality_study",
]


class ConfigError(ValueError):
    """Sweep configuration failed validation."""


class ResolutionGuardError(RuntimeError):
    """Too much of the eps grid fell below the resolution guard to fit."""


def _validate_window(window) -> tuple[float, float]:
    if not isinstance(window, (list, tuple)) or len(window) != 2:
        raise ConfigError(f"window must be a pair of numbers, got {window!r}")
    lo, hi = (_real(bound, "window bound") for bound in window)
    if math.isnan(lo) or math.isnan(hi):
        raise ConfigError(f"window bounds must not be NaN, got {window!r}")
    if not lo < hi:
        raise ConfigError(f"window must satisfy lo < hi, got {window!r}")
    if lo <= 0.0 <= hi:
        raise ConfigError(
            f"window closure must exclude 0 (counts diverge there), got {window!r}"
        )
    return lo, hi


def _is_integer(value) -> bool:
    """A Python int that is not a bool; a float count is an error, not truncated."""
    return isinstance(value, int) and not isinstance(value, bool)


def _real(value, what: str) -> float:
    """A config number: a real that is not a bool; a string or a bool is an error, not parsed."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _list(value, what: str) -> list | tuple:
    """A config list; a scalar or an object in its place is a config error."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return value


def _window_gap(window: tuple[float, float]) -> float:
    """Distance from a validated window to 0, positive since its closure excludes 0."""
    lo, hi = window
    return lo if lo > 0 else -hi


def _window_key(window: tuple[float, float]) -> str:
    lo, hi = window
    return f"({lo:g},{hi:g})"


def count_window(eigenvalues, window) -> int:
    """Number of the given eigenvalues strictly inside the open window (lo, hi).

    Boundary eigenvalues count as outside.  The window closure must exclude
    0, where the limiting density is not integrable.  ``eigenvalues`` need
    only hold those beyond the window's distance to 0, as
    ``SpectralDifference.window_eigenvalues`` returns them.
    """
    lo, hi = _validate_window(window)
    eigs = np.asarray(eigenvalues, dtype=float)
    return int(np.count_nonzero((eigs > lo) & (eigs < hi)))


def _unfolding_variable(bands: BandSet, y: float) -> float:
    """u(y), the mass of mu beyond y > 0; infinite for y <= 0."""
    return band_count_slope(bands, y) if y > 0.0 else math.inf


def _unfolded_tail(w: np.ndarray, b: float, bands: BandSet, strict: bool) -> float:
    """Unfolded count of the eigenvalues beyond the threshold b > 0.

    In u, mu is uniform, so the k-th largest eigenvalue y_k sits on a ladder
    that advances steadily in |log eps|.  The counting function takes the
    value k - 1/2 at u(y_k) and is linear in u between consecutive
    eigenvalues; above the top eigenvalue the line through the first two is
    continued.  The result stays within 1/2 of the integer count.  Beyond the
    band edge u vanishes and the integer count is returned as it is.
    """
    j = w.size - int(np.searchsorted(w, b, side="right" if strict else "left"))
    ub = _unfolding_variable(bands, b)
    if ub == 0.0 or w.size == 0:
        return float(j)
    k = max(j, 1)  # the bracketing eigenvalues are y_k and y_(k+1)
    u_k = _unfolding_variable(bands, w[-k])
    u_next = _unfolding_variable(bands, w[-k - 1]) if k < w.size else math.inf
    if not u_k < u_next:  # no positive eigenvalue, or a tie
        return float(j)
    value = k - 0.5 + (ub - u_k) / (u_next - u_k)
    return float(min(max(value, j - 0.5), j + 0.5))


def unfolded_count(eigenvalues, window, bands: BandSet) -> float:
    """Window count unfolded in u(y) = band_count_slope(bands, |y|).

    ``eigenvalues`` must be sorted ascending.  Each window edge is unfolded
    from the two eigenvalues that bracket it (see ``_unfolded_tail``), so the
    result differs from ``count_window`` by at most 1/2 when one edge lies at
    or beyond the band edge, and by at most 1 otherwise.  Its |log eps| slope
    follows the predicted window mass without the 0-or-1 staircase of the
    integer count.
    """
    lo, hi = _validate_window(window)
    w = np.asarray(eigenvalues, dtype=float)
    if hi <= 0:
        w, lo, hi = -w[::-1], -hi, -lo  # mirror onto the positive side
    return _unfolded_tail(w, lo, bands, strict=True) - _unfolded_tail(w, hi, bands, strict=False)


@dataclass(frozen=True)
class FitResult:
    """Least-squares line y ~ slope * x + intercept with RMS residual."""

    slope: float
    intercept: float
    residual_rms: float


def slope_fit(x: Sequence[float], y: Sequence[float]) -> FitResult:
    """Ordinary least squares fit; needs >= 3 points and non-degenerate x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if x.size < 3:
        raise ValueError(f"slope fit needs at least 3 points, got {x.size}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("slope fit needs finite x and y")
    if float(np.ptp(x)) <= 0:
        raise ValueError("slope fit needs distinct abscissas")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return FitResult(float(slope), float(intercept), float(np.sqrt(np.mean(resid**2))))


def predicted_window_slope(bands: BandSet, window) -> float:
    """Mass of the limiting density on the window, the predicted count slope."""
    lo, hi = _validate_window(window)
    if hi <= 0:
        lo, hi = -hi, -lo  # mu is even
    return band_count_slope(bands, lo) - band_count_slope(bands, hi)


@dataclass(frozen=True)
class ModelSpec:
    """Rank-one model parameters as they appear in sweep configs; ``RankOneModel`` checks ranges."""

    L: float = 8.0
    n: int = 4000
    bump: str = "gaussian"
    c: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "L", _real(self.L, "model L"))
        object.__setattr__(self, "c", _real(self.c, "model c"))
        if not _is_integer(self.n):
            raise ConfigError(f"model n must be an integer, got {self.n!r}")
        if not isinstance(self.bump, str):
            raise ConfigError(f"model bump must be a name string, got {self.bump!r}")

    def build(self) -> RankOneModel:
        return RankOneModel(L=self.L, n=self.n, bump=self.bump, c=self.c)


# Guard multiplier: a sweep point eps is trusted only when eps exceeds
# RESOLUTION_KAPPA times the local H0 level spacing at lam.  Below that the
# discretization resolves individual levels instead of the continuum.
RESOLUTION_KAPPA = 0.4


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep description; ``from_json`` reads one from a config file.

    The constructor is the one validator, for Python and JSON alike: it checks
    every field, and stores the numbers as floats and the lists as tuples.
    """

    model: ModelSpec = ModelSpec()
    lam: float = 0.0
    profiles: tuple[str, ...] = ("ARCTAN_HALF",)
    eps_start: float = 1e-1
    eps_stop: float = 3e-3
    eps_count: int = 8
    windows: tuple[tuple[float, float], ...] = ((0.4, 1.0),)
    trace_powers: tuple[int, ...] = (1, 2, 3)
    kappa: float = RESOLUTION_KAPPA
    tolerance: float = 0.15
    output: str | None = None

    def __post_init__(self):
        if not isinstance(self.model, ModelSpec):
            raise ConfigError(f"model must be a ModelSpec, got {self.model!r}")
        for name, what in (("lam", "lambda"), ("eps_start", "epsilon start"),
                           ("eps_stop", "epsilon stop"), ("kappa", "kappa"),
                           ("tolerance", "tolerance")):
            object.__setattr__(self, name, _real(getattr(self, name), what))
        if not (0.0 < self.eps_stop < self.eps_start < 1.0):
            raise ConfigError(
                f"need 0 < stop < start < 1, got start={self.eps_start!r}, stop={self.eps_stop!r}"
            )
        if not _is_integer(self.eps_count) or self.eps_count < 3:
            raise ConfigError(f"epsilon count must be an integer >= 3, got {self.eps_count!r}")
        if isinstance(self.profiles, str):
            raise ConfigError(f"profiles must be a sequence of names, got the string {self.profiles!r}")
        object.__setattr__(self, "profiles", tuple(_list(self.profiles, "profiles")))
        if not self.profiles:
            raise ConfigError("at least one profile is required")
        try:  # the profile and trace power rules are the library's, which raises ValueError
            names = [builtin_profile(name).name for name in self.profiles]
            powers = check_trace_powers(_list(self.trace_powers, "trace_powers"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if len(set(names)) != len(names):  # case-blind: "arctan_half" repeats "ARCTAN_HALF"
            raise ConfigError(f"profiles must be distinct, got {list(self.profiles)!r}")
        object.__setattr__(self, "trace_powers", powers)
        windows = tuple(_validate_window(w) for w in _list(self.windows, "windows"))
        object.__setattr__(self, "windows", windows)
        if not (self.windows or self.trace_powers):
            raise ConfigError("nothing to record: no windows and no trace powers")
        if not (self.kappa > 0):
            raise ConfigError(f"kappa must be positive, got {self.kappa!r}")
        if not (self.tolerance > 0):
            raise ConfigError(f"tolerance must be positive, got {self.tolerance!r}")
        if not (self.output is None or isinstance(self.output, str)):
            raise ConfigError(f"output must be a path string or null, got {self.output!r}")

    def epsilon_grid(self) -> np.ndarray:
        return np.geomspace(self.eps_start, self.eps_stop, self.eps_count)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        """Read the JSON layout into the constructors, which check every value."""
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        # "workers" and "seed" name removed options; configs written with them
        # still load, and their values are dropped below
        known = {
            "model", "lambda", "profiles", "epsilon", "windows", "trace_powers",
            "workers", "seed", "kappa", "tolerance", "output",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        block = data.get("model", {})
        if not isinstance(block, dict) or set(block) - {"L", "n", "bump", "c"}:
            raise ConfigError(f"model block must have keys L/n/bump/c, got {block!r}")
        epsilon = data.get("epsilon", {})
        if not isinstance(epsilon, dict) or set(epsilon) - {"start", "stop", "count"}:
            raise ConfigError(f"epsilon block must have keys start/stop/count, got {epsilon!r}")
        fields = {"lam" if key == "lambda" else key: value for key, value in data.items()
                  if key not in ("model", "epsilon", "workers", "seed")}
        fields.update({f"eps_{key}": value for key, value in epsilon.items()})
        if isinstance(fields.get("windows"), list):  # a null bound is the infinite one
            fields["windows"] = [
                (-math.inf if w[0] is None else w[0], math.inf if w[1] is None else w[1])
                if isinstance(w, list) and len(w) == 2 else w for w in fields["windows"]
            ]
        return cls(model=ModelSpec(**block), **fields)

    @classmethod
    def from_json(cls, path) -> "SweepConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)



def default_config(**overrides) -> SweepConfig:
    """The reference sweep: default model at lam = 0, one positive window."""
    return SweepConfig(**overrides)


@dataclass(frozen=True)
class SweepRecord:
    """One eps point: counts per window, traces per power, guard flag.

    ``unfolded`` holds the ``unfolded_count`` of each window, keyed like
    ``counts``.
    """

    epsilon: float
    log_inv_eps: float
    counts: dict[str, int]
    traces: dict[int, float]
    guard_flag: bool
    unfolded: dict[str, float]


@dataclass(frozen=True)
class SweepResult:
    """Everything a sweep measured, fitted, and predicted.

    ``unfolded_slopes`` and ``unfolded_deviations`` are the least-squares
    slopes of the unfolded window counts over the clean records and their
    deviations from the predicted count slopes, keyed like the count entries
    of ``fitted_slopes``.
    """

    config: SweepConfig
    profile: str
    guard_floor: float
    band_edges: tuple[float, ...]
    xi: float
    records: tuple[SweepRecord, ...]
    fitted_slopes: dict[str, float]
    fitted_intercepts: dict[str, float]
    predicted_slopes: dict[str, float]
    deviations: dict[str, float]
    residuals: dict[str, float]
    unfolded_slopes: dict[str, float]
    unfolded_deviations: dict[str, float]

    def clean_records(self) -> tuple[SweepRecord, ...]:
        return tuple(r for r in self.records if not r.guard_flag)

    def max_deviation(self) -> float:
        return max(self.deviations.values()) if self.deviations else 0.0

    def summary_dict(self) -> dict:
        return {
            "profile": self.profile,
            "lambda": self.config.lam,
            "kappa": self.config.kappa,
            "tolerance": self.config.tolerance,
            "guard_floor": self.guard_floor,
            "band_edges": list(self.band_edges),
            "xi": self.xi,
            "windows": [_window_key(w) for w in self.config.windows],
            "trace_powers": list(self.config.trace_powers),
            "fitted_slopes": dict(self.fitted_slopes),
            "fitted_intercepts": dict(self.fitted_intercepts),
            "predicted_slopes": dict(self.predicted_slopes),
            "deviations": dict(self.deviations),
            "residuals": dict(self.residuals),
            "records": [
                {
                    "epsilon": r.epsilon,
                    "log_inv_eps": r.log_inv_eps,
                    "guard_flag": r.guard_flag,
                    "counts": dict(r.counts),
                    "traces": {str(m): v for m, v in r.traces.items()},
                }
                for r in self.records
            ],
        }

    def write_summary(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary_dict(), fh, indent=2)
            fh.write("\n")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epsilon", "log_inv_eps", "window", "count", "guard_flag"])
            for r in self.records:
                for w in self.config.windows:
                    key = _window_key(w)
                    writer.writerow([
                        f"{r.epsilon:.17g}",
                        f"{r.log_inv_eps:.17g}",
                        key,
                        r.counts[key],
                        int(r.guard_flag),
                    ])


def _count_key(window: tuple[float, float]) -> str:
    return f"count {_window_key(window)}"


def _trace_key(m: int) -> str:
    return f"trace m={m}"


def run_sweep(config: SweepConfig, profile: str | None = None) -> SweepResult:
    """Run one sweep for the named built-in profile (default: the first configured one).

    The resolution guard is applied here and only here: an eps below
    ``config.kappa`` times the local level spacing at lam is recorded with
    its guard flag but left out of the fits.  The flags depend only on the
    eps grid and the floor, so a grid with fewer than 3 clean points is
    refused with ``ResolutionGuardError`` before H is solved.

    A sweep reads three things from the model that ``config.model`` builds:
    ``local_level_spacing`` and ``scattering_point`` at lam, and
    ``build_d_eps``, once per eps, which reads the kept nodes and the one
    cached ``solve`` of H.  The D_eps of all eps share Q, so
    ``SpectralDifference.fill`` takes their low traces in one pass over Q
    and their first block passes a chunk of eps per product with Q; the
    records then read those caches, and a block that its certificate widens
    is solved for its own eps alone.
    """
    prof = builtin_profile(config.profiles[0] if profile is None else profile)

    model = config.model.build()
    floor = config.kappa * model.local_level_spacing(config.lam)
    eps_grid = config.epsilon_grid()
    flags = eps_grid < floor
    clean_count = int(np.count_nonzero(~flags))
    if clean_count < 3:
        raise ResolutionGuardError(
            f"only {clean_count} of the eps in [{eps_grid[-1]:.3e}, {eps_grid[0]:.3e}] "
            f"clear the resolution guard {floor:.3e}; increase model n or raise eps"
        )

    point = model.scattering_point(config.lam)
    bands = BandSet([point.a1])
    windows = [(_window_key(win), win) for win in config.windows]
    # every window edge is at least b from 0, so the eigenvalues beyond b and
    # their brackets settle every count and unfolded count
    b = min((_window_gap(win) for win in config.windows), default=math.inf)

    points = [model.build_d_eps(prof, float(eps), config.lam) for eps in eps_grid]
    # the low traces and the first block pass of every eps, in one pass over Q
    SpectralDifference.fill(points, config.trace_powers, windows=bool(windows))
    records = []
    for eps, flag, d in zip(eps_grid, flags, points):
        traces = {m: d.trace_power(m) for m in config.trace_powers}
        w = d.window_eigenvalues(b) if windows else np.empty(0)
        records.append(SweepRecord(
            epsilon=float(eps),
            log_inv_eps=float(np.log(1.0 / eps)),
            counts={key: count_window(w, win) for key, win in windows},
            traces=traces,
            guard_flag=bool(flag),
            unfolded={key: unfolded_count(w, win, bands) for key, win in windows},
        ))
    records = tuple(records)

    clean = [r for r in records if not r.guard_flag]
    x = np.array([r.log_inv_eps for r in clean])

    fitted, intercepts, predicted, deviations, residuals = {}, {}, {}, {}, {}
    unfolded_slopes, unfolded_deviations = {}, {}

    def deviation(slope: float, pred: float) -> float:
        return abs(slope - pred) / abs(pred) if abs(pred) > 1e-12 else abs(slope - pred)

    def record_fit(key: str, values, pred: float) -> None:
        fit = slope_fit(x, values)
        fitted[key] = fit.slope
        intercepts[key] = fit.intercept
        predicted[key] = pred
        deviations[key] = deviation(fit.slope, pred)
        residuals[key] = fit.residual_rms

    for key, win in windows:
        values = [r.counts[key] for r in clean]
        count_key = _count_key(win)
        record_fit(count_key, values, predicted_window_slope(bands, win))
        unfolded_slopes[count_key] = slope_fit(x, [r.unfolded[key] for r in clean]).slope
        unfolded_deviations[count_key] = deviation(unfolded_slopes[count_key], predicted[count_key])
    for m in config.trace_powers:
        values = [r.traces[m] for r in clean]
        record_fit(_trace_key(m), values, delta_m(bands, m))

    return SweepResult(
        config=config,
        profile=prof.name,
        guard_floor=floor,
        band_edges=tuple(bands),
        xi=point.xi,
        records=records,
        fitted_slopes=fitted,
        fitted_intercepts=intercepts,
        predicted_slopes=predicted,
        deviations=deviations,
        residuals=residuals,
        unfolded_slopes=unfolded_slopes,
        unfolded_deviations=unfolded_deviations,
    )


@dataclass(frozen=True)
class UniversalityResult:
    """Per-profile sweeps plus each window's worst pairwise slope disagreement."""

    results: dict[str, SweepResult]
    pairwise_deviation: dict[str, float]


def universality_study(config: SweepConfig, profiles: Sequence[str] | None = None) -> UniversalityResult:
    """Run the same sweep under several profiles and compare fitted slopes.

    The limiting law does not depend on the profile, so the per-window count
    slopes must agree across profiles up to the desk-scale corrections.
    ``profiles``, if given, replaces the config's and gets the same checks.
    """
    names = (config if profiles is None else replace(config, profiles=profiles)).profiles
    if len(names) < 2:
        raise ConfigError("universality needs at least two profiles")
    results = {name: run_sweep(config, profile=name) for name in names}

    pairwise: dict[str, float] = {}
    for win in config.windows:
        key = _count_key(win)
        slopes = [results[name].fitted_slopes[key] for name in names]
        worst = 0.0
        for i in range(len(slopes)):
            for j in range(i + 1, len(slopes)):
                denom = max(abs(slopes[i]), abs(slopes[j]))
                if denom > 1e-12:
                    worst = max(worst, abs(slopes[i] - slopes[j]) / denom)
        pairwise[key] = worst
    return UniversalityResult(results=results, pairwise_deviation=pairwise)


@dataclass(frozen=True)
class SymmetryResult:
    """Count slopes over mirrored windows (b, inf) and (-inf, -b)."""

    positive_slope: float
    negative_slope: float
    predicted: float
    deviation: float
    result: SweepResult


SYMMETRY_THRESHOLD = 0.4


def symmetry_study(config: SweepConfig) -> SymmetryResult:
    """Compare count slopes on (b, inf) and (-inf, -b); mu is even.

    The threshold b is ``SYMMETRY_THRESHOLD``, the lower edge of the default
    window (0.4, 1).
    """
    b = SYMMETRY_THRESHOLD
    cfg = replace(config, windows=((b, math.inf), (-math.inf, -b)))
    res = run_sweep(cfg)
    pos = res.fitted_slopes[_count_key((b, math.inf))]
    neg = res.fitted_slopes[_count_key((-math.inf, -b))]
    denom = max(abs(pos), abs(neg))
    deviation = abs(pos - neg) / denom if denom > 1e-12 else 0.0
    predicted = res.predicted_slopes[_count_key((b, math.inf))]
    return SymmetryResult(
        positive_slope=pos,
        negative_slope=neg,
        predicted=predicted,
        deviation=deviation,
        result=res,
    )


@dataclass(frozen=True)
class TraceFormulaResult:
    """Tr D_eps along the sweep and its extrapolated eps -> 0 limit."""

    eps: tuple[float, ...]
    traces: tuple[float, ...]
    limit: float
    predicted: float
    deviation: float
    result: SweepResult


def trace_formula_study(config: SweepConfig) -> TraceFormulaResult:
    """Extrapolate Tr D_eps to eps -> 0 and compare with -xi(lam).

    The trace is a bounded quantity with no |log eps| growth.  Its limit is
    the ``hankel.sequence_limit`` of the clean traces: Aitken's delta-squared
    on the last three when their differences shrink with one sign, else the
    smallest-eps trace.
    """
    if 1 not in config.trace_powers:
        config = replace(config, trace_powers=(1,) + config.trace_powers)
    res = run_sweep(config)
    clean = res.clean_records()
    traces = [r.traces[1] for r in clean]
    limit = sequence_limit(traces)
    predicted = -res.xi
    return TraceFormulaResult(
        eps=tuple(r.epsilon for r in clean),
        traces=tuple(traces),
        limit=limit,
        predicted=predicted,
        deviation=abs(limit - predicted),
        result=res,
    )


@dataclass(frozen=True)
class NegativeControlResult:
    """Power-law control: counts, log-log fit, and the (bad) log-law fit."""

    alpha: float
    eps: tuple[float, ...]
    counts: tuple[int, ...]
    loglog_fit: FitResult
    loglaw_fit: FitResult


NEGATIVE_CONTROL_N = 100000  # levels of the power-law pair


def negative_control_study(
    alpha: float,
    profile: CutoffProfile,
    eps_values: Sequence[float],
) -> NegativeControlResult:
    """Count sweep for the power-law pair; the log law must fail here.

    The pair has ``NEGATIVE_CONTROL_N`` levels, so a count saturates only
    once eps R falls below NEGATIVE_CONTROL_N^{-1/alpha}.

    ``loglog_fit`` regresses log(count) on log(1/eps) and should recover
    alpha; ``loglaw_fit`` regresses count on log(1/eps), same as the rank-one
    sweeps, and its residual is the separation diagnostic.
    """
    eps_values = tuple(sorted((float(e) for e in eps_values), reverse=True))
    counts = tuple(negative_control(alpha, NEGATIVE_CONTROL_N, profile, e) for e in eps_values)
    if min(counts) < 1:
        raise ValueError("negative control produced an empty count; lower eps")
    log_inv = np.log(1.0 / np.asarray(eps_values))
    counts_arr = np.asarray(counts, dtype=float)
    return NegativeControlResult(
        alpha=float(alpha),
        eps=eps_values,
        counts=counts,
        loglog_fit=slope_fit(log_inv, np.log(counts_arr)),
        loglaw_fit=slope_fit(log_inv, counts_arr),
    )

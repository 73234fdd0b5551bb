"""Sweep experiments: eigenvalue counts and traces of D_eps against |log eps|.

A sweep fixes a model, an energy lam, and a profile, builds the smoothed
projection difference D_eps over a geometric eps grid, and records window
counts and trace powers per eps.  D_eps stays factored (``SpectralDifference``):
traces of powers up to 3 are O(n^2) sums, and the counts read only the
eigenvalues beyond the smallest window edge, found by certified Lanczos.  A
trace power above 3 needs the dense spectrum, which then serves the counts
too.  Fitted slopes against |log eps| are compared with the predictions
coming from the scattering data: window masses of the limiting density for
counts, Delta_m moments for traces.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .density import BandSet, band_count_slope, delta_m
from .matrices import SelfAdjointMatrix, SpectralDifference
from .models import RESOLUTION_KAPPA, RankOneModel, ResolutionGuardWarning, negative_control
from .profiles import CutoffProfile, builtin_profile

__all__ = [
    "ConfigError",
    "FitResult",
    "ModelSpec",
    "NegativeControlResult",
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
    try:
        lo, hi = float(window[0]), float(window[1])
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"window must be a pair of numbers, got {window!r}") from exc
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
    """A config number; a value float() cannot take is a config error."""
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc


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


def count_window(target, window) -> int:
    """Number of eigenvalues strictly inside the open window (lo, hi).

    Boundary eigenvalues count as outside.  The window closure must exclude
    0, where the limiting density is not integrable.  A ``SpectralDifference``
    is counted from its eigenvalues beyond the window's distance to 0.
    """
    lo, hi = _validate_window(window)
    if isinstance(target, SpectralDifference):
        eigs = target.window_eigenvalues(_window_gap((lo, hi)))
    elif isinstance(target, SelfAdjointMatrix):
        eigs = target.eigenvalues()
    else:
        eigs = np.asarray(target, dtype=float)
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
    """Rank-one model parameters as they appear in sweep configs."""

    L: float = 8.0
    n: int = 4000
    bump: str = "gaussian"
    c: float = 0.5

    def build(self) -> RankOneModel:
        return RankOneModel(L=self.L, n=self.n, bump=self.bump, c=self.c)


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep description; round-trips through JSON."""

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
        if not (0.0 < self.eps_stop < self.eps_start < 1.0):
            raise ConfigError(
                f"need 0 < stop < start < 1, got start={self.eps_start!r}, stop={self.eps_stop!r}"
            )
        if not _is_integer(self.eps_count) or self.eps_count < 3:
            raise ConfigError(f"epsilon count must be an integer >= 3, got {self.eps_count!r}")
        if not self.profiles:
            raise ConfigError("at least one profile is required")
        for name in self.profiles:
            try:
                builtin_profile(name)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if not (self.windows or self.trace_powers):
            raise ConfigError("nothing to record: no windows and no trace powers")
        for w in self.windows:
            _validate_window(w)
        for m in self.trace_powers:
            if not _is_integer(m) or m < 1:
                raise ConfigError(f"trace powers must be positive integers, got {m!r}")
        if len(set(self.trace_powers)) != len(self.trace_powers):
            raise ConfigError("trace powers must be distinct")
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
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        # "workers" and "seed" name removed options; configs written with them
        # still load, and their values are ignored
        known = {
            "model", "lambda", "profiles", "epsilon", "windows", "trace_powers",
            "workers", "seed", "kappa", "tolerance", "output",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            model = ModelSpec(**data.get("model", {}))
        except TypeError as exc:
            raise ConfigError(f"bad model block: {exc}") from exc
        epsilon = data.get("epsilon", {})
        if not isinstance(epsilon, dict) or set(epsilon) - {"start", "stop", "count"}:
            raise ConfigError(f"epsilon block must have keys start/stop/count, got {epsilon!r}")

        def bound(v, default):
            return default if v is None else _real(v, "window bound")

        profiles = _list(data.get("profiles", ["ARCTAN_HALF"]), "profiles")
        windows = []
        for w in _list(data.get("windows", [(0.4, 1.0)]), "windows"):
            if not isinstance(w, (list, tuple)) or len(w) != 2:
                raise ConfigError(f"window must be a pair, got {w!r}")
            windows.append((bound(w[0], -math.inf), bound(w[1], math.inf)))
        # the count, the powers and the output go in as given, unconverted, so
        # that __post_init__ rejects a float or bool integer and a non-string path
        return cls(
            model=model,
            lam=_real(data.get("lambda", 0.0), "lambda"),
            profiles=tuple(str(p) for p in profiles),
            eps_start=_real(epsilon.get("start", 1e-1), "epsilon start"),
            eps_stop=_real(epsilon.get("stop", 3e-3), "epsilon stop"),
            eps_count=epsilon.get("count", 8),
            windows=tuple(windows),
            trace_powers=tuple(_list(data.get("trace_powers", (1, 2, 3)), "trace_powers")),
            kappa=_real(data.get("kappa", RESOLUTION_KAPPA), "kappa"),
            tolerance=_real(data.get("tolerance", 0.15), "tolerance"),
            output=data.get("output"),
        )

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

    def to_dict(self) -> dict:
        def jbound(v):
            return None if math.isinf(v) else v

        return {
            "model": {"L": self.model.L, "n": self.model.n,
                      "bump": self.model.bump, "c": self.model.c},
            "lambda": self.lam,
            "profiles": list(self.profiles),
            "epsilon": {"start": self.eps_start, "stop": self.eps_stop, "count": self.eps_count},
            "windows": [[jbound(lo), jbound(hi)] for lo, hi in self.windows],
            "trace_powers": list(self.trace_powers),
            "kappa": self.kappa,
            "tolerance": self.tolerance,
            "output": self.output,
        }


def default_config(**overrides) -> SweepConfig:
    """The reference sweep: default model at lam = 0, one positive window."""
    return replace(SweepConfig(), **overrides) if overrides else SweepConfig()


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


def run_sweep(config: SweepConfig, profile: str | CutoffProfile | None = None) -> SweepResult:
    """Run one sweep for one profile (default: the first configured one).

    Guard-flagged eps points are recorded but excluded from the fits; if
    fewer than 3 points survive the guard, the sweep refuses to fit.
    """
    if profile is None:
        profile = config.profiles[0]
    prof = builtin_profile(profile) if isinstance(profile, str) else profile

    model = config.model.build()
    floor = model.guard_floor(config.lam, config.kappa)
    eps_grid = config.epsilon_grid()
    flags = eps_grid < floor
    if np.all(flags):
        raise ResolutionGuardError(
            f"every eps in [{eps_grid[-1]:.3e}, {eps_grid[0]:.3e}] is below the "
            f"resolution guard {floor:.3e}; increase model n or raise eps"
        )

    point = model.scattering_point(config.lam)
    bands = BandSet([point.a1])
    windows = [(_window_key(win), win) for win in config.windows]
    # every window edge is at least b from 0, so the eigenvalues beyond b and
    # their brackets settle every count and unfolded count
    b = min((_window_gap(win) for win in config.windows), default=math.inf)
    model.overlaps()  # the one H eigensolve and P = Q∘Q, shared by every eps

    records = []
    with warnings.catch_warnings():
        # flags are recorded per record; the per-build warning is redundant here
        warnings.simplefilter("ignore", ResolutionGuardWarning)
        for eps, flag in zip(eps_grid, flags):
            eps = float(eps)
            d = model.build_d_eps(prof, eps, config.lam, kappa=config.kappa)
            # traces first: a power above 3 builds the dense spectrum, which the
            # window eigenvalues then reuse instead of running Lanczos
            traces = {m: d.trace_power(m) for m in config.trace_powers}
            w = d.window_eigenvalues(b) if windows else np.empty(0)
            records.append(SweepRecord(
                epsilon=eps,
                log_inv_eps=float(np.log(1.0 / eps)),
                counts={key: count_window(w, win) for key, win in windows},
                traces=traces,
                guard_flag=bool(flag),
                unfolded={key: unfolded_count(w, win, bands) for key, win in windows},
            ))
    records = tuple(records)

    clean = [r for r in records if not r.guard_flag]
    if len(clean) < 3:
        raise ResolutionGuardError(
            f"only {len(clean)} eps points survive the resolution guard "
            f"{floor:.3e}; increase model n or raise eps"
        )
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
    """Per-profile sweeps plus the worst pairwise slope disagreement."""

    results: dict[str, SweepResult]
    pairwise_deviation: dict[str, float]

    def max_pairwise(self) -> float:
        return max(self.pairwise_deviation.values()) if self.pairwise_deviation else 0.0


def universality_study(config: SweepConfig, profiles: Sequence[str] | None = None) -> UniversalityResult:
    """Run the same sweep under several profiles and compare fitted slopes.

    The limiting law does not depend on the profile, so the per-window count
    slopes must agree across profiles up to the desk-scale corrections.
    """
    names = tuple(profiles) if profiles is not None else config.profiles
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


def symmetry_study(config: SweepConfig, b: float = 0.4) -> SymmetryResult:
    """Compare count slopes on (b, inf) and (-inf, -b); mu is even."""
    if not (b > 0):
        raise ConfigError(f"threshold must be positive, got {b!r}")
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

    The trace is a bounded quantity with no |log eps| growth; a Richardson
    style acceleration (Aitken delta-squared on the last three clean points)
    sharpens the plain smallest-eps estimate when the sequence is regular,
    and falls back to the last value when it is not.
    """
    if 1 not in config.trace_powers:
        config = replace(config, trace_powers=(1,) + tuple(config.trace_powers))
    res = run_sweep(config)
    clean = res.clean_records()
    traces = [r.traces[1] for r in clean]
    limit = traces[-1]
    if len(traces) >= 3:
        t0, t1, t2 = traces[-3], traces[-2], traces[-1]
        denom = (t2 - t1) - (t1 - t0)
        if abs(denom) > 1e-14:
            accel = t2 - (t2 - t1) ** 2 / denom
            spread = max(traces) - min(traces)
            if np.isfinite(accel) and abs(accel - t2) <= max(spread, abs(t2 - t1) * 10):
                limit = float(accel)
    predicted = -res.xi
    return TraceFormulaResult(
        eps=tuple(r.epsilon for r in clean),
        traces=tuple(traces),
        limit=float(limit),
        predicted=predicted,
        deviation=abs(float(limit) - predicted),
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


def negative_control_study(
    alpha: float,
    profile: CutoffProfile,
    eps_values: Sequence[float],
    n: int = 100000,
) -> NegativeControlResult:
    """Count sweep for the power-law pair; the log law must fail here.

    ``loglog_fit`` regresses log(count) on log(1/eps) and should recover
    alpha; ``loglaw_fit`` regresses count on log(1/eps), same as the rank-one
    sweeps, and its residual is the separation diagnostic.
    """
    eps_values = tuple(sorted((float(e) for e in eps_values), reverse=True))
    counts = tuple(negative_control(alpha, n, profile, e) for e in eps_values)
    if min(counts) < 1:
        raise ValueError(
            "negative control produced an empty count; lower eps or raise n"
        )
    log_inv = np.log(1.0 / np.asarray(eps_values))
    counts_arr = np.asarray(counts, dtype=float)
    return NegativeControlResult(
        alpha=float(alpha),
        eps=eps_values,
        counts=counts,
        loglog_fit=slope_fit(log_inv, np.log(counts_arr)),
        loglaw_fit=slope_fit(log_inv, counts_arr),
    )

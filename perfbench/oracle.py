"""Dense reference results, written with NumPy and SciPy only.

Nothing here imports the package under test.  The rank-one reference builds
H = diag(x) + c u u^T on Gauss-Legendre nodes (NumPy's rule, not SciPy's),
diagonalizes it once, forms every D_eps densely and takes its full spectrum.
Scattering data come from the closed form of the Gaussian's Hilbert transform
(Dawson's function) and the trace predictions from the Beta-function value of
the sech moments.  The Hankel reference uses the closed-form traces for
m = 1, 2 and a dense Nystrom spectrum for the other powers.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

from .inputs import window_bounds, window_key


def _arctan_half(x):
    return -np.arctan(x) / np.pi


def _tanh_half(x):
    return -np.tanh(x) / 2.0


def _bump(t: float) -> float:
    return math.exp(-1.0 / (1.0 - t * t)) if abs(t) < 1.0 else 0.0


def _bump_mass(x: float) -> float:
    return integrate.quad(_bump, 0.0, x, epsabs=0.0, epsrel=1e-13)[0]


def _mollified_step(x):
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 1.0, -0.5, np.where(x <= -1.0, 0.5, 0.0))
    half_mass = _bump_mass(1.0)
    for i in np.flatnonzero(np.abs(x) < 1.0):
        out[i] = -_bump_mass(x[i]) / (2.0 * half_mass)
    return out


PROFILES = {
    "ARCTAN_HALF": _arctan_half,
    "TANH_HALF": _tanh_half,
    "MOLLIFIED_STEP": _mollified_step,
}


def sech_moment(m: int) -> float:
    """Integral of sech(x)^m over the line, B(m/2, 1/2)."""
    return float(special.beta(m / 2.0, 0.5))


def ols_slope(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - x.mean()
    return float(np.dot(dx, y - y.mean()) / np.dot(dx, dx))


def scattering(lam: float, c: float) -> tuple[float, float]:
    """Band edge a1 and spectral shift xi for the Gaussian bump v = exp(-x^2).

    T(lam + i0) = PV int e^{-2x^2}/(x - lam) dx + i pi e^{-2 lam^2}, and the
    principal value over the line is -2 sqrt(pi) F(sqrt(2) lam) with F the
    Dawson function (the tail beyond |x| = L = 8 is below 1e-50).
    """
    v2 = math.exp(-2.0 * lam * lam)
    t = complex(-2.0 * math.sqrt(math.pi) * special.dawsn(math.sqrt(2.0) * lam), math.pi * v2)
    den = 1.0 + c * t
    s = 1.0 - 2.0j * math.pi * c * v2 / den
    return abs(s - 1.0) / 2.0, math.atan2(den.imag, den.real) / math.pi


def _count_slope(a1: float, b: float) -> float:
    return math.acosh(a1 / b) / math.pi**2 if a1 > b else 0.0


def predicted_count_slope(a1: float, window) -> float:
    lo, hi = window_bounds(window)
    if hi <= 0:
        lo, hi = -hi, -lo
    return _count_slope(a1, lo) - _count_slope(a1, hi)


def predicted_trace_slope(a1: float, m: int) -> float:
    return 0.0 if m % 2 else a1**m * sech_moment(m) / math.pi**2


def rank_one_reference(inputs: dict) -> dict:
    """Records, fitted and predicted slopes, and exit code of every sweep."""
    model, lam, kappa = inputs["model"], inputs["lambda"], inputs["kappa"]
    if model["bump"] != "gaussian":
        raise ValueError("the reference knows only the gaussian bump")
    n, L, c = model["n"], model["L"], model["c"]
    t, w = np.polynomial.legendre.leggauss(n)
    x, wts = L * t, L * w
    u = np.sqrt(wts) * np.exp(-x * x)
    h = c * np.outer(u, u)
    h[np.diag_indices(n)] += x
    evals, q = np.linalg.eigh(h)
    del h
    i = min(max(int(np.searchsorted(x, lam)), 1), n - 1)
    floor = kappa * float(x[i] - x[i - 1])
    a1, xi = scattering(lam, c)

    sweeps = {}
    for spec in inputs["sweeps"]:
        psi = PROFILES[spec["profile"]]
        records = []
        for eps in np.geomspace(spec["eps_start"], spec["eps_stop"], spec["eps_count"]):
            eps = float(eps)
            d = (q * psi((evals - lam) / eps)) @ q.T
            d[np.diag_indices(n)] -= psi((x - lam) / eps)
            spectrum = np.linalg.eigvalsh((d + d.T) / 2.0)
            del d
            records.append({
                "epsilon": eps,
                "log_inv_eps": math.log(1.0 / eps),
                "guard_flag": bool(eps < floor),
                "counts": {
                    window_key(win): int(np.count_nonzero(
                        (spectrum > window_bounds(win)[0]) & (spectrum < window_bounds(win)[1])
                    ))
                    for win in spec["windows"]
                },
                "traces": {str(m): float(np.sum(spectrum ** float(m))) for m in spec["trace_powers"]},
            })
        clean = [r for r in records if not r["guard_flag"]]
        xs = [r["log_inv_eps"] for r in clean]
        fitted, predicted = {}, {}
        for win in spec["windows"]:
            key = window_key(win)
            fitted[f"count {key}"] = ols_slope(xs, [r["counts"][key] for r in clean])
            predicted[f"count {key}"] = predicted_count_slope(a1, win)
        for m in spec["trace_powers"]:
            fitted[f"trace m={m}"] = ols_slope(xs, [r["traces"][str(m)] for r in clean])
            predicted[f"trace m={m}"] = predicted_trace_slope(a1, m)
        worst = max(
            abs(fitted[k] - p) / abs(p) if abs(p) > 1e-12 else abs(fitted[k] - p)
            for k, p in predicted.items()
        )
        sweeps[spec["label"]] = {
            "records": records,
            "fitted_slopes": fitted,
            "predicted_slopes": predicted,
            "exit_code": 0 if worst <= inputs["tolerance"] else 1,
        }
    return {"a1": a1, "xi": xi, "guard_floor": floor, "sweeps": sweeps}


def hankel_grid(eps: float, points_per_panel: int = 12, panels_per_decade: float = 2.0):
    """Geometric Gauss-Legendre panels on (1e-6 eps, 50/eps)."""
    lo, hi = 1e-6 * eps, 50.0 / eps
    panels = int(math.ceil(math.log10(hi / lo) * panels_per_decade))
    edges = np.geomspace(lo, hi, panels + 1)
    t, w = np.polynomial.legendre.leggauss(points_per_panel)
    mid, half = (edges[:-1] + edges[1:]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
    return (mid[:, None] + half[:, None] * t).ravel(), (half[:, None] * w).ravel()


def k_eps(t, eps: float):
    """(e^{-eps t} - e^{-t}) / (pi t), evaluated without cancellation."""
    t = np.asarray(t, dtype=float)
    return (np.expm1(-eps * t) - np.expm1(-t)) / (np.pi * t)


def exact_trace(eps: float, m: int) -> float:
    if m == 1:
        return math.log(1.0 / eps) / (2.0 * math.pi)
    return (2.0 * math.log1p(eps) - math.log(4.0 * eps)) / math.pi**2


def hankel_reference(inputs: dict) -> dict:
    """Traces of K_eps per power, their fitted slopes, and the predicted law."""
    eps_values = sorted(inputs["eps"], reverse=True)
    traces = {str(m): [] for m in inputs["powers"]}
    for eps in eps_values:
        t, w = hankel_grid(eps)
        sw = np.sqrt(w)
        spectrum = np.linalg.eigvalsh(sw[:, None] * k_eps(t[:, None] + t[None, :], eps) * sw[None, :])
        for m in inputs["powers"]:
            exact = m in (1, 2)
            traces[str(m)].append(exact_trace(eps, m) if exact else float(np.sum(spectrum ** float(m))))
    xs = [math.log(1.0 / e) for e in eps_values]
    return {
        "eps": eps_values,
        "traces": traces,
        "fitted": {k: ols_slope(xs, v) for k, v in traces.items()},
        "predicted": {str(m): sech_moment(m) / (2.0 * math.pi**2) for m in inputs["powers"]},
        "roundtrip_kernel": {
            str(eps): [float(v) for v in k_eps(inputs["roundtrip_t"], eps)]
            for eps in inputs["roundtrip_eps"]
        },
    }


def reference(inputs: dict) -> dict:
    if inputs["kind"] == "rank_one":
        return rank_one_reference(inputs)
    return hankel_reference(inputs)

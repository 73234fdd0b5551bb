"""Model trace class: the truncated Laplace-type kernel K_eps and its traces.

K_eps is the integral operator on (0, inf) with kernel k_eps(t + s),

    k_eps(t) = (e^{-eps t} - e^{-t}) / (pi t),

the Hankel operator attached to the difference of arctan steps at scales eps
and 1.  Its traces grow like |log eps| with computable slopes, which makes it
the exactly-solvable calibration target for the projection-difference
experiments: discretize, take traces, fit against |log eps|, and compare with
the sech-moment law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import integrate

from .density import sech_moment
from .matrices import RectMatrix, SelfAdjointMatrix
from .quadrature import gauss_legendre

__all__ = [
    "QuadratureGrid",
    "TraceSlopeResult",
    "default_grid",
    "default_laplace_grid",
    "discretize_hankel",
    "gauss_legendre_grid",
    "geometric_panel_grid",
    "hs_log_check",
    "k_eps_kernel",
    "k_eps_trace_exact",
    "k_eps_trace_slopes",
    "kernel_from_symbol",
    "laplace_section",
    "limit_slope",
]

SMALL_T = 1e-12
ORACLE_RTOL = 1e-4
PANEL_POINTS = 12  # Gauss-Legendre points per panel of the default grids
PANELS_PER_DECADE = 2.0
IMAG_TOL = 1e-8  # largest imaginary residual kernel_from_symbol accepts
HS_RTOL = 1e-7  # relative tolerance of hs_log_check's nested quadrature


class QuadratureGrid:
    """Positive-weight quadrature nodes, strictly increasing."""

    __slots__ = ("nodes", "weights")

    def __init__(self, nodes, weights):
        n = np.array(nodes, dtype=float)
        w = np.array(weights, dtype=float)
        if n.ndim != 1 or n.shape != w.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(n)) and np.all(np.isfinite(w))):
            raise ValueError("grid nodes and weights must be finite")
        if np.any(w <= 0):
            raise ValueError("grid weights must be positive")
        if np.any(np.diff(n) <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        n.setflags(write=False)
        w.setflags(write=False)
        self.nodes = n
        self.weights = w

    @property
    def size(self) -> int:
        return self.nodes.size

    def __repr__(self) -> str:
        return f"QuadratureGrid(size={self.size})"


def gauss_legendre_grid(a: float, b: float, n: int) -> QuadratureGrid:
    """Gauss-Legendre rule with n points on (a, b)."""
    if not (b > a):
        raise ValueError("need b > a")
    x, w = gauss_legendre(n)
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return QuadratureGrid(mid + half * x, half * w)


def geometric_panel_grid(lo: float, hi: float, panels: int, points_per_panel: int) -> QuadratureGrid:
    """Composite Gauss-Legendre rule on geometrically spaced panels of (lo, hi)."""
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    edges = np.geomspace(lo, hi, int(panels) + 1)
    x, w = gauss_legendre(points_per_panel)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        nodes.append(mid + half * x)
        weights.append(half * w)
    return QuadratureGrid(np.concatenate(nodes), np.concatenate(weights))


def default_grid(eps: float) -> QuadratureGrid:
    """Default t-grid for discretizing K_eps.

    The kernel transitions at t ~ 1 and t ~ 1/eps and decays exponentially
    beyond, so the grid spans 1e-6*eps up to 50/eps on geometric panels; the
    panel count grows with |log eps|.
    """
    _validate_eps(eps)
    lo, hi = 1e-6 * eps, 50.0 / eps
    panels = int(math.ceil(math.log10(hi / lo) * PANELS_PER_DECADE))
    return geometric_panel_grid(lo, hi, panels, PANEL_POINTS)


def default_laplace_grid(eps: float) -> QuadratureGrid:
    """Default x-grid on (eps, 1) for the Laplace-transform factor."""
    _validate_eps(eps)
    panels = max(2, int(math.ceil(math.log10(1.0 / eps) * PANELS_PER_DECADE)))
    return geometric_panel_grid(eps, 1.0, panels, PANEL_POINTS)


def _validate_eps(eps: float) -> float:
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    return float(eps)


def k_eps_kernel(t, eps: float):
    """The kernel profile k_eps(t) = (e^{-eps t} - e^{-t}) / (pi t) for t >= 0.

    Evaluated through expm1 so the small-t cancellation is exact; below 1e-12
    the limit value (1 - eps)/pi is substituted.
    """
    _validate_eps(eps)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("kernel argument must be nonnegative")
    tiny = t < SMALL_T
    safe = np.where(tiny, 1.0, t)
    vals = (np.expm1(-eps * safe) - np.expm1(-safe)) / (np.pi * safe)
    out = np.where(tiny, (1.0 - eps) / np.pi, vals)
    return float(out) if out.ndim == 0 else out


def discretize_hankel(kernel, grid: QuadratureGrid) -> SelfAdjointMatrix:
    """Nystrom matrix M_ij = sqrt(w_i) k(t_i + t_j) sqrt(w_j)."""
    t = grid.nodes
    sw = np.sqrt(grid.weights)
    m = sw[:, None] * np.asarray(kernel(t[:, None] + t[None, :]), dtype=float) * sw[None, :]
    return SelfAdjointMatrix(m)


def laplace_section(eps: float, grid_t: QuadratureGrid, grid_x: QuadratureGrid) -> RectMatrix:
    """Weighted Laplace-transform section L_{x,t} = sqrt(w_x) e^{-x t} sqrt(w_t).

    Restricted to frequencies x in (eps, 1); then (1/pi) L^T L reproduces the
    discretized K_eps on the same t-grid, because

        k_eps(t + s) = (1/pi) int_eps^1 e^{-x t} e^{-x s} dx.

    This factorization is also why the discretized K_eps is positive
    semi-definite regardless of the x-resolution.
    """
    _validate_eps(eps)
    x, wx = grid_x.nodes, grid_x.weights
    if x[0] <= eps or x[-1] >= 1.0:
        raise ValueError("laplace grid nodes must lie strictly inside (eps, 1)")
    t, wt = grid_t.nodes, grid_t.weights
    l = np.sqrt(wx)[:, None] * np.exp(-np.outer(x, t)) * np.sqrt(wt)[None, :]
    return RectMatrix(l)


def k_eps_trace_exact(eps: float, m: int) -> float:
    """Closed-form traces of the continuum K_eps, available for m = 1, 2.

    Tr K_eps   = log(1/eps) / (2 pi)      (Frullani integral of the diagonal)
    Tr K_eps^2 = (2 log(1+eps) - log(4 eps)) / pi^2
    """
    _validate_eps(eps)
    if m == 1:
        return math.log(1.0 / eps) / (2.0 * math.pi)
    if m == 2:
        return (2.0 * math.log1p(eps) - math.log(4.0 * eps)) / math.pi**2
    raise ValueError(f"exact trace known for m in {{1, 2}}, got {m!r}")


def _central_derivative(f, x: float, h: float) -> float:
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def kernel_from_symbol(omega, t_values) -> np.ndarray:
    """Recover the Hankel kernel of a decaying odd symbol by Fourier transform.

    For a real odd symbol with O(1/x) decay, k(t) = -(i/2pi) int omega(x)
    e^{-i x t} dx is real; one integration by parts trades the slow decay for
    the integrable derivative,

        k(t) = -(1/(2 pi t)) int omega'(x) e^{-i x t} dx,

    and the remaining oscillatory integrals go to the QUADPACK Fourier rules.
    The imaginary part is computed as well and must stay below ``IMAG_TOL``.
    """
    t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
    if np.any(t_values <= 0):
        raise ValueError("kernel recovery needs t > 0")
    _check_symbol(omega)

    def deriv(x: float) -> float:
        h = 1e-3 * (1.0 + abs(x))
        return _central_derivative(omega, x, h)

    def odd_defect(x: float) -> float:
        return deriv(x) - deriv(-x)

    out = np.empty_like(t_values)
    for i, t in enumerate(t_values):
        cos_part, _ = integrate.quad(
            deriv, 0.0, np.inf, weight="cos", wvar=t, limlst=200, limit=400
        )
        sin_defect, _ = integrate.quad(
            odd_defect, 0.0, np.inf, weight="sin", wvar=t, limlst=200, limit=400
        )
        imag = abs(sin_defect) / (2.0 * np.pi * t)
        if imag > IMAG_TOL:
            raise ValueError(
                f"imaginary residual {imag:.3e} at t={t} exceeds {IMAG_TOL:.0e}; "
                "symbol is not odd enough"
            )
        out[i] = -cos_part / (np.pi * t)
    return out


def _check_symbol(omega) -> None:
    for x in (0.7, 2.3, 11.0):
        defect = abs(float(omega(x)) + float(omega(-x)))
        if defect > 1e-9 * max(1.0, abs(float(omega(x)))):
            raise ValueError(f"symbol must be odd; defect {defect:.3e} at x={x}")
    far, farther = abs(float(omega(1e3))), abs(float(omega(1e6)))
    if far > 0.1 or farther > 1e-3:
        raise ValueError(
            f"symbol must decay like 1/x: |omega(1e3)|={far:.3e}, |omega(1e6)|={farther:.3e}"
        )


def hs_log_check(profile, eps: float, box: tuple[float, float] = (-1.0, 1.0)) -> float:
    """Squared difference-quotient mass of psi_eps over box x box.

    Computes int int |(psi_eps(x) - psi_eps(y)) / (x - y)|^2 dx dy, which for
    any unit-jump profile grows like 2 |log eps| + O(1).  The diagonal is a
    removable singularity, patched with a central difference quotient.
    """
    from .profiles import scale  # local import keeps module deps one-way

    a, b = float(box[0]), float(box[1])
    if not (a < 0 < b):
        raise ValueError("box must straddle the jump at 0")
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps!r}")
    psi = scale(profile, eps)
    dq_floor = 1e-9 * eps

    def quotient(x: float, y: float) -> float:
        if abs(x - y) < dq_floor:
            h = 1e-6 * eps
            return (float(psi(x + h)) - float(psi(x - h))) / (2.0 * h)
        return (float(psi(x)) - float(psi(y))) / (x - y)

    interior = [p for p in (-5 * eps, 0.0, 5 * eps) if a < p < b]

    def inner(x: float) -> float:
        pts = sorted(set(p for p in interior + [x] if a < p < b))
        val, _ = integrate.quad(
            lambda y: quotient(x, y) ** 2, a, b,
            points=pts, limit=300, epsabs=1e-12, epsrel=HS_RTOL,
        )
        return val

    total, _ = integrate.quad(
        inner, a, b, points=interior, limit=300, epsabs=1e-12, epsrel=HS_RTOL
    )
    return total


def limit_slope(x, y) -> float:
    """Slope of y against x in the limit x -> inf, from the deepest local slopes.

    The local (two-point) slopes between consecutive points carry the
    finite-x transient.  When their last two differences shrink with one sign
    (0 < d2/d1 < 1), Aitken's delta-squared on the last three extrapolates
    them, which is exact for a geometric tail; otherwise the deepest local
    slope is returned.  ``x`` must be increasing with at least 2 points.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 2:
        raise ValueError("x and y must be 1-d arrays of equal length >= 2")
    if np.any(np.diff(x) <= 0):
        raise ValueError("x must be strictly increasing")
    local = np.diff(y) / np.diff(x)
    if local.size >= 3:
        d1, d2 = local[-2] - local[-3], local[-1] - local[-2]
        if d1 != 0 and 0 < d2 / d1 < 1:
            return float(local[-1] - d2 * d2 / (d2 - d1))
    return float(local[-1])


@dataclass(frozen=True)
class TraceSlopeResult:
    """Fitted |log eps| slopes of Tr K_eps^m against the sech-moment law.

    ``fitted`` is the least-squares slope over the whole eps window;
    ``extrapolated`` is the ``limit_slope`` estimate, which removes the
    O(eps |log eps|^(m-2)) transient that biases the fit on shallow windows.
    """

    eps: np.ndarray
    log_inv_eps: np.ndarray
    traces: dict[int, np.ndarray]
    fitted: dict[int, float]
    predicted: dict[int, float]
    oracle_deviation: np.ndarray
    resolution_ok: bool
    grid_sizes: np.ndarray
    extrapolated: dict[int, float]


def k_eps_trace_slopes(m_list, eps_values, grid_factory=default_grid) -> TraceSlopeResult:
    """Discretize K_eps across eps_values and fit Tr K^m ~ slope * |log eps|.

    Each power gets two slope estimates: the least-squares ``fitted`` and the
    limit estimate ``extrapolated`` (see ``limit_slope``).

    The m = 1 trace is compared with its closed form at every eps; a relative
    deviation beyond 1e-4 marks the grid as under-resolved (``resolution_ok``
    goes False) without aborting the run.
    """
    eps_values = np.asarray(sorted(set(float(e) for e in np.atleast_1d(eps_values)), reverse=True))
    if eps_values.size < 3:
        raise ValueError("need at least 3 eps values to fit a slope")
    m_list = [int(m) for m in m_list]
    if any(m < 1 for m in m_list):
        raise ValueError("trace powers must be positive integers")

    log_inv = np.log(1.0 / eps_values)
    traces = {m: np.empty_like(eps_values) for m in m_list}
    oracle_dev = np.empty_like(eps_values)
    sizes = np.empty(eps_values.size, dtype=int)
    for i, eps in enumerate(eps_values):
        grid = grid_factory(eps)
        sizes[i] = grid.size
        mat = discretize_hankel(partial(k_eps_kernel, eps=eps), grid)
        w = mat.eigenvalues()
        trace1 = float(np.sum(w))
        exact1 = k_eps_trace_exact(eps, 1)
        oracle_dev[i] = abs(trace1 - exact1) / exact1
        for m in m_list:
            traces[m][i] = float(np.sum(w ** float(m)))

    fitted = {m: float(np.polyfit(log_inv, traces[m], 1)[0]) for m in m_list}
    extrapolated = {m: limit_slope(log_inv, traces[m]) for m in m_list}
    predicted = {m: sech_moment(m) / (2.0 * np.pi**2) for m in m_list}
    return TraceSlopeResult(
        eps=eps_values,
        log_inv_eps=log_inv,
        traces=traces,
        fitted=fitted,
        predicted=predicted,
        oracle_deviation=oracle_dev,
        resolution_ok=bool(np.all(oracle_dev <= ORACLE_RTOL)),
        grid_sizes=sizes,
        extrapolated=extrapolated,
    )

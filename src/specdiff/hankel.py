"""Model trace class: the truncated Laplace-type kernel K_eps and its traces.

K_eps is the integral operator on (0, inf) with kernel k_eps(t + s),

    k_eps(t) = (e^{-eps t} - e^{-t}) / (pi t),

the Hankel operator attached to the difference of arctan steps at scales eps
and 1.  Its traces grow like |log eps| with computable slopes, which makes it
the exactly-solvable calibration target for the projection-difference
experiments: discretize, take traces, fit against |log eps|, and compare with
the sech-moment law.

The traces are taken in the log variable.  Since

    k_eps(t + s) = (1/pi) int_eps^1 e^{-x t} e^{-x s} dx,

K_eps = L^T L / pi for the Laplace section L : L^2(0, inf) -> L^2(eps, 1),
so it has the nonzero spectrum of L L^T / pi, the Carleman section with
kernel 1/(pi (x + y)) on L^2(eps, 1).  In sigma = -log x that operator is a
convolution on (0, |log eps|) with the analytic kernel
1/(2 pi cosh((sigma - sigma')/2)) (a Kac-Murdock-Szego setting), so
``section_grid`` is uniform in sigma, with about 4 |log eps| nodes, and the
traces come from products of the section matrix, with no eigensolve.
The t-grids (``default_grid``) stay for the t-space checks: the closed-form
traces, the Laplace factorization and its positivity.  Below t = 1 the
kernel is entire, so ``default_grid`` gives [0, 1] one Gauss-Legendre panel
and grades only the tail, from 1 to 50/eps.

``kernel_from_symbol`` goes the other way, from an odd symbol to its Hankel
kernel: one sine sum on Ooura and Mori's double-exponential Fourier rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import sech_moment
from .matrices import RectMatrix, SelfAdjointMatrix, check_trace_powers, trace_powers
# the grid builders are re-exported; the default grids lay the module's own rules
from .quadrature import (
    QuadratureGrid,
    gauss_legendre,
    gauss_legendre_grid,
    geometric_panel_grid,
    panel_rule,
    uniform_panels,
)

__all__ = [
    "QuadratureGrid",
    "TraceSlopeResult",
    "default_grid",
    "default_laplace_grid",
    "discretize_hankel",
    "gauss_legendre_grid",
    "geometric_panel_grid",
    "k_eps_kernel",
    "k_eps_trace_exact",
    "k_eps_trace_slopes",
    "kernel_from_symbol",
    "laplace_section",
    "limit_slope",
    "section_grid",
    "sequence_limit",
]

SMALL_T = 1e-12
ORACLE_RTOL = 1e-4
PANEL_POINTS = 12  # Gauss-Legendre points per panel of the default grids
PANELS_PER_DECADE = 2.0
SECTION_PANEL_WIDTH = 4.0  # panel width of section_grid in sigma = -log x
SECTION_PANEL_POINTS = 16
IMAG_TOL = 1e-8  # largest imaginary residual kernel_from_symbol accepts
SYMBOL_BLOCK = 64  # t values per call of the symbol in kernel_from_symbol
DE_STEP = 0.025  # step h of the double-exponential Fourier rule, M = pi / h
DE_CUTOFF = 4.0  # |u| beyond which its terms vanish in double precision


_PANEL_RULE = gauss_legendre(PANEL_POINTS)  # the rule on each panel of the default grids


def default_grid(eps: float) -> QuadratureGrid:
    """Default t-grid for discretizing K_eps: one panel on [0, 1], geometric ones to 50/eps.

    The kernel transitions at t ~ 1 and t ~ 1/eps and decays exponentially
    beyond, so the grid stops at 50/eps.  On [0, 1] it is the entire function
    (1/pi) int_eps^1 e^{-x t} dx, so one ``PANEL_POINTS``-point
    Gauss-Legendre panel integrates it to rounding there (Trefethen,
    Approximation Theory and Approximation Practice, 2013, ch. 19); geometric
    panels below t = 1 would only resolve a scale the kernel does not have.
    Above 1 the panels are geometric, ``PANELS_PER_DECADE`` a decade.  Every
    panel lays the rule built at import: 108 nodes at eps = 1e-2, 348 at 1e-12.
    """
    hi = 50.0 / _validate_eps(eps)
    panels = int(math.ceil(math.log10(hi) * PANELS_PER_DECADE))
    edges = np.concatenate(([0.0], np.geomspace(1.0, hi, panels + 1)))
    return QuadratureGrid(*panel_rule(edges, _PANEL_RULE))


def default_laplace_grid(eps: float) -> QuadratureGrid:
    """Default x-grid on (eps, 1) for the Laplace-transform factor."""
    _validate_eps(eps)
    panels = max(2, int(math.ceil(math.log10(1.0 / eps) * PANELS_PER_DECADE)))
    return QuadratureGrid(*panel_rule(np.geomspace(eps, 1.0, panels + 1), _PANEL_RULE))


_SECTION_RULE = gauss_legendre(SECTION_PANEL_POINTS)


def section_grid(eps: float) -> QuadratureGrid:
    """Default x-grid on (eps, 1) for the Carleman section of K_eps.

    Gauss-Legendre panels of width at most ``SECTION_PANEL_WIDTH``, uniform in
    sigma = -log x on (0, |log eps|), mapped by x = e^{-sigma}, w_x = x w_sigma:
    32 nodes at eps = 1e-2, 112 at 1e-12.  The integrand of Tr K_eps is
    constant in sigma, so that trace is exact to rounding.
    """
    span = math.log(1.0 / _validate_eps(eps))
    sigma, w = panel_rule(uniform_panels(0.0, span, SECTION_PANEL_WIDTH), _SECTION_RULE)
    x = np.exp(-sigma)
    return QuadratureGrid(x[::-1], (x * w)[::-1])


def _validate_eps(eps: float) -> float:
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    return float(eps)


def k_eps_kernel(t, eps: float):
    """The kernel profile k_eps(t) = (e^{-eps t} - e^{-t}) / (pi t) for t >= 0.

    Evaluated through expm1 so the small-t cancellation is exact; below
    ``SMALL_T`` the limit value (1 - eps)/pi is substituted.
    """
    _validate_eps(eps)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("kernel argument must be nonnegative")
    tiny = t < SMALL_T
    safe = np.where(tiny, 1.0, t)
    out = np.where(tiny, (1.0 - eps) / np.pi,
                   (np.expm1(-eps * safe) - np.expm1(-safe)) / (np.pi * safe))
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
    semi-definite regardless of the x-resolution.  The other product,
    L L^T / pi, is the Carleman section 1/(pi (x + y)) on (eps, 1) that
    ``k_eps_trace_slopes`` diagonalizes.
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
    check_trace_powers((m,))
    if m == 1:
        return math.log(1.0 / eps) / (2.0 * math.pi)
    if m == 2:
        return (2.0 * math.log1p(eps) - math.log(4.0 * eps)) / math.pi**2
    raise ValueError(f"exact trace known for m in {{1, 2}}, got {m!r}")


def _fourier_rule(offset: float, trig) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y and weights c with int_0^inf f(x) trig(t x) dx ~ sum(c f(y / t)) / t.

    Ooura and Mori's substitution x = M phi(u) / t, phi(u) = u / (1 - e^{-6 sinh u}),
    M = pi / h, on u = (n + offset) h with |u| <= ``DE_CUTOFF``.  Offset 0
    suits trig = sin and offset -1/2 suits cos: there M u is a zero of trig,
    and M phi(u) approaches it double exponentially as u grows, so the
    truncated tail carries nothing.  At u = 0, phi and phi' take their limits
    1/6 and 1/2.
    """
    half = round(DE_CUTOFF / DE_STEP)
    u = (np.arange(-half, half + 1) + offset) * DE_STEP
    u = u[np.abs(u) <= DE_CUTOFF]
    s = 6.0 * np.sinh(u)
    z = -np.expm1(-s)
    origin = u == 0.0
    z[origin] = 1.0
    phi = u / z
    dphi = (1.0 - 6.0 * u * np.cosh(u) * np.exp(-s) / z) / z
    phi[origin], dphi[origin] = 1.0 / 6.0, 0.5
    y = (np.pi / DE_STEP) * phi
    return y, np.pi * dphi * trig(y)


_SINE_RULE = _fourier_rule(0.0, np.sin)  # 321 nodes
_COSINE_RULE = _fourier_rule(-0.5, np.cos)  # 320 nodes


def kernel_from_symbol(omega, t_values) -> np.ndarray:
    """Recover the Hankel kernel of a decaying odd symbol by Fourier transform.

    For a real odd symbol with O(1/x) decay, k(t) = -(i/2pi) int omega(x)
    e^{-i x t} dx is real, k(t) = -(1/pi) int_0^inf omega(x) sin(x t) dx: the
    slowly decaying sine integral that Ooura and Mori's double-exponential
    rule for Fourier integrals (J. Comput. Appl. Math. 38, 1991) is made for,
    with no derivative of the symbol.  With step ``DE_STEP`` its nodes are
    fixed and scaled by 1/t, 961 of them per t, so a block of up to
    ``SYMBOL_BLOCK`` t values takes one vectorized call of the symbol, on a
    block x 961 array.  The imaginary part, the cosine integral of
    omega(x) + omega(-x) over (0, inf) divided by 2 pi, must stay below
    ``IMAG_TOL``; the first t where it does not is named.  ``omega`` must
    map a NumPy array elementwise.
    """
    t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
    if not np.all((t_values > 0) & np.isfinite(t_values)):
        raise ValueError("kernel recovery needs finite t > 0")
    _check_symbol(omega)
    (y_sin, c_sin), (y_cos, c_cos) = _SINE_RULE, _COSINE_RULE
    y = np.concatenate((y_sin, y_cos, -y_cos))
    out = np.empty_like(t_values)
    for start in range(0, t_values.size, SYMBOL_BLOCK):
        t = t_values[start:start + SYMBOL_BLOCK]
        sine, plus, minus = np.split(np.asarray(omega(y / t[:, None]), dtype=float),
                                     [y_sin.size, y_sin.size + y_cos.size], axis=1)
        imag = np.abs((plus + minus) @ c_cos) / (2.0 * np.pi * t)
        if np.any(imag > IMAG_TOL):
            first = int(np.argmax(imag > IMAG_TOL))
            raise ValueError(
                f"imaginary residual {imag[first]:.3e} at t={t[first]} exceeds "
                f"{IMAG_TOL:.0e}; symbol is not odd enough"
            )
        out[start:start + SYMBOL_BLOCK] = -(sine @ c_sin) / (np.pi * t)
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


def sequence_limit(values) -> float:
    """Limit of a converging sequence, from its last three terms.

    When the last two differences shrink with one sign (0 < d2/d1 < 1),
    Aitken's delta-squared extrapolates them, which is exact for a geometric
    tail; otherwise the last term is returned.  ``values`` must be a
    non-empty 1-d sequence.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 1:
        raise ValueError("values must be a non-empty 1-d sequence")
    if values.size >= 3:
        d1, d2 = values[-2] - values[-3], values[-1] - values[-2]
        if d1 != 0 and 0 < d2 / d1 < 1:
            return float(values[-1] - d2 * d2 / (d2 - d1))
    return float(values[-1])


def limit_slope(x, y) -> float:
    """Slope of y against x in the limit x -> inf, from the deepest local slopes.

    The local (two-point) slopes between consecutive points carry the
    finite-x transient; their ``sequence_limit`` is returned.  ``x`` must be
    increasing with at least 2 points.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 2:
        raise ValueError("x and y must be 1-d arrays of equal length >= 2")
    if np.any(np.diff(x) <= 0):
        raise ValueError("x must be strictly increasing")
    return sequence_limit(np.diff(y) / np.diff(x))


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


def _carleman(s):
    return 1.0 / (np.pi * s)


def k_eps_trace_slopes(m_list, eps_values) -> TraceSlopeResult:
    """Fit Tr K_eps^m ~ slope * |log eps| across eps_values.

    The powers are distinct positive ints (``check_trace_powers``).  The
    traces are those of the Carleman section 1/(pi (x + y)) on (eps, 1), which
    has the nonzero spectrum of K_eps (see ``laplace_section``), discretized
    on ``section_grid(eps)``.  They are taken from products of that matrix
    (``matrices.trace_powers``), with no eigensolve: its entries are
    positive, so every product sum is a sum of positive terms.  Each power
    gets two slope estimates: the least-squares ``fitted``, one ``np.polyfit``
    for all powers, and the limit estimate ``extrapolated`` (see
    ``limit_slope``).

    The m = 2 trace is compared with its closed form at every eps; a relative
    deviation beyond ``ORACLE_RTOL`` marks the grid as under-resolved
    (``resolution_ok`` goes False) without aborting the run.  The m = 1 trace
    cannot serve: its integrand is constant in sigma = -log x, so any rule
    uniform in sigma gets it exact to rounding however coarse it is.
    """
    eps_values = np.asarray(sorted(set(float(e) for e in np.atleast_1d(eps_values)), reverse=True))
    if eps_values.size < 3:
        raise ValueError("need at least 3 eps values to fit a slope")
    m_list = check_trace_powers(m_list)
    grids = [section_grid(eps) for eps in eps_values]  # refuses a bad eps before 1/eps is taken

    log_inv = np.log(1.0 / eps_values)
    stacked = np.empty((eps_values.size, len(m_list)), order="F")  # a column per power
    traces = {m: stacked[:, j] for j, m in enumerate(m_list)}
    oracle_dev = np.empty_like(eps_values)
    sizes = np.empty(eps_values.size, dtype=int)
    for i, (eps, grid) in enumerate(zip(eps_values, grids)):
        sizes[i] = grid.size
        section = trace_powers(discretize_hankel(_carleman, grid), set(m_list) | {2})
        exact2 = k_eps_trace_exact(eps, 2)
        oracle_dev[i] = abs(section[2] - exact2) / exact2
        for m in m_list:
            traces[m][i] = section[m]

    fitted = {m: float(slope) for m, slope in zip(m_list, np.polyfit(log_inv, stacked, 1)[0])}
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

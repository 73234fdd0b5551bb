"""Limiting eigenvalue density on scattering bands and its moment laws.

The smoothed projection differences have eigenvalues filling bands
(-a_n, a_n) with a log-rate density

    mu(y) = (1/pi^2) sum_n 1_(-a_n, a_n)(y) / (|y| sqrt(1 - y^2/a_n^2)),

where the a_n in (0, 1] are the band edges.  The even moments and window
masses of mu are what the experiments compare their fitted slopes against.
"""

from __future__ import annotations

import math

import numpy as np

from .matrices import check_trace_powers
from .quadrature import gauss_legendre, panel_integral, uniform_panels

__all__ = [
    "BandSet",
    "band_count_slope",
    "delta_m",
    "mu",
    "rhs_integral",
    "sech_moment",
]

EDGE_FLOOR = 1e-6
RHS_TOL = 1e-10  # absolute and relative tolerance of rhs_integral's quadrature
RHS_PANEL_WIDTH = 1.0  # widest panel of rhs_integral's first composite rule, in x
RHS_HALVINGS = 6  # halvings of those panels before rhs_integral gives up
_RHS_RULE = gauss_legendre(16)
# Gamma(x) / Gamma(x + 1/2) = x^(-1/2) (1 + 1/(8x) + 1/(128x^2) - ...), highest power first
_GAMMA_RATIO_SERIES = (399 / 262144, -21 / 32768, -5 / 1024, 1 / 128, 1 / 8, 1.0)


class BandSet:
    """Band edges a_n, stored descending in (0, 1].

    Edges at or below ``EDGE_FLOOR`` are dropped: they carry no weight at the
    resolutions any experiment here reaches and would otherwise poison the
    arccosh terms with huge arguments.  A negative edge is an error; 0 is
    not, since a1 = |S - 1|/2 can vanish.
    """

    __slots__ = ("edges",)

    def __init__(self, edges):
        arr = np.sort(np.asarray(list(edges), dtype=float))[::-1]
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("band edges must be finite")
        if arr.size and not (arr[-1] >= 0.0 and arr[0] <= 1.0 + 1e-12):
            raise ValueError(f"band edges must lie in [0, 1], got {arr.tolist()!r}")
        arr = np.minimum(arr, 1.0)
        self.edges = tuple(float(a) for a in arr if a > EDGE_FLOOR)

    def __iter__(self):
        return iter(self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"BandSet({list(self.edges)!r})"


def mu(bands: BandSet, y: float) -> float:
    """Density of the limiting eigenvalue distribution at y.

    Defined on 0 < |y| < 1; the value is 0 outside every band, finite inside,
    and blows up (integrably) at band edges and at the origin.
    """
    y = float(y)
    if y == 0.0:
        raise ValueError("mu is singular at y = 0")
    if not abs(y) < 1.0:
        raise ValueError(f"mu is defined on |y| < 1, got y = {y!r}")
    ay = abs(y)
    total = 0.0
    for a in bands:
        if ay < a:
            total += 1.0 / (ay * np.sqrt(1.0 - (y / a) ** 2))
    return total / np.pi**2


def band_count_slope(bands: BandSet, b: float) -> float:
    """Mass of mu on (b, 1), one side: (1/pi^2) sum over a_n > b of arccosh(a_n / b).

    This is the predicted log-rate of the eigenvalue count in (b, 1); mu is
    even, so the count in (-1, -b) has the same rate.
    """
    b = float(b)
    if not (b > 0):
        raise ValueError(f"threshold must be positive, got {b!r}")
    total = 0.0
    for a in bands:
        if a > b:
            total += float(np.arccosh(a / b))
    return total / np.pi**2


def sech_moment(m: float) -> float:
    """Integral over the line of sech(x)^m, B(m/2, 1/2) = sqrt(pi) Gamma(m/2) / Gamma((m+1)/2)."""
    if not (m >= 1):
        raise ValueError(f"moment order must be >= 1, got {m!r}")
    half = float(m) / 2.0
    if half < 170.0:  # Gamma(x + 1/2) overflows a float64 from x = 171.1
        ratio = math.gamma(half) / math.gamma(half + 0.5)
    else:  # Gamma(x) / Gamma(x + 1/2) by its asymptotic series in 1/x, to 4e-16 here
        r = 1.0 / half
        series = _GAMMA_RATIO_SERIES[0]
        for c in _GAMMA_RATIO_SERIES[1:]:
            series = series * r + c
        ratio = math.sqrt(r) * series
    return math.sqrt(math.pi) * ratio


def delta_m(bands: BandSet, m: int) -> float:
    """Moment of mu: Delta_m = integral of y^m mu(y) dy.

    Vanishes identically for odd m; for even m it equals
    (1/pi^2) (sum a_n^m) integral sech(x)^m dx.
    """
    check_trace_powers((m,))
    if m % 2 == 1:
        return 0.0
    edge_sum = sum(a ** float(m) for a in bands)
    return edge_sum * sech_moment(m) / np.pi**2


def rhs_integral(bands: BandSet, g, eta: float) -> float:
    """Integral of g against mu, for g vanishing on (-eta, eta).

    Uses the substitution y = a_n / cosh(x), under which the band-n term
    becomes (1/(2 pi^2)) int_{-X}^{X} [g(a_n/cosh x) + g(-a_n/cosh x)] dx and
    the vanishing of g below eta truncates to X = arccosh(a_n / eta).  Each
    term is a composite Gauss-Legendre rule on (0, X), its panels halved until
    two successive sums agree to ``RHS_TOL`` (``quadrature.panel_integral``);
    ``ValueError`` if they never do.  g is called on one float at a time.
    """
    if not (eta > 0):
        raise ValueError(f"eta must be positive, got {eta!r}")
    total = 0.0
    for a in bands:
        if a <= eta:
            continue
        cap = float(np.arccosh(a / eta))

        def integrand(x, a=a):
            return np.array([g(y) + g(-y) for y in (a / np.cosh(x)).tolist()])

        # integrand is even in x, so (-X, X) is twice (0, X)
        total += panel_integral(integrand, uniform_panels(0.0, cap, RHS_PANEL_WIDTH),
                                _RHS_RULE, RHS_TOL, RHS_HALVINGS)
    return total / np.pi**2

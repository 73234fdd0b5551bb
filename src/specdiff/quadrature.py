"""Gauss-Legendre rules on [-1, 1] and composite rules on panels: one copy for the package.

``gauss_legendre(n)`` is NumPy's ``leggauss`` up to 100 points and, above
that, Bogaert's iteration-free asymptotic formulas (I. Bogaert, "Iteration-
free computation of Gauss-Legendre quadrature nodes and weights", SIAM J.
Sci. Comput. 36, 2014), which cost O(n) instead of the O(n^2) Newton
polish of ``leggauss`` and ``scipy.special.roots_legendre``.  The k-th node
from the right is cos(theta_k), theta_k = j_k / (n + 1/2) plus three
Chebyshev-fitted correction series in theta_k^2, where j_k is the k-th zero
of the Bessel function J0; the weight follows from J1(j_k)^2 and three more
series.  The right half is computed and mirrored, so the rule is exactly
symmetric and the middle node of an odd n is exactly 0.

``gauss_legendre_reference(n)`` is the test oracle: Newton's method on the
three-term recurrence in ``np.longdouble``, O(n^2).

``panel_rule`` lays a rule on (-1, 1) over the panels between given edges
(``uniform_panels`` gives equal ones); ``panel_integral`` sums a function on
such panels and checks the sum against the one on the halved panels.
``QuadratureGrid`` and its builders (``gauss_legendre_grid``,
``geometric_panel_grid``) are the positive-weight grids that ``hankel``
discretizes on.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ASYMPTOTIC_MIN_N",
    "QuadratureGrid",
    "gauss_legendre",
    "gauss_legendre_grid",
    "gauss_legendre_reference",
    "geometric_panel_grid",
    "panel_integral",
    "panel_rule",
    "uniform_panels",
]

# Below this size the asymptotic series lose digits; Bogaert tabulates the
# range, and NumPy's leggauss is exact to rounding there.
ASYMPTOTIC_MIN_N = 101

# j_k, the k-th zero of J0, for k <= 20 (McMahon's expansion above), and
# J1(j_k)^2 for k <= 21 (an asymptotic series above; the 21st is J1 at
# McMahon's j_21): the float64 values of SciPy's jn_zeros and j1, tabulated
_J0_ZEROS = np.array([
    2.4048255576957724, 5.520078110286311, 8.653727912911013, 11.791534439014281,
    14.930917708487787, 18.071063967910924, 21.21163662987926, 24.352471530749302,
    27.493479132040253, 30.634606468431976, 33.77582021357357, 36.917098353664045,
    40.05842576462824, 43.19979171317673, 46.341188371661815, 49.482609897397815,
    52.624051841115, 55.76551075501998, 58.90698392608094, 62.048469190227166,
])
_J1_SQUARED_AT_ZEROS = np.array([
    0.269514123941917, 0.11578013858220378, 0.07368635113640826, 0.054037573198116286,
    0.04266142901724307, 0.03524210349099611, 0.03002107010305466, 0.026147391495308092,
    0.023159121824691403, 0.020783829122267842, 0.018850450669317672, 0.017246157569665008,
    0.0158935181059236, 0.014737626096472192, 0.013738465145387117, 0.01286618173761514,
    0.012098051548626794, 0.011416471224491607, 0.010807592791180208, 0.010260372926280771,
    0.009765897139791058,
])

# McMahon's expansion of j_k in r = 1 / (pi (k - 1/4)), odd powers from r^1
_MCMAHON = (
    0.125,
    -0.807291666666666666666666666667e-1,
    0.246028645833333333333333333333,
    -1.82443876720610119047619047619,
    25.3364147973439050099206349206,
    -567.644412135183381139802038240,
    18690.4765282320653831636345064,
    -8.49353580299148769921876983660e5,
    5.09225462402226769498681286758e7,
)
# J1(j_k)^2 = s (c0 + s^4 (c1 + s^2 (c2 + ...))), s = 1 / (k - 1/4)
_J1_SQUARED = (
    0.202642367284675542887091596380,
    -0.303380429711290253026202643516e-3,
    0.198924364245969295201137972743e-3,
    -0.228969902772111653038747229723e-3,
    0.433710719130746277915572905025e-3,
    -0.123632349727175414724737657367e-2,
    0.496101423268883102872271417616e-2,
    -0.266837393702323757700998557826e-1,
    0.185395398206345628711318848386,
)
# Chebyshev-fitted node and weight series in theta^2, highest power first
_NODE_SERIES = (
    (-1.29052996274280508473467968379e-12, 2.40724685864330121825976175184e-10,
     -3.13148654635992041468855740012e-8, 0.275573168962061235623801563453e-5,
     -0.148809523713909147898955880165e-3, 0.416666666665193394525296923981e-2,
     -0.416666666666662959639712457549e-1),
    (2.20639421781871003734786884322e-9, -7.53036771373769326811030753538e-8,
     0.161969259453836261731700382098e-5, -0.253300326008232025914059965302e-4,
     0.282116886057560434805998583817e-3, -0.209022248387852902722635654229e-2,
     0.815972221772932265640401128517e-2),
    (-2.97058225375526229899781956673e-8, 5.55845330223796209655886325712e-7,
     -0.567797841356833081642185432056e-5, 0.418498100329504574443885193835e-4,
     -0.251395293283965914823026348764e-3, 0.128654198542845137196151147483e-2,
     -0.416012165620204364833694266818e-2),
)
_WEIGHT_SERIES = (
    (-2.20902861044616638398573427475e-14, 2.30365726860377376873232578871e-12,
     -1.75257700735423807659851042318e-10, 1.03756066927916795821098009353e-8,
     -4.63968647553221331251529631098e-7, 0.149644593625028648361395938176e-4,
     -0.326278659594412170300449074873e-3, 0.436507936507598105249726413120e-2,
     -0.305555555555553028279487898503e-1, 0.833333333333333302184063103900e-1),
    (3.63117412152654783455929483029e-12, 7.67643545069893130779501844323e-11,
     -7.12912857233642220650643150625e-9, 2.11483880685947151466370130277e-7,
     -0.381817918680045468483009307090e-5, 0.465969530694968391417927388162e-4,
     -0.407297185611335764191683161117e-3, 0.268959435694729660779984493795e-2,
     -0.111111111111214923138249347172e-1),
    (2.01826791256703301806643264922e-9, -4.38647122520206649251063212545e-8,
     5.08898347288671653137451093208e-7, -0.397933316519135275712977531366e-5,
     0.200559326396458326778521795392e-4, -0.422888059282921161626339411388e-4,
     -0.105646050254076140548678457002e-3, -0.947969308958577323145923317955e-4,
     0.656966489926484797412985260842e-2),
)


def _horner(coefficients, x: np.ndarray) -> np.ndarray:
    out = np.full_like(x, coefficients[0])
    for c in coefficients[1:]:
        out = out * x + c
    return out


def _bessel_data(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``count`` zeros j_k of J0 and J1(j_k)^2."""
    k = np.arange(1, count + 1, dtype=float)
    r = 1.0 / (np.pi * (k - 0.25))
    zeros = np.pi * (k - 0.25) + r * _horner(_MCMAHON[::-1], r * r)
    zeros[: _J0_ZEROS.size] = _J0_ZEROS[:count]
    s = 1.0 / (k - 0.25)
    s2 = s * s
    j1_squared = s * (_J1_SQUARED[0] + s2 * s2 * _horner(_J1_SQUARED[:0:-1], s2))
    head = min(count, _J1_SQUARED_AT_ZEROS.size)
    j1_squared[:head] = _J1_SQUARED_AT_ZEROS[:head]
    return zeros, j1_squared


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    n = int(n)
    if n < ASYMPTOTIC_MIN_N:
        return np.polynomial.legendre.leggauss(n)
    half = (n + 1) // 2  # the nodes from the right end down to the middle
    nu, b = _bessel_data(half)
    h = 1.0 / (n + 0.5)
    theta = h * nu
    theta2 = theta * theta
    nu_over_sin = nu / np.sin(theta)
    wis = h * h * nu_over_sin
    wis2 = wis * wis
    f1, f2, f3 = (_horner(c, theta2) for c in _NODE_SERIES)
    theta = h * (nu + theta * wis * (f1 + wis2 * (f2 + wis2 * f3)))
    g1, g2, g3 = (_horner(c, theta2) for c in _WEIGHT_SERIES)
    b_nu_over_sin = b * nu_over_sin
    weights = 2.0 * h / (b_nu_over_sin + b_nu_over_sin * wis2 * (g1 + wis2 * (g2 + wis2 * g3)))

    right = np.cos(theta[: n // 2])
    nodes = np.concatenate((-right, np.zeros(n % 2), right[::-1]))
    return nodes, np.concatenate((weights, weights[: n // 2][::-1]))


def gauss_legendre_reference(n: int, steps: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """The n-point rule by Newton's method in ``np.longdouble``, the test oracle.

    Starts from the non-negative nodes of ``gauss_legendre(n)``, takes
    ``steps`` Newton steps on the three-term recurrence of P_n, O(n^2) each,
    and mirrors them; the weights are 2 / ((1 - x^2) P_n'(x)^2).  Returned
    in ``np.longdouble``: where that type is wider than float64 (x86's 64-bit
    mantissa) the result is correct beyond double precision.
    """
    n = int(n)
    one = np.longdouble(1)

    def legendre(x):
        # P_n(x), P_n'(x) (from P_n and P_(n-1)) and 1 - x^2, the last without cancellation
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        s = (one - x) * (one + x)
        return p1, n * (p0 - x * p1) / s, s

    x = gauss_legendre(n)[0][n // 2 :].astype(np.longdouble)
    for _ in range(steps):
        p, dp, s = legendre(x)
        x = x - p / dp
    # the last Newton step dx is below the rounding of x, but near 1 the weight
    # moves by 2 x dx / (1 - x^2) relative: take that first-order change into it
    p, dp, s = legendre(x)
    dx = -p / dp
    w = 2 * (one - 2 * x * dx / s) / (s * dp * dp)
    x = x + dx
    return np.concatenate((-x[n % 2 :][::-1], x)), np.concatenate((w[n % 2 :][::-1], w))


def uniform_panels(lo: float, hi: float, width: float) -> np.ndarray:
    """Edges of the fewest equal panels of (lo, hi), lo < hi, no wider than ``width``."""
    count = (hi - lo) / width
    if not math.isfinite(count):
        raise ValueError(f"cannot cut ({lo!r}, {hi!r}) into panels of width {width!r}")
    return np.linspace(lo, hi, math.ceil(count) + 1)


def panel_rule(edges: np.ndarray, rule) -> tuple[np.ndarray, np.ndarray]:
    """Composite nodes and weights of the rule on (-1, 1) over the panels between ``edges``."""
    x, w = rule
    mid, half = (edges[:-1] + edges[1:]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def panel_integral(f, edges: np.ndarray, rule, tol: float, halvings: int) -> float:
    """Integral of f over the panels between ``edges``, checked by halving them.

    The composite ``rule`` on the panels is compared with the one on the
    panels cut in two, up to ``halvings`` (>= 1) times, until two successive
    sums agree to ``tol`` (absolute below 1, relative above); the finer sum is
    returned.  f takes an array of nodes.  Raises ``ValueError`` when the sums
    never agree: the panels are too wide for f.
    """
    edges = np.asarray(edges, dtype=float)
    x, w = panel_rule(edges, rule)
    fine = float(w @ f(x))
    for _ in range(halvings):
        halved = np.empty(2 * edges.size - 1)
        halved[::2], halved[1::2] = edges, (edges[:-1] + edges[1:]) / 2.0
        edges = halved
        x, w = panel_rule(edges, rule)
        coarse, fine = fine, float(w @ f(x))
        if abs(fine - coarse) <= tol * max(1.0, abs(fine)):
            return fine
    raise ValueError(
        f"composite rule on {edges.size - 1} panels of ({float(edges[0])!r}, "
        f"{float(edges[-1])!r}) did not settle to {tol:g}: its last two sums differ "
        f"by {abs(fine - coarse):.3g}"
    )


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
    return QuadratureGrid(*panel_rule(edges, gauss_legendre(points_per_panel)))

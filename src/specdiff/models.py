"""Finite rank-one scattering model and its smoothed projection differences.

H0 is multiplication by x on (-L, L), discretized on Gauss-Legendre nodes
(``quadrature.gauss_legendre``, O(n) for the large rules used here) so that
the continuum inner product is the weighted dot product, and H adds a
rank-one coupling c <v, .> v.  The pair (H0, H) is the smallest model with
purely absolutely continuous spectrum and a nontrivial scattering matrix; at
energy lam the scattering "matrix" is the unimodular scalar

    S(lam) = 1 - 2 pi i c v(lam)^2 / (1 + c T(lam + i0)),

with T(z) the resolvent form of the coupling.  Everything the experiments
need at a point lam follows from it: the band edge a1 = |S - 1|/2 and the
spectral shift xi = arg(1 + c T)/pi.

The discrete D_eps is built in H's eigenbasis Q, computed once per model
from the secular equation of H = X + c u u^T (``solve``; the dense H of ``h``
is only a test oracle).  A node whose coupling u_j is negligible, by
LAPACK's ``dlaed2`` deflation rule, keeps (x_j, e_j) as an eigenpair of H,
so psi_eps(H - lam) and psi_eps(H0 - lam) agree on it exactly: H and D_eps
are solved on the m kept nodes only, in O(m^2).  H0 is diagonal, so D_eps =
Q psi_eps(W - lam) Q^T - psi_eps(X - lam) on that block is kept as a
``SpectralDifference`` and costs O(m) per eps to build.  Q is the one m x m
array a model holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import DiagonalPlusRankOne, SelfAdjointMatrix, SpectralDifference
from .profiles import CutoffProfile
from .quadrature import gauss_legendre, panel_integral, uniform_panels

__all__ = [
    "BUMPS",
    "ExceptionalPointError",
    "RankOneModel",
    "ScatteringPoint",
    "negative_control",
]

ENDPOINT_MARGIN = 1e-6
EXCEPTIONAL_TOL = 1e-10
QUADRATURE_TOL = 1e-8  # largest error the node rule may make in the integral of v^2
PANEL_TOL = 1e-11  # largest change of a panel rule's sum when its panels are halved
PANEL_WIDTH = 1.0  # widest panel of t_plus's composite rule; the v^2 reference takes 1/4
_PANEL_RULE = gauss_legendre(20)
_NO_BLOCK = (np.empty(0), np.empty((0, 0)))  # ``solve`` of a model with no node kept

BUMPS = {
    "gaussian": lambda x: np.exp(-np.asarray(x, dtype=float) ** 2),
    "sech": lambda x: 1.0 / np.cosh(np.asarray(x, dtype=float)),
}


class ExceptionalPointError(ValueError):
    """1 + c T(lam + i0) vanished: lam is in the exceptional set."""


@dataclass(frozen=True)
class ScatteringPoint:
    """Stationary scattering data of the model at one energy."""

    lam: float
    t_plus: complex
    s: complex
    a1: float
    xi: float


class RankOneModel:
    """Rank-one perturbation of multiplication by x on (-L, L).

    Parameters
    ----------
    L : half-width of the energy interval.
    n : number of Gauss-Legendre nodes discretizing the interval.
    bump : name of the coupling bump v in ``BUMPS``.
    c : real coupling strength.
    """

    def __init__(self, L: float = 8.0, n: int = 4000, bump: str = "gaussian", c: float = 0.5):
        if not (L > 0 and np.isfinite(L)):
            raise ValueError(f"L must be positive and finite, got {L!r}")
        if not isinstance(n, (int, np.integer)) or n < 8:
            raise ValueError(f"n must be an integer >= 8, got {n!r}")
        if not np.isfinite(c):
            raise ValueError(f"coupling must be finite, got {c!r}")
        try:
            self.v = BUMPS[str(bump)]
        except KeyError:
            known = ", ".join(BUMPS)
            raise ValueError(f"unknown bump {bump!r}; known bumps: {known}") from None
        self.L = float(L)
        self.n = int(n)
        self.c = float(c)

        x, w = gauss_legendre(self.n)
        self.nodes = self.L * x
        self.weights = self.L * w
        self._check_quadrature()
        # H kept as diagonal plus rank one; the dense ``h`` reads it
        self.rank_one = DiagonalPlusRankOne(
            self.nodes, np.sqrt(self.weights) * self.v(self.nodes), self.c
        )
        # the deflated nodes are eigenpairs (x_j, e_j) of H, on which D_eps
        # vanishes: ``solve`` solves H on the kept block alone, after an O(n)
        # check of the coupling dropped (None when no node is kept, so H = H0)
        self.kept = self.rank_one.kept()
        self.block = self.rank_one.block(self.kept)
        self._h: SelfAdjointMatrix | None = None

    def _check_quadrature(self) -> None:
        # the grid must integrate v^2 exactly, or the discrete model is not
        # the continuum model it claims to be; the reference is a composite
        # rule, independent of the node rule and checked by halving its panels; its
        # panels are cut first, which refuses an L too wide for them before v is evaluated
        try:
            edges = uniform_panels(-self.L, self.L, PANEL_WIDTH / 4.0)
        except ValueError as exc:
            raise ValueError(f"{exc}; L = {self.L!r} is too wide") from None
        discrete = float(np.dot(self.weights, self.v(self.nodes) ** 2))
        exact = panel_integral(
            lambda x: np.asarray(self.v(x), dtype=float) ** 2, edges, _PANEL_RULE, PANEL_TOL, 1,
        )
        if abs(discrete - exact) > QUADRATURE_TOL:
            raise ValueError(
                f"grid integrates v^2 to {discrete!r} but the panel rule "
                f"gives {exact!r}; increase n"
            )

    @property
    def h(self) -> SelfAdjointMatrix:
        """H = H0 + c <v, .> v in the weighted node basis, dense, built lazily.

        The dense oracle for tests and comparisons: sweeps solve H through
        ``solve``, which never builds it.
        """
        if self._h is None:
            self._h = SelfAdjointMatrix(self.rank_one.entries)
        return self._h

    def solve(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, Q) of H on its kept block, cached: what every D_eps shares.

        w and Q are the ascending eigenvalues and the m x m orthonormal
        eigenvectors of H restricted to the nodes ``kept``, solved from the
        secular equation with an O(m^2) check (``DiagonalPlusRankOne``); with
        the deflated nodes' (x_j, e_j) they make up the eigendecomposition of
        H, which is never completed to n x n.  The cache is the block's own
        ``eig``; both are empty when no node is kept.  Every call returns
        the same two arrays.
        """
        return _NO_BLOCK if self.block is None else self.block.eig()

    def _check_energy(self, lam: float) -> float:
        lam = float(lam)
        if not (abs(lam) < self.L - ENDPOINT_MARGIN):
            raise ValueError(
                f"energy must lie inside (-L, L) with margin {ENDPOINT_MARGIN}, got {lam!r}"
            )
        return lam

    def t_plus(self, lam: float) -> complex:
        """Boundary value T(lam + i0) of the resolvent form int v^2/(x - z) dx.

        The real part is the principal value, computed by subtracting the
        singular constant: the smooth remainder (v(x)^2 - v(lam)^2)/(x - lam)
        goes to a composite Gauss-Legendre rule on panels of width at most
        ``PANEL_WIDTH`` on each side of lam, checked once against the rule on
        the halved panels (``ValueError`` if they differ by more than
        ``PANEL_TOL``: v is too narrow for the panels), and the constant
        integrates to a log.  The imaginary part is pi v(lam)^2.
        """
        lam = self._check_energy(lam)
        v2_lam = float(self.v(lam)) ** 2

        def smooth(x: np.ndarray) -> np.ndarray:
            # no node of the rule is lam, an edge of its panels
            return (np.asarray(self.v(x), dtype=float) ** 2 - v2_lam) / (x - lam)

        edges = np.concatenate(
            (uniform_panels(-self.L, lam, PANEL_WIDTH), uniform_panels(lam, self.L, PANEL_WIDTH)[1:])
        )
        pv = panel_integral(smooth, edges, _PANEL_RULE, PANEL_TOL, 1)
        pv += v2_lam * np.log((self.L - lam) / (self.L + lam))
        return complex(pv, np.pi * v2_lam)

    def scattering_point(self, lam: float) -> ScatteringPoint:
        """Scattering data at energy lam: S, the band edge a1, and xi.

        xi uses the principal branch of arg(1 + c T); for couplings that keep
        Re(1 + c T) positive this is the branch continued from below -L, and
        the trace-formula experiment validates the overall sign.
        """
        lam = self._check_energy(lam)
        t = self.t_plus(lam)
        den = 1.0 + self.c * t
        if abs(den) < EXCEPTIONAL_TOL:
            raise ExceptionalPointError(
                f"1 + c T(lam + i0) = {den!r} at lam = {lam}: exceptional point"
            )
        s = 1.0 - 2.0j * np.pi * self.c * float(self.v(lam)) ** 2 / den
        a1 = abs(s - 1.0) / 2.0
        xi = float(np.angle(den)) / np.pi
        return ScatteringPoint(lam=lam, t_plus=t, s=complex(s), a1=float(a1), xi=xi)

    def local_level_spacing(self, lam: float) -> float:
        """Gap between the H0 levels straddling lam."""
        lam = self._check_energy(lam)
        i = int(np.searchsorted(self.nodes, lam))
        i = min(max(i, 1), self.n - 1)
        return float(self.nodes[i] - self.nodes[i - 1])

    def build_d_eps(self, profile: CutoffProfile, eps: float, lam: float) -> SpectralDifference:
        """The smoothed projection difference psi_eps(H - lam) - psi_eps(H0 - lam).

        H0 is diagonal here, so only H goes through an eigendecomposition
        (``solve``, cached and shared by every eps).  D vanishes on the
        deflated nodes, so the result is D on the kept block, kept factored:
        D = Q diag(f) Q^T - diag(g), f = psi((w - lam)/eps) on the block's
        eigenvalues and g = psi((x - lam)/eps) on the kept nodes.  It has the
        nonzero spectrum and the traces of the n x n D_eps, costs O(m) per
        eps, and builds its dense (m x m) matrix only when asked for.  Any eps in
        (0, 1) is built; whether the grid resolves it (``kappa`` times
        ``local_level_spacing``) is the sweep's decision, not the build's.
        """
        lam = self._check_energy(lam)
        if not (0 < eps < 1):
            raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
        w, q = self.solve()
        return SpectralDifference(
            q, profile((w - lam) / eps), profile((self.nodes[self.kept] - lam) / eps)
        )


def negative_control(alpha: float, n: int, profile: CutoffProfile, eps: float) -> int:
    """Eigenvalue count for the power-law control pair H0 = 0, H = diag(k^{-1/alpha}).

    With a compactly flat profile (psi = -1/2 beyond the flat radius R and
    psi(0) = 0), the smoothed difference is psi(H / eps) and the count of its
    eigenvalues pinned at the -1/2 plateau is exactly #{k <= n : k^{-1/alpha}
    > eps R}.  That count grows like eps^{-alpha}: a power law, not a log law,
    which is what this control is for.
    """
    if not (alpha > 0 and np.isfinite(alpha)):
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not (eps > 0 and np.isfinite(eps)):
        raise ValueError(f"eps must be positive, got {eps!r}")
    if profile.flat_radius is None:
        raise ValueError("negative control needs a compactly flat profile")
    if abs(float(profile(0.0))) > 1e-12:
        raise ValueError("profile must vanish at 0 so that psi(H0) = 0")
    levels = np.arange(1, int(n) + 1, dtype=float) ** (-1.0 / alpha)
    return int(np.count_nonzero(levels > eps * profile.flat_radius))

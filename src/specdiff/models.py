"""Finite rank-one scattering model and its smoothed projection differences.

H0 is multiplication by x on (-L, L), discretized on Gauss-Legendre nodes so
that the continuum inner product is the weighted dot product, and H adds a
rank-one coupling c <v, .> v.  The pair (H0, H) is the smallest model with
purely absolutely continuous spectrum and a nontrivial scattering matrix; at
energy lam the scattering "matrix" is the unimodular scalar

    S(lam) = 1 - 2 pi i c v(lam)^2 / (1 + c T(lam + i0)),

with T(z) the resolvent form of the coupling.  Everything the experiments
need at a point lam follows from it: the band edge a1 = |S - 1|/2 and the
spectral shift xi = arg(1 + c T)/pi.

The discrete D_eps is built in H's eigenbasis Q, computed once per model:
H0 is diagonal, so D_eps = Q psi_eps(W - lam) Q^T - psi_eps(X - lam) is kept
as a ``SpectralDifference`` and costs O(n) per eps to build.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .density import BandSet
from .matrices import SelfAdjointMatrix, SpectralDifference
from .profiles import CutoffProfile, ProfileKind

__all__ = [
    "BUMPS",
    "ExceptionalPointError",
    "RESOLUTION_KAPPA",
    "RankOneModel",
    "ResolutionGuardWarning",
    "ScatteringPoint",
    "negative_control",
]

# Guard multiplier: a sweep point eps is trusted only when eps exceeds
# RESOLUTION_KAPPA times the local H0 level spacing at lam.  Below that the
# discretization resolves individual levels instead of the continuum.
RESOLUTION_KAPPA = 0.4

ENDPOINT_MARGIN = 1e-6
EXCEPTIONAL_TOL = 1e-10

BUMPS = {
    "gaussian": lambda x: np.exp(-np.asarray(x, dtype=float) ** 2),
    "sech": lambda x: 1.0 / np.cosh(np.asarray(x, dtype=float)),
}


class ExceptionalPointError(ValueError):
    """1 + c T(lam + i0) vanished: lam is in the exceptional set."""


class ResolutionGuardWarning(UserWarning):
    """eps fell below the trusted resolution of the discretized continuum."""


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
    bump : name of the coupling bump v (see ``BUMPS``) or a callable.
    c : real coupling strength.
    """

    def __init__(self, L: float = 8.0, n: int = 4000, bump="gaussian", c: float = 0.5):
        if not (L > 0 and np.isfinite(L)):
            raise ValueError(f"L must be positive and finite, got {L!r}")
        if not isinstance(n, (int, np.integer)) or n < 8:
            raise ValueError(f"n must be an integer >= 8, got {n!r}")
        if not np.isfinite(c):
            raise ValueError(f"coupling must be finite, got {c!r}")
        if callable(bump):
            self.bump_name = getattr(bump, "__name__", "custom")
            self.v = bump
        else:
            try:
                self.v = BUMPS[str(bump)]
            except KeyError:
                known = ", ".join(BUMPS)
                raise ValueError(f"unknown bump {bump!r}; known bumps: {known}") from None
            self.bump_name = str(bump)
        self.L = float(L)
        self.n = int(n)
        self.c = float(c)

        x, w = special.roots_legendre(self.n)
        self.nodes = self.L * x
        self.weights = self.L * w
        self._check_quadrature()
        self._h: SelfAdjointMatrix | None = None
        self._overlaps: np.ndarray | None = None

    def _check_quadrature(self, tol: float = 1e-8) -> None:
        # the grid must integrate v^2 exactly, or the discrete model is not
        # the continuum model it claims to be
        discrete = float(np.dot(self.weights, self.v(self.nodes) ** 2))
        exact, _ = integrate.quad(
            lambda x: float(self.v(x)) ** 2, -self.L, self.L, epsabs=1e-12, epsrel=1e-12
        )
        if abs(discrete - exact) > tol:
            raise ValueError(
                f"grid integrates v^2 to {discrete!r} but adaptive quadrature "
                f"gives {exact!r}; increase n"
            )

    @property
    def h(self) -> SelfAdjointMatrix:
        """H = H0 + c <v, .> v in the weighted node basis, built lazily."""
        if self._h is None:
            u = np.sqrt(self.weights) * self.v(self.nodes)
            entries = self.c * np.outer(u, u)
            entries[np.diag_indices(self.n)] += self.nodes
            self._h = SelfAdjointMatrix(entries)
        return self._h

    def overlaps(self) -> np.ndarray:
        """P = Q∘Q, the squared overlaps of H's eigenvectors with the nodes, cached."""
        if self._overlaps is None:
            q = self.h.eig()[1]
            p = q * q
            p.setflags(write=False)
            self._overlaps = p
        return self._overlaps

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
        singular constant (the smooth remainder goes to adaptive quadrature,
        the constant integrates to a log); the imaginary part is pi v(lam)^2.
        """
        lam = self._check_energy(lam)
        v2_lam = float(self.v(lam)) ** 2

        def smooth(x: float) -> float:
            d = x - lam
            if abs(d) < 1e-13:
                h = 1e-7
                return (float(self.v(lam + h)) ** 2 - float(self.v(lam - h)) ** 2) / (2 * h)
            return (float(self.v(x)) ** 2 - v2_lam) / d

        pv, _ = integrate.quad(
            smooth, -self.L, self.L, points=[lam], limit=2000, epsabs=1e-11, epsrel=1e-11
        )
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

    def band_set(self, lam: float) -> BandSet:
        """Band edges of the limiting density at energy lam (one band here)."""
        return BandSet([self.scattering_point(lam).a1])

    def local_level_spacing(self, lam: float) -> float:
        """Gap between the H0 levels straddling lam."""
        lam = self._check_energy(lam)
        i = int(np.searchsorted(self.nodes, lam))
        i = min(max(i, 1), self.n - 1)
        return float(self.nodes[i] - self.nodes[i - 1])

    def guard_floor(self, lam: float, kappa: float = RESOLUTION_KAPPA) -> float:
        """Smallest eps the discretization can be trusted at, kappa * spacing."""
        return float(kappa) * self.local_level_spacing(lam)

    def build_d_eps(
        self,
        profile: CutoffProfile,
        eps: float,
        lam: float,
        kappa: float = RESOLUTION_KAPPA,
    ) -> SpectralDifference:
        """The smoothed projection difference psi_eps(H - lam) - psi_eps(H0 - lam).

        H0 is diagonal here, so only H goes through an eigendecomposition (it
        is cached on the model and shared by every eps, with ``overlaps``).
        The result keeps D = Q diag(f) Q^T - diag(g) factored, f = psi((w -
        lam)/eps) on H's eigenvalues and g = psi((x - lam)/eps) on the nodes:
        O(n) per eps, with the dense matrix built only when asked for.  If eps
        is below the resolution guard a warning is attached and the build
        proceeds; sweep drivers decide what to do with flagged points.
        """
        lam = self._check_energy(lam)
        if not (0 < eps < 1):
            raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
        floor = self.guard_floor(lam, kappa)
        if eps < floor:
            warnings.warn(
                f"eps = {eps:.3e} is below the resolution guard {floor:.3e} "
                f"(kappa = {kappa}, local spacing {floor / kappa:.3e})",
                ResolutionGuardWarning,
                stacklevel=2,
            )
        w, q = self.h.eig()
        return SpectralDifference(
            q, profile((w - lam) / eps), profile((self.nodes - lam) / eps), self.overlaps()
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
    if profile.kind is not ProfileKind.COMPACT_FLAT:
        raise ValueError("negative control needs a compactly flat profile")
    if abs(float(profile(0.0))) > 1e-12:
        raise ValueError("profile must vanish at 0 so that psi(H0) = 0")
    levels = np.arange(1, int(n) + 1, dtype=float) ** (-1.0 / alpha)
    return int(np.count_nonzero(levels > eps * profile.flat_radius))

"""Dense symmetric matrices with cached spectra, plus Schatten-norm helpers.

Everything at this layer is plain double-precision linear algebra, sized for
direct dense solvers.  The wrapper types exist to keep symmetry validation
and eigendecomposition caching in one place: ``SelfAdjointMatrix`` checks and
symmetrizes its entries once, on construction, so callers hand it the raw
array they computed.  ``SpectralDifference`` keeps a difference
``Q diag(f) Q^T - diag(g)`` factored: its low traces cost O(n^2), its
eigenvalues beyond a threshold come from matrix-free Lanczos, and the dense
matrix is built only on demand.  The free functions accept either a wrapper
or a bare array.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

__all__ = [
    "EigendecompositionError",
    "RectMatrix",
    "SelfAdjointMatrix",
    "SpectralDifference",
    "schatten_norm",
    "sho_assemble",
    "singular_values",
    "trace_power",
]

SYMMETRY_RTOL = 1e-12
RECONSTRUCTION_TOL = 1e-10
LANCZOS_START = 4  # eigenvalues per side in the first Lanczos pass


class EigendecompositionError(RuntimeError):
    """Eigendecomposition failed or did not reproduce its matrix.

    ``residual`` carries the sup-norm reconstruction defect when available.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


def _entries_of(x) -> np.ndarray:
    if isinstance(x, (SelfAdjointMatrix, RectMatrix)):
        return x.entries
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


class RectMatrix:
    """Rectangular real matrix with finite entries."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array, got ndim={a.ndim}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        a.setflags(write=False)
        self.entries = a

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def __repr__(self) -> str:
        return f"RectMatrix({self.rows}x{self.cols})"


class SelfAdjointMatrix:
    """Real symmetric matrix with a compute-once eigendecomposition.

    Symmetry is validated on construction (defect below 1e-12 relative to the
    entry scale).  The eigendecomposition is computed on first use, verified
    by reconstruction, and reused by every subsequent spectral operation.
    """

    __slots__ = ("entries", "_eigvals", "_eigvecs")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)  # not copied: symmetrizing below allocates
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
        defect = float(np.max(np.abs(a - a.T))) if a.size else 0.0
        if defect > SYMMETRY_RTOL * scale:
            raise ValueError(
                f"matrix is not symmetric: defect {defect:.3e} exceeds "
                f"{SYMMETRY_RTOL:.0e} * {scale:.3e}"
            )
        a = (a + a.T) / 2.0
        a.setflags(write=False)
        self.entries = a
        self._eigvals: np.ndarray | None = None
        self._eigvecs: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and orthonormal eigenvectors, cached.

        The decomposition is accepted only if ``Q diag(w) Q^T`` reproduces the
        entries to within 1e-10 (sup norm, relative to the entry scale).
        """
        if self._eigvecs is None:
            try:
                w, q = np.linalg.eigh(self.entries)
            except np.linalg.LinAlgError as exc:
                raise EigendecompositionError(
                    f"eigensolver failed on a {self.dim}x{self.dim} matrix: {exc}"
                ) from exc
            residual = float(np.max(np.abs((q * w) @ q.T - self.entries)))
            scale = max(1.0, float(np.max(np.abs(self.entries))))
            if residual > RECONSTRUCTION_TOL * scale:
                raise EigendecompositionError(
                    f"eigendecomposition reconstruction residual {residual:.3e} "
                    f"exceeds {RECONSTRUCTION_TOL:.0e}",
                    residual=residual,
                )
            w.setflags(write=False)
            q.setflags(write=False)
            self._eigvals, self._eigvecs = w, q
        return self._eigvals, self._eigvecs

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues.  Skips the eigenvector solve when possible."""
        if self._eigvals is None:
            try:
                w = np.linalg.eigvalsh(self.entries)
            except np.linalg.LinAlgError as exc:
                raise EigendecompositionError(
                    f"eigensolver failed on a {self.dim}x{self.dim} matrix: {exc}"
                ) from exc
            w.setflags(write=False)
            self._eigvals = w
        return self._eigvals

    def __repr__(self) -> str:
        return f"SelfAdjointMatrix(dim={self.dim})"


class SpectralDifference:
    """The symmetric difference D = Q diag(f) Q^T - diag(g), kept factored.

    ``q`` is an orthogonal matrix (held, not copied) and ``overlaps`` its
    entrywise square P = Q∘Q.  Because Q^T G^k Q = (Q^T G Q)^k, the traces of
    D, D^2 and D^3 are sums against P and cost O(n^2); higher powers go
    through the dense spectrum.  ``window_eigenvalues`` finds the eigenvalues
    beyond a threshold by Lanczos on v -> Q (f∘(Q^T v)) - g∘v.  ``entries``
    and ``eigenvalues`` build the dense D, validated as a
    ``SelfAdjointMatrix``, on first use.
    """

    __slots__ = ("q", "f", "g", "overlaps", "_traces", "_dense")

    def __init__(self, q: np.ndarray, f, g, overlaps: np.ndarray):
        f = np.asarray(f, dtype=float)
        g = np.asarray(g, dtype=float)
        n = q.shape[0]
        if q.shape != (n, n) or overlaps.shape != (n, n) or f.shape != (n,) or g.shape != (n,):
            raise ValueError(
                f"shapes do not match: q {q.shape}, overlaps {overlaps.shape}, "
                f"f {f.shape}, g {g.shape}"
            )
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
            raise ValueError("diagonal entries must be finite")
        self.q, self.f, self.g, self.overlaps = q, f, g, overlaps
        self._traces: tuple[float, float, float] | None = None
        self._dense: SelfAdjointMatrix | None = None

    @property
    def dim(self) -> int:
        return self.f.size

    def dense(self) -> SelfAdjointMatrix:
        """The dense D, built and validated on first use."""
        if self._dense is None:
            d = (self.q * self.f) @ self.q.T
            d[np.diag_indices(self.dim)] -= self.g
            self._dense = SelfAdjointMatrix(d)
        return self._dense

    @property
    def entries(self) -> np.ndarray:
        return self.dense().entries

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the dense D."""
        return self.dense().eigenvalues()

    def trace_power(self, m: int) -> float:
        """Tr D^m: from f, g and P for m <= 3, from the dense spectrum above."""
        if not isinstance(m, (int, np.integer)) or m < 1:
            raise ValueError(f"power must be a positive integer, got {m!r}")
        if m > 3:
            return float(np.sum(self.eigenvalues() ** float(m)))
        if self._traces is None:
            f, g = self.f, self.g
            pf, pf2 = (self.overlaps @ np.column_stack((f, f * f))).T
            self._traces = (
                float(np.sum(f) - np.sum(g)),
                float(np.sum(f * f) + np.sum(g * g) - 2.0 * (g @ pf)),
                float(np.sum(f**3) - np.sum(g**3) - 3.0 * (g @ pf2) + 3.0 * ((g * g) @ pf)),
            )
        return self._traces[m - 1]

    def window_eigenvalues(self, b: float) -> np.ndarray:
        """Ascending eigenvalues holding every |y| > b and two more per side.

        Each side is the bottom or top ``k`` eigenvalues from ARPACK's
        implicitly restarted Lanczos, ``k`` starting at 4 and doubling until
        at least two of them are not beyond b and the trace certificate
        holds: Tr D^2 minus the sum of the returned y^2 is below rho^2, rho
        the smallest |y| among the eigenvalues a count unfolded at b reads
        (see ``_lanczos_side``).  No eigenvalue with |y| >= rho can then be
        missing, up to the rounding of Tr D^2.
        The full dense spectrum is returned instead when it is already at
        hand, when ARPACK fails (it does on D = 0), or when ``k`` would reach
        n/2.
        """
        if not b > 0:
            raise ValueError(f"threshold must be positive, got {b!r}")
        if self._dense is not None:
            return self.eigenvalues()
        n = self.dim
        op = LinearOperator((n, n), matvec=self._apply, dtype=float)
        v0 = np.random.default_rng(0).standard_normal(n)  # fixed: reruns are bitwise equal
        k = {"SA": LANCZOS_START, "LA": LANCZOS_START}
        while True:
            found: dict[str, tuple[np.ndarray, float]] = {}
            for which in k:
                while which not in found:
                    if k[which] >= n // 2:
                        return self.eigenvalues()
                    try:
                        y = eigsh(op, k=k[which], which=which, v0=v0,
                                  return_eigenvectors=False)
                    except ArpackError:
                        return self.eigenvalues()
                    side = _lanczos_side(y, b, top=which == "LA")
                    if side is None:
                        k[which] *= 2
                    else:
                        found[which] = side
            (bottom, rho_bottom), (top, rho_top) = found["SA"], found["LA"]
            if bottom[-1] >= top[0]:  # an eigenvalue on both sides: the certificate fails
                return self.eigenvalues()
            remainder = self.trace_power(2) - float(np.sum(bottom**2) + np.sum(top**2))
            if remainder < min(rho_bottom, rho_top) ** 2:
                return np.concatenate((bottom, top))
            k = {which: 2 * size for which, size in k.items()}

    def _apply(self, v: np.ndarray) -> np.ndarray:
        v = v.ravel()
        return self.q @ (self.f * (self.q.T @ v)) - self.g * v

    def __repr__(self) -> str:
        return f"SpectralDifference(dim={self.dim})"


def _lanczos_side(y: np.ndarray, b: float, top: bool) -> tuple[np.ndarray, float] | None:
    """Check one side of a Lanczos result, ``top`` for the largest eigenvalues.

    An unfolded count at b reads the max(j, 1) + 1 eigenvalues farthest out
    on a side, j of them beyond b; at least two returned that are not beyond
    b guarantee that all of them were returned.  Returns y ascending with the
    smallest |y| of those read, or None when too few are not beyond b.
    """
    y = np.sort(y)
    out = y[::-1] if top else -y  # signed distances, outermost first
    inside = int(np.count_nonzero(out <= b))
    if inside < 2:
        return None
    read = max(out.size - inside, 1) + 1
    return y, float(np.min(np.abs(out[:read])))


def singular_values(x) -> np.ndarray:
    """Singular values in descending order."""
    if isinstance(x, SelfAdjointMatrix):
        return np.sort(np.abs(x.eigenvalues()))[::-1]
    return np.linalg.svd(_entries_of(x), compute_uv=False)


def schatten_norm(x, p: float) -> float:
    """Schatten p-norm, the l^p norm of the singular values.

    ``p`` must be >= 1 or ``inf`` (operator norm); smaller exponents are not
    norms and are rejected.
    """
    if not (p >= 1.0):
        raise ValueError(f"Schatten exponent must be >= 1, got {p!r}")
    s = singular_values(x)
    if s.size == 0:
        return 0.0
    if np.isinf(p):
        return float(s[0])
    return float(np.sum(s**p) ** (1.0 / p))


def sho_assemble(x) -> SelfAdjointMatrix:
    """Symmetric block [[0, X^T], [X, 0]] of a rectangular matrix X.

    The nonzero eigenvalues of the result are plus/minus the nonzero singular
    values of X, which is what makes off-diagonal compressions tractable
    through ordinary symmetric eigensolvers.
    """
    a = _entries_of(x)
    r, c = a.shape
    block = np.zeros((c + r, c + r))
    block[:c, c:] = a.T
    block[c:, :c] = a
    return SelfAdjointMatrix(block)


def trace_power(a: SelfAdjointMatrix, m: int) -> float:
    """Trace of A^m through the eigenvalues, sum of w_i^m."""
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"power must be a positive integer, got {m!r}")
    w = a.eigenvalues()
    return float(np.sum(w ** float(m)))

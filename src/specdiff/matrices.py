"""Dense symmetric matrices with cached spectra, plus Schatten-norm helpers.

Everything at this layer is plain double-precision linear algebra, sized for
direct dense solvers.  The wrapper types exist to keep symmetry validation
and eigendecomposition caching in one place: ``SelfAdjointMatrix`` checks and
symmetrizes its entries once, on construction, so callers hand it the raw
array they computed.  The free functions accept either a wrapper or a bare
array.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EigendecompositionError",
    "RectMatrix",
    "SelfAdjointMatrix",
    "schatten_norm",
    "sho_assemble",
    "singular_values",
    "trace_power",
]

SYMMETRY_RTOL = 1e-12
RECONSTRUCTION_TOL = 1e-10


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

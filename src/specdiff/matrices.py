"""Symmetric matrices with cached spectra, plus trace and Schatten-norm helpers.

Everything at this layer is plain double-precision linear algebra.  The
wrapper types exist to keep symmetry validation and eigendecomposition
caching in one place: ``SelfAdjointMatrix`` checks and symmetrizes its
entries once, on construction, so callers hand it the raw array they
computed, and solves them with a dense ``eigh``.  ``DiagonalPlusRankOne`` is
the same contract for diag(x) + c u u^T kept as (x, u, c), with no dense
matrix built: a node that deflates is an eigenpair (x_j, e_j), and the
``block`` on the others, after an O(n) check of the coupling it drops, is
solved from the secular equation in O(m^2).
``SpectralDifference`` keeps a difference
``Q diag(f) Q^T - diag(g)`` factored: its low traces cost O(n^2), its
numerical spectrum comes from one block Rayleigh-Ritz pass of
``BLOCK_START`` columns, widened until the remainder Tr D^2 minus the sum of
theta^2 certifies what is read from it: that no eigenvalue a window reads is
missing and each Ritz value it reads is within ``RITZ_TOL``, or that a trace
of a power above 3 is within ``RITZ_TOL`` relative, unless the remainder is
down to the rounding of Tr D^2, where the certified error is the bound at
that rounding.  The dense matrix is built only on demand, as a test oracle.
Many
differences on one Q (a sweep's eps) take their traces in one pass over Q
and their block passes a chunk at a time, from the one start (Ω, Q^T Ω)
that ``SpectralDifference.fill`` draws for them, each chunk one product
with Q and one with Q^T, orthonormalized by shifted CholeskyQR3.  The
eigenvector matrix Q is the one m x m array that these make: the secular
solve, its check and the traces run in strips of ``STRIP_WIDTH`` rows or
columns through work arrays of that width, and a block pass's chunk holds
at most ``STRIP_WIDTH`` columns.  The strip ops of the solve and its check
run on contiguous arrays with no rounding changed (``_secular_roots``):
(w, Q) are bitwise those of NumPy's outer methods, broadcast columns and
masked sums, at any strip width.  The free functions accept either a
wrapper or a bare array, validated as a ``RectMatrix``: ``singular_values``
is one SVD of the entries, and ``trace_powers`` takes the traces of a dense
matrix's powers from products of it, with no eigensolve.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DiagonalPlusRankOne",
    "EigendecompositionError",
    "RectMatrix",
    "SelfAdjointMatrix",
    "SpectralDifference",
    "check_trace_powers",
    "schatten_norm",
    "sho_assemble",
    "singular_values",
    "trace_powers",
]

SYMMETRY_RTOL = 1e-12
RECONSTRUCTION_TOL = 1e-10
BLOCK_START = 24  # columns of the first block pass, doubled until certified
RITZ_TOL = 1e-11  # certified error of a read Ritz value, and relative one of Tr D^m, m > 3
SECULAR_MAX_ITER = 40  # dlaed4 allows 30; a converging root needs about 5
STRIP_WIDTH = 64  # rows or columns per strip of an O(m^2) pass: none makes an m x m temporary
# relative size of the kick that makes a block pass's D Ω full rank: it keeps the block's
# condition number near 1e10, inside what shifted CholeskyQR3 orthonormalizes to O(eps)
BASIS_KICK = 1e-10
_EPS = float(np.finfo(float).eps)


class EigendecompositionError(RuntimeError):
    """Eigendecomposition failed or did not reproduce its matrix."""


def check_trace_powers(powers) -> tuple[int, ...]:
    """Distinct positive ints, as a tuple; a float or bool power is an error, not truncated."""
    powers = tuple(powers)
    for m in powers:
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ValueError(f"trace powers must be positive integers, got {m!r}")
    if len(set(powers)) != len(powers):
        raise ValueError("trace powers must be distinct")
    return powers


def _entries_of(x) -> np.ndarray:
    """The entries of a wrapper; a bare array is validated as a ``RectMatrix``."""
    if not isinstance(x, (SelfAdjointMatrix, RectMatrix)):
        x = RectMatrix(x)
    return x.entries


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

    def __repr__(self) -> str:
        rows, cols = self.entries.shape
        return f"RectMatrix({rows}x{cols})"


class SelfAdjointMatrix:
    """Real symmetric matrix with a compute-once eigendecomposition.

    Symmetry is validated on construction (defect below 1e-12 relative to the
    entry scale).  The eigendecomposition is computed on first use, verified
    by reconstruction, and reused by every subsequent spectral operation.
    """

    __slots__ = ("entries", "_eigvals", "_eigvecs")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)  # not copied: it is copied or averaged below
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
        # an exactly symmetric matrix is kept bit for bit; halving before adding keeps the
        # average of two entries near the largest double finite
        if defect == 0.0:
            a = np.array(a)
        else:
            half = a * 0.5
            half += a.T * 0.5
            a = half
        a.setflags(write=False)
        self.entries = a
        self._eigvals: np.ndarray | None = None
        self._eigvecs: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and orthonormal eigenvectors, cached.

        The dense decomposition is accepted only if ``Q diag(w) Q^T``
        reproduces the entries to within 1e-10 (sup norm, relative to the
        entry scale); ``DiagonalPlusRankOne`` checks its own in O(n^2).
        """
        if self._eigvecs is None:
            w, q = self._decompose()
            w.setflags(write=False)
            q.setflags(write=False)
            self._eigvals, self._eigvecs = w, q
        return self._eigvals, self._eigvecs

    def _decompose(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``eigh`` and its reconstruction check."""
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
                f"exceeds {RECONSTRUCTION_TOL:.0e}"
            )
        return w, q

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


class DiagonalPlusRankOne(SelfAdjointMatrix):
    """H = diag(x) + c u u^T, kept as (x, u, c): x strictly increasing, u and c real.

    ``kept`` and ``block`` split off the nodes that deflate, the one place
    where H does: those keep (x_j, e_j) as eigenpairs, and the block of the
    m others is what ``eig`` solves.  It solves the secular equation (Bunch,
    Nielsen & Sorensen 1978) for the eigenvalues and takes the eigenvectors
    from the Cauchy form with the Löwner-corrected coupling (Gu & Eisenstat
    1994): O(m^2) time, with no matrix formed but the eigenvectors, in place
    of a dense ``eigh``.  The decomposition is accepted only if it passes
    ``check``.  ``eig`` on a matrix with a deflated node raises
    ``ValueError``: solve ``block(kept())`` instead.  ``entries`` builds the
    dense H, for comparison.
    Neighbours in x must be 2 ulps apart or more, so that the midpoints the
    solve brackets roots at lie between.
    """

    __slots__ = ("x", "u", "c")

    def __init__(self, x, u, c: float):
        x = np.array(x, dtype=float)
        u = np.array(u, dtype=float)
        c = float(c)
        if x.ndim != 1 or x.size == 0 or u.shape != x.shape:
            raise ValueError(f"x and u must be vectors of one length, got {x.shape} and {u.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u)) and np.isfinite(c)):
            raise ValueError("x, u and c must be finite")
        gap = np.diff(x)
        if np.any(gap <= 0.0):
            raise ValueError("x must be strictly increasing")
        mid = x[:-1] + gap / 2.0  # the secular solve brackets each root at a midpoint
        if np.any((mid == x[:-1]) | (mid == x[1:])):
            raise ValueError("neighbours in x must be 2 ulps apart or more")
        x.setflags(write=False)
        u.setflags(write=False)
        self.x, self.u, self.c = x, u, c
        self._eigvals: np.ndarray | None = None
        self._eigvecs: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.x.size

    @property
    def entries(self) -> np.ndarray:
        a = self.c * np.outer(self.u, self.u)
        a[np.diag_indices(self.dim)] += self.x
        a.setflags(write=False)
        return a

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, from ``eig``: the secular solve finds both at once."""
        return self.eig()[0]

    def check(self, w: np.ndarray, q: np.ndarray) -> None:
        """Raise ``EigendecompositionError`` unless (w, q) is an eigendecomposition of H.

        O(n^2), with no n x n temporary: ``w`` must ascend, the residual
        x∘q_k + c u (u^T q_k) - w_k q_k of every column, taken in blocks of
        columns, must stay within 1e-10 of the entry scale of H, and Q^T (Q V)
        must reproduce two fixed random vectors V to within 1e-10 of their
        largest entry (orthogonality).
        """
        if not np.all(np.diff(w) >= 0.0):
            raise EigendecompositionError("eigenvalues are not ascending")
        scale = self._scale()
        residual = self.residual(w, q)
        if not residual <= RECONSTRUCTION_TOL * scale:  # NaN fails too
            raise EigendecompositionError(
                f"eigenvector residual {residual:.3e} exceeds "
                f"{RECONSTRUCTION_TOL:.0e} * {scale:.3e}"
            )
        v = np.random.default_rng(0).standard_normal((self.dim, 2))
        qv, back = np.empty_like(v), np.empty_like(v)
        # Q V and Q^T (Q V) a strip of Q at a time: OpenBLAS takes these small products
        # in about half the time of one product with the whole of Q
        for rows in _strips(self.dim):
            np.matmul(q[rows], v, out=qv[rows])
        for cols in _strips(self.dim):
            np.matmul(q[:, cols].T, qv, out=back[cols])
        defect = float(np.max(np.abs(back - v)) / np.max(np.abs(v)))
        if not defect <= RECONSTRUCTION_TOL:
            raise EigendecompositionError(
                f"eigenvector orthogonality defect {defect:.3e} exceeds "
                f"{RECONSTRUCTION_TOL:.0e}"
            )

    def kept(self) -> np.ndarray:
        """Indices of the nodes that do not deflate, by LAPACK's ``dlaed2`` rule.

        With z = sqrt(|c|) u, node j is deflated when
        |z_j| ||z|| <= 8 eps max(max|x|, ||z||^2): (x_j, e_j) is then taken
        as an eigenpair of H.
        """
        z = np.sqrt(abs(self.c)) * self.u
        rho = float(z @ z)
        return np.flatnonzero(
            np.abs(z) * np.sqrt(rho) > 8.0 * _EPS * max(float(np.max(np.abs(self.x))), rho))

    def block(self, kept) -> DiagonalPlusRankOne | None:
        """H on the nodes ``kept`` (ascending indices), None if there are none.

        The nodes left out are taken as eigenpairs (x_j, e_j), so the
        eigendecomposition of the block, with them, is one of H up to the
        coupling dropped: c u u_j in column j, and c u_i (u^T q_k) in row i
        of each kept eigenvector q_k.  Both are at most
        |c| ||u|| max|u_j| over the nodes left out; unless that is within
        1e-10 of the entry scale of H, the tolerance of ``check``, this
        raises ``EigendecompositionError``.  O(n).  With every node kept, the
        block is H itself, returned without a copy.
        """
        kept = np.asarray(kept, dtype=np.intp)
        dropped = np.delete(self.u, kept)
        coupling = abs(self.c) * float(np.linalg.norm(self.u)) * float(
            np.max(np.abs(dropped), initial=0.0))
        scale = self._scale()
        if not coupling <= RECONSTRUCTION_TOL * scale:
            raise EigendecompositionError(
                f"coupling dropped with {dropped.size} deflated nodes {coupling:.3e} "
                f"exceeds {RECONSTRUCTION_TOL:.0e} * {scale:.3e}"
            )
        if kept.size == 0:
            return None
        if kept.size == self.dim:
            return self
        return DiagonalPlusRankOne(self.x[kept], self.u[kept], self.c)

    def _scale(self) -> float:
        """Entry scale of H: max(1, max|x + c u∘u|, |c| max u∘u)."""
        x, u, c = self.x, self.u, self.c
        return max(1.0, float(np.max(np.abs(x + c * u * u))), abs(c) * float(np.max(u * u)))

    def residual(self, w: np.ndarray, q: np.ndarray) -> float:
        """Largest column residual |x∘q_k + c u (u^T q_k) - w_k q_k|, NaN if any is.

        Taken in strips of ``STRIP_WIDTH`` rows through two
        ``STRIP_WIDTH`` x n work arrays, so no n x n temporary is built; the
        outer difference x_i - w_k and the outer product (c u_i)(u^T q_k) are
        products of inner dimension 2 (``_difference_factors``,
        ``_product_factors``).
        """
        cu, uq = self.c * self.u, self.u @ q
        x_left, w_right = _difference_factors(self.x, w)
        cu_left, uq_right = _product_factors(cu, uq)
        work = np.empty((2, min(STRIP_WIDTH, self.dim), self.dim))
        largest = []
        for rows in _strips(self.dim):
            r, coupling = work[:, : rows.stop - rows.start]
            np.matmul(x_left[rows], w_right, out=r)
            r *= q[rows]
            r += np.matmul(cu_left[rows], uq_right, out=coupling)
            largest.append(np.max(np.abs(r, out=r)))
        return float(np.max(largest))

    def _decompose(self) -> tuple[np.ndarray, np.ndarray]:
        x, u, c = self.x, self.u, self.c
        deflated = x.size - self.kept().size
        if deflated:
            raise ValueError(f"{deflated} of {x.size} nodes deflate: solve block(kept()) and "
                             f"take (x_j, e_j) for the others")
        if c > 0.0:
            w, q = _secular_eig(x, np.sqrt(c) * u)
        else:
            # -H = diag(-x) + |c| u u^T; reversing the order keeps -x increasing
            w, q = _secular_eig(-x[::-1], np.sqrt(-c) * u[::-1], reverse=True)
            w = -w[::-1]
        self.check(w, q)
        return w, q

    def __repr__(self) -> str:
        return f"DiagonalPlusRankOne(dim={self.dim}, c={self.c!r})"


class SpectralDifference:
    """The symmetric difference D = Q diag(f) Q^T - diag(g), kept factored.

    ``q`` is an orthogonal matrix, held, not copied.  Because
    Q^T G^k Q = (Q^T G Q)^k, the traces of D, D^2 and D^3 are sums against
    the squared overlaps Q∘Q, and cost O(n^2).  The numerical rank of D is
    small, so one block pass (a randomized range finder, then Rayleigh-Ritz;
    Halko, Martinsson & Tropp 2011) finds its whole numerical spectrum,
    certified by Tr D^2, for what it misses and for how accurate it is:
    ``window_eigenvalues`` and the higher powers of ``trace_power`` read
    it.  ``fill`` takes the low traces and the first block pass of many D
    on one Q in one pass over Q, from one start
    (Ω, Q^T Ω) of ``start_block``, which depends on Q alone; a lone D takes
    it as a list of one.
    ``dense``, ``entries`` and ``eigenvalues`` build the dense D, validated
    as a ``SelfAdjointMatrix``, on first use: the oracle in tests.
    """

    __slots__ = ("q", "f", "g", "_traces", "_ritz", "_dense")

    def __init__(self, q: np.ndarray, f, g):
        f = np.asarray(f, dtype=float)
        g = np.asarray(g, dtype=float)
        n = q.shape[0]
        if q.shape != (n, n) or f.shape != (n,) or g.shape != (n,):
            raise ValueError(f"shapes do not match: q {q.shape}, f {f.shape}, g {g.shape}")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
            raise ValueError("diagonal entries must be finite")
        self.q, self.f, self.g = q, f, g
        self._traces: tuple[float, float, float] | None = None
        self._ritz: np.ndarray | None = None
        self._dense: SelfAdjointMatrix | None = None

    @staticmethod
    def start_block(q: np.ndarray, columns: int = BLOCK_START) -> tuple[np.ndarray, np.ndarray]:
        """(Ω, Q^T Ω): Ω is n x min(columns, n), gaussian from a fixed seed."""
        omega = np.random.default_rng(0).standard_normal((q.shape[0], min(columns, q.shape[0])))
        return omega, q.T @ omega

    @staticmethod
    def fill(points: list[SpectralDifference], powers: tuple[int, ...] = (),
             windows: bool = True) -> None:
        """Take the traces of D, D^2, D^3 of each D and the first block pass their reads need.

        Every D in ``points`` must hold the same Q.  The block pass runs when
        ``windows`` eigenvalues are to be read or ``powers`` holds a power
        that ``trace_power`` takes from the Ritz values; it starts from one
        (Ω, Q^T Ω) of ``start_block``, drawn here.  With P = Q∘Q, the traces
        of all E of them need P f_j and P f_j^2: one pass over Q in strips of
        ``STRIP_WIDTH`` rows (``_low_traces``).  The block passes go a chunk
        of D at a time, at most ``STRIP_WIDTH`` columns of Ω per chunk: one
        product with Q builds every D_j Ω = Q (f_j∘S) - g_j∘Ω of the chunk,
        S = Q^T Ω, and one product with Q^T gives every Q^T V_j
        (``_ritz_chunk``).  A D whose caches are full is left as it is.
        """
        q = points[0].q
        if not all(d.q is q for d in points):
            raise ValueError("the points must hold one Q")
        todo = [d for d in points if d._traces is None]
        if todo:
            for d, traces in zip(todo, _low_traces(q, todo)):
                d._traces = traces
        blocks = windows or any(_from_ritz(m) for m in powers)
        todo = [d for d in points if d._ritz is None] if blocks else []
        if not todo:
            return
        start = SpectralDifference.start_block(q)
        per_chunk = max(1, STRIP_WIDTH // max(1, start[0].shape[1]))
        for first in range(0, len(todo), per_chunk):
            chunk = todo[first: first + per_chunk]
            for d, theta in zip(chunk, _ritz_chunk(q, chunk, *start)):
                d._ritz = theta

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
        """Tr D^m: from ``fill`` for m <= 3, from the Ritz values above.

        For m >= 4 the block widens until the sum of theta^m is certified
        within ``RITZ_TOL`` times the sum of |theta|^m, or until R is down to
        the rounding of Tr D^2 (``_ritz_values``).  With the Ritz values
        matched to the eigenvalues y by interlacing, the positive ones to the
        largest y, the negative ones to the smallest, the terms y^2 - theta^2
        and the unmatched y^2 are >= 0 and sum to R.  A term with |theta| > tau
        is bounded through |y - theta| <= delta = (R / 2) / (|theta| - sqrt(R)),
        the bound ``window_eigenvalues`` uses, by m (|theta| + delta)^(m - 1)
        delta; the others, with y^2 <= tau^2 + R, by (m / 2) (tau^2 + R)^(m/2 - 1)
        times their share of R.  The bound is the least over tau >= sqrt(R).
        """
        check_trace_powers((m,))
        if _from_ritz(m):

            def certified(theta: np.ndarray, remainder: float, floor: bool) -> bool:
                if floor:
                    return True
                size = np.sort(np.abs(theta))[::-1]
                root = np.sqrt(remainder)
                big = size[size > root]
                delta = (remainder / 2.0) / (big - root)
                outer = np.concatenate(([0.0], np.cumsum(m * (big + delta) ** (m - 1) * delta)))
                tau = np.append(big, root)  # tau = big[i] bounds big[:i] through delta
                inner = (m / 2.0) * (tau * tau + remainder) ** (m / 2.0 - 1.0) * remainder
                return float(np.min(outer + inner)) <= RITZ_TOL * float(np.sum(size ** m))

            theta = self._ritz_values(certified)
            return float(np.sum(theta ** float(m)))
        if self._traces is None:
            self.fill([self], windows=False)
        return self._traces[m - 1]

    def window_eigenvalues(self, b: float) -> np.ndarray:
        """Ascending Ritz values holding every |y| > b and the next one in per side.

        An unfolded count at b reads, on each side, the max(j, 1) + 1
        eigenvalues farthest out, j of them beyond b; rho is the smallest |y|
        among those.  The block widens until at least two Ritz values per
        side are not beyond b, R = Tr D^2 minus the sum of theta^2 is at most
        rho^2, so that no eigenvalue with |y| > rho can be missing, and every
        read theta is within ``RITZ_TOL`` of an eigenvalue, or until R is
        down to the rounding of Tr D^2 (``_ritz_values``).  In the basis
        [V, V_perp], R = 2 ||E||_F^2 + ||A_2||_F^2 with E and A_2 the blocks
        of D off and outside V, so the quadratic residual bound (Li & Li
        2005) gives |y - theta| <= (R / 2) / (|theta| - sqrt(R)) for every
        read |theta| > sqrt(R), largest at theta = rho.
        """
        if not b > 0:
            raise ValueError(f"threshold must be positive, got {b!r}")

        def certified(theta: np.ndarray, remainder: float, floor: bool) -> bool:
            rho = np.inf
            for out in (theta[::-1], -theta):  # signed distances, outermost first
                inside = int(np.count_nonzero(out <= b))
                if inside < 2:
                    return False
                read = max(out.size - inside, 1) + 1
                rho = min(rho, float(np.min(np.abs(out[:read]))))
            return floor or (remainder <= rho * rho
                             and remainder / 2.0 <= RITZ_TOL * (rho - np.sqrt(remainder)))

        return self._ritz_values(certified)

    def _ritz_values(self, certified) -> np.ndarray:
        """Eigenvalues theta of V^T D V, V an orthonormal basis of D Ω, cached.

        Ω has l columns: l starts at ``BLOCK_START``, through ``fill``, and
        doubles, each time from a fresh Ω, until ``certified(theta, R,
        floor)``, or until l = n, where Rayleigh-Ritz spans the whole space
        and is exact.  R is the remainder Tr D^2 minus the sum of theta^2,
        clamped at 0 and raised by the rounding of Tr D^2, 8 eps (||f||^2 +
        ||g||^2), four roundings of the terms it is formed from, so that it
        bounds the exact remainder.  ``floor`` says that the remainder is
        within that rounding: no wider block can lower it, so ``certified``
        then checks only what does not rest on R.  Such a block leaves out no
        eigenvalue with y^2 above twice the rounding, and the bounds of
        ``certified`` hold with R at twice the rounding: for a Ritz value at
        rho, (rounding) / (rho - sqrt(2 rounding)), which exceeds
        ``RITZ_TOL`` when rho is small.
        """
        if self._ritz is None:
            self.fill([self])
        theta, n = self._ritz, self.dim
        rounding = 8.0 * _EPS * float(self.f @ self.f + self.g @ self.g)
        while theta.size < n:
            remainder = self.trace_power(2) - float(theta @ theta)
            if certified(theta, max(remainder, 0.0) + rounding, remainder <= rounding):
                break
            theta = _ritz_chunk(self.q, [self], *self.start_block(self.q, 2 * theta.size))[0]
        self._ritz = theta
        return theta

    def __repr__(self) -> str:
        return f"SpectralDifference(dim={self.dim})"


def _from_ritz(m: int) -> bool:
    """Whether ``trace_power`` takes Tr D^m from the Ritz values, not from ``fill``'s traces."""
    return m > 3


def _low_traces(q: np.ndarray, points: list[SpectralDifference]) -> list[tuple[float, ...]]:
    """(Tr D, Tr D^2, Tr D^3) of each D in ``points``, all on Q.

    With P = Q∘Q, Tr D^2 and Tr D^3 need P f and P f^2: a strip of
    ``STRIP_WIDTH`` rows of P at a time, each row against the 2E rows f_j,
    f_j^2 of every D, through one work array of that width.
    """
    f = np.stack([d.f for d in points])
    rows_f = np.concatenate((f, f * f))
    pf = np.empty((q.shape[0], rows_f.shape[0]))
    work = np.empty((min(STRIP_WIDTH, q.shape[0]), q.shape[0]))
    for rows in _strips(q.shape[0]):
        square = np.multiply(q[rows], q[rows], out=work[: rows.stop - rows.start])
        # one matrix-vector product per row of the strip, not one matrix product per strip:
        # a row's sums then do not depend on the strip's width
        np.matmul(rows_f, square[:, :, None], out=pf[rows, :, None])
    traces = []
    for j, d in enumerate(points):
        f, g, pf1, pf2 = d.f, d.g, pf[:, j], pf[:, len(points) + j]
        traces.append((
            float(np.sum(f) - np.sum(g)),
            float(np.sum(f * f) + np.sum(g * g) - 2.0 * (g @ pf1)),
            float(np.sum(f**3) - np.sum(g**3) - 3.0 * (g @ pf2) + 3.0 * ((g * g) @ pf1)),
        ))
    return traces


def _ritz_chunk(q: np.ndarray, points: list[SpectralDifference], omega: np.ndarray,
                s: np.ndarray) -> list[np.ndarray]:
    """Ascending Ritz values of each D in ``points`` on the range of D Ω, S = Q^T Ω.

    With V_j an orthonormal basis of D_j Ω (``_orthonormalize``) and
    W_j = Q^T V_j, the Rayleigh-Ritz matrix is W_j^T (f_j∘W_j) - V_j^T (g_j∘V_j).
    The chunk makes one product with Q and one with Q^T, of l columns per D,
    into two work arrays that every other step reuses; seen as (k, n, l)
    arrays, k = len(points), each step is one call for the whole chunk.
    """
    n, l = omega.shape
    if l == 0:
        return [np.empty(0) for _ in points]
    f = np.stack([d.f for d in points])[:, :, None]
    g = np.stack([d.g for d in points])[:, :, None]
    v = np.empty((n, len(points) * l))
    v_blocks = v.reshape(n, len(points), l).transpose(1, 0, 2)
    np.multiply(f, s, out=v_blocks)
    y = q @ v
    y_blocks = y.reshape(n, len(points), l).transpose(1, 0, 2)
    y_blocks -= np.multiply(g, omega, out=v_blocks)
    _orthonormalize(y_blocks, v_blocks, omega)
    diagonal = v_blocks.swapaxes(1, 2) @ np.multiply(g, v_blocks, out=y_blocks)
    np.matmul(q.T, v, out=y)  # y_blocks now holds W
    t = y_blocks.swapaxes(1, 2) @ np.multiply(f, y_blocks, out=v_blocks) - diagonal
    theta = np.linalg.eigvalsh((t + t.swapaxes(1, 2)) / 2.0)
    theta.setflags(write=False)
    return list(theta)


def _orthonormalize(y: np.ndarray, v: np.ndarray, omega: np.ndarray) -> None:
    """Write to each v[j] an orthonormal basis of y[j] plus a kick, by shifted CholeskyQR3.

    D Ω may be rank deficient (D has few large eigenvalues, or is 0), which
    Cholesky cannot take.  The kick ``BASIS_KICK`` rms(y_j)/sqrt(n) Ω[::-1]
    (rms(y_j) the root mean square column norm, 1 if y_j = 0) bounds the
    columns' condition number by about 1 / ``BASIS_KICK``.  One Cholesky
    pass with the shift 11 (n l + l (l + 1)) eps ||y_j||_F^2, then two plain
    ones, orthonormalize such a block to O(eps) (Fukaya, Kannan,
    Nakatsukasa, Yamamoto & Yanagisawa 2020); the passes go back and forth
    between y and v, so y is overwritten.  Rayleigh-Ritz and the Tr D^2
    certificate need only an orthonormal basis, so the kick costs no
    accuracy.  Every basis must pass max|V^T V - I| <= 1e-13, or
    ``EigendecompositionError`` is raised.
    """
    n, l = y.shape[1:]
    square = np.einsum("kij,kij->k", y, y)
    rms = np.sqrt(square / l, out=np.ones_like(square), where=square > 0.0)
    y += np.multiply((BASIS_KICK / np.sqrt(n)) * rms[:, None, None], omega[::-1], out=v)
    try:
        for shift, a, b in ((11.0 * (n * l + l * (l + 1)) * _EPS, y, v), (0.0, v, y),
                            (0.0, y, v)):
            gram = a.swapaxes(1, 2) @ a
            if shift:
                gram += (shift * np.trace(gram, axis1=1, axis2=2))[:, None, None] * np.eye(l)
            # b = a R^-1, with R^T R = gram
            np.matmul(a, np.linalg.inv(np.linalg.cholesky(gram)).swapaxes(1, 2), out=b)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"block of {l} columns is not of full rank: {exc}") from exc
    defect = float(np.max(np.abs(v.swapaxes(1, 2) @ v - np.eye(l))))
    if not defect <= 1e-13:  # NaN fails too
        raise EigendecompositionError(f"block orthogonality defect {defect:.3e} exceeds 1e-13")


def _strips(size: int) -> list[slice]:
    """Slices of at most ``STRIP_WIDTH`` that cover range(size), in order.

    No strip is one wide unless size is 1: NumPy sums an (m, 1) array down
    its column pairwise and a wider one row after row, so a strip of one
    column would change the last bits of a column sum.
    """
    starts = list(range(0, size, STRIP_WIDTH))
    if size > 1 and size - starts[-1] == 1:
        starts[-1] -= 1
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [size])]


def _difference_factors(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[a, 1] and [1; -b]: their product has the entries a_i - b_k.

    The products a_i 1 and 1 (-b_k) are exact, so each entry is a_i - b_k
    rounded once, as ``np.subtract.outer(a, b)`` rounds it, except that an
    exact zero comes out +0 where (-0) - (+0) gives -0.  A product of inner
    dimension 2 runs at BLAS speed on a strip of ``STRIP_WIDTH`` columns,
    where the outer method calls its loop once per row.  No difference the
    solve forms is an exact zero of that kind: d is strictly increasing, so
    d_i - d_j and d_i - mid_k vanish only as d_j - d_j = +0, and the
    residual takes absolute values.
    """
    return np.stack((a, np.ones_like(a)), axis=1), np.stack((np.ones_like(b), -b))


def _product_factors(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[a, 0] and [b; 0]: their product has the entries a_i b_k.

    Each entry is a_i b_k rounded once, plus the exact 0 0: ``np.multiply.outer``
    bit for bit but for the sign of a zero, as in ``_difference_factors``.
    OpenBLAS takes a product of inner dimension 1 at a quarter of the speed.
    """
    return np.stack((a, np.zeros_like(a)), axis=1), np.stack((b, np.zeros_like(b)))


def _column_sums(a: np.ndarray) -> np.ndarray:
    """``np.sum(a, axis=0)`` bit for bit: each column summed down its rows, in order.

    With two columns or more, both add one row at a time into the sums, and
    ``einsum`` does so at two thirds of the cost; one column ``np.sum`` sums
    pairwise, so it keeps ``np.sum``.
    """
    return np.einsum("ij->j", a) if a.shape[1] > 1 else np.sum(a, axis=0)


def _secular_eig(d: np.ndarray, z: np.ndarray,
                 reverse: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of diag(d) + z z^T, d strictly increasing, no node deflated.

    The eigenvectors are the one m x m array of the solve, made once its
    roots are found; the other passes run in strips through work arrays of
    ``STRIP_WIDTH`` m entries.  With ``reverse`` they are written with rows
    and columns in reverse order, in place of a reversed copy.  Every node
    must pass ``DiagonalPlusRankOne.kept``: the Cauchy form would divide 0
    by 0 at a node with a negligible coupling.
    """
    origin, tau = _secular_roots(d, z)
    m = d.size
    q = np.empty((m, m))
    flip = slice(None, None, -1) if reverse else slice(None)
    # delta[i, k] = d_i - w_k, formed from the pole nearest w_k without cancellation,
    # in the array that becomes the eigenvectors: a strip of Q's rows at a time, in Q's own
    # order, as small products like every other of the solve
    q_left, pole_right = _difference_factors(d[flip], d[origin][flip])
    for rows in _strips(m):
        np.matmul(q_left[rows], pole_right, out=q[rows])
    delta = vectors = q[flip, flip]
    delta -= tau
    # Löwner: the coupling for which the computed w_k are exact eigenvalues,
    # z_i^2 = prod_k (w_k - d_i) / prod_{k != i} (d_k - d_i), a strip of rows at a time
    work = np.empty((min(STRIP_WIDTH, m), m))
    d_left, d_right = _difference_factors(d, d)
    zhat = np.empty(m)
    for rows in _strips(m):
        ratio = np.matmul(d_left[rows], d_right, out=work[: rows.stop - rows.start])
        np.fill_diagonal(ratio[:, rows], -1.0)
        zhat[rows] = np.prod(np.divide(delta[rows], ratio, out=ratio), axis=1)
    zhat = np.copysign(np.sqrt(zhat), z)
    np.divide(zhat[:, None], delta, out=vectors)
    norms, work = np.empty(m), work.reshape(m, -1)
    for cols in _strips(m):
        block = vectors[:, cols]
        square = np.multiply(block, block, out=work[:, : block.shape[1]])
        norms[cols] = np.sqrt(_column_sums(square))
    vectors /= norms
    return d[origin] + tau, q


def _secular_roots(d: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots w_k = d[origin_k] + tau_k of 1 + sum_j z_j^2 / (d_j - w) = 0.

    d is strictly increasing and no z_j is 0, so the roots interlace:
    w_k in (d_k, d_(k+1)), and w_(m-1) in (d_(m-1), d_(m-1) + ||z||^2].  The
    origin is the pole nearer the root, by the sign of the secular function
    f at the middle of the interval, so d_j - w_k is formed as
    (d_j - d_origin) - tau without cancellation.  Each root takes the
    two-pole rational ("middle way") step, kept inside a shrinking bracket,
    until LAPACK's ``dlaed4`` test |f| <= eps (8 (sum_j |z_j^2/delta_j| + 1)
    + |tau| f') holds; all unconverged roots advance together.

    Each pass, the midpoint pass and every step, takes the roots a strip of
    ``STRIP_WIDTH`` columns at a time, every pole j a row of m x width work
    arrays, and sums down the columns, row after row (``_column_sums``), so
    no root's arithmetic depends on the strip it falls in.  The strip
    kernels run on contiguous arrays and change no rounding: d_j - d_origin
    is a product of inner dimension 2 (``_difference_factors``), z^2 / delta
    divides a tile of z^2 made once per solve, not a broadcast column, and
    f' splits into psi' (poles j <= a_k) and phi' by plain sums, each with
    the other's terms set to +0; those lie in a band of rows between the
    strip's first and last a_k, the only rows masked.
    """
    m = d.size
    z2 = z * z
    rho = float(np.sum(z2))
    if m <= 1:
        return np.zeros(m, dtype=np.intp), np.full(m, rho)
    k = np.arange(m)
    # the two poles of the rational model, a = k and b = k + 1 (m - 2, m - 1 for the last root)
    a = np.minimum(k, m - 2)
    b = a + 1
    width = np.append(np.diff(d), rho)
    half = width / 2.0
    mid = d + half
    strip = min(STRIP_WIDTH, m)
    # the work arrays of every strip of columns: delta, terms, |terms|; the pole masks of
    # a band; z^2 tiled across a strip, so that dividing it by delta reads no broadcast column
    work = np.empty((3, m, strip))
    masks = np.empty((2, m, strip), dtype=bool)
    z2_tile = np.repeat(z2[:, None], strip, axis=1)
    d_left, mid_right = _difference_factors(d, mid)
    f_mid = np.empty(m)
    for cols in _strips(m):
        delta = np.matmul(d_left, mid_right[:, cols], out=work[0, :, : cols.stop - cols.start])
        span = delta.shape[1]
        f_mid[cols] = 1.0 + _column_sums(np.divide(z2_tile[:, :span], delta, out=delta))
    last = k == m - 1
    right = (f_mid < 0.0) & ~last  # root in the right half: origin at d_(k+1)
    up = (f_mid < 0.0) & last
    origin = k + right
    lo = np.where(right, -half, np.where(up, half, 0.0))
    hi = np.where(right, 0.0, np.where(up, width, half))
    # first guess, as in dlaed4: the root of C + z_a^2/(p_a - tau) + z_b^2/(p_b - tau),
    # C the rest of f at the midpoint and p the poles seen from the origin (one is 0);
    # a root next to a pole with a tiny z starts at its own scale, not at the midpoint
    cc = f_mid - z2[a] / (d[a] - mid) - z2[b] / (d[b] - mid)
    pa, pb = d[a] - d[origin], d[b] - d[origin]
    aa = cc * (pa + pb) + z2[a] + z2[b]
    bb = z2[a] * pb + z2[b] * pa
    with np.errstate(divide="ignore", invalid="ignore"):
        big = (aa + np.copysign(np.sqrt(np.abs(aa * aa - 4.0 * bb * cc)), aa)) / (2.0 * cc)
        small = bb / (cc * big)
    tau = np.where((small > lo) & (small < hi), small,
                   np.where((big > lo) & (big < hi), big, (lo + hi) / 2.0))

    active = k
    for _ in range(SECULAR_MAX_ITER):
        o, t, ka = origin[active], tau[active], a[active]
        f, bound, dpsi, dphi = np.empty((4, active.size))
        # the deltas at the model's two poles, as the strips form them
        da, db = (d[ka] - d[o]) - t, (d[ka + 1] - d[o]) - t
        pole_right = _difference_factors(d, d[o])[1]
        for cols in _strips(active.size):
            span = cols.stop - cols.start
            delta, terms, magnitude = work[:, :, :span]
            np.matmul(d_left, pole_right[:, cols], out=delta)
            delta -= t[cols]
            np.divide(z2_tile[:, :span], delta, out=terms)
            f[cols] = 1.0 + _column_sums(terms)
            bound[cols] = 8.0 * (_column_sums(np.abs(terms, out=magnitude)) + 1.0)
            terms /= delta
            # ka ascends over the strip: poles j <= a_first are left of all its roots, and
            # poles j > a_last of none; the band of rows between holds both kinds.  Each of
            # psi' and phi' is a plain sum down its rows, with the other's band entries set
            # to +0, which adds nothing: the sums of the masked terms, row after row
            a_first, a_last = ka[cols.start], ka[cols.stop - 1]
            band, size = slice(a_first + 1, a_last + 1), a_last - a_first
            left_mask = np.less_equal(k[band, None], ka[cols], out=masks[0, :size, :span])
            right_mask = np.logical_not(left_mask, out=masks[1, :size, :span])
            saved = magnitude[:size]  # |terms| is summed: its rows are free
            saved[...] = terms[band]
            np.copyto(terms[band], 0.0, where=right_mask)
            dpsi[cols] = _column_sums(terms[: a_last + 1])
            np.copyto(terms[band], saved, where=right_mask)
            np.copyto(terms[band], 0.0, where=left_mask)
            dphi[cols] = _column_sums(terms[a_first + 1:])
        df = dpsi + dphi
        converged = np.abs(f) <= _EPS * (bound + np.abs(t) * df)
        if np.all(converged):
            return origin, tau
        lo_a = np.where(f < 0.0, np.maximum(lo[active], t), lo[active])
        hi_a = np.where(f > 0.0, np.minimum(hi[active], t), hi[active])
        # f(t + eta) ~ C + s/(da - eta) + S/(db - eta), matching f, psi' and phi'
        cc = f - da * dpsi - db * dphi
        aa = (da + db) * f - da * db * df
        bb = da * db * f
        root = np.sqrt(np.abs(aa * aa - 4.0 * bb * cc))
        with np.errstate(divide="ignore", invalid="ignore"):
            eta = np.where(aa <= 0.0, (aa - root) / (2.0 * cc), 2.0 * bb / (aa + root))
            eta = np.where(cc == 0.0, bb / aa, eta)
        eta = np.where((f * eta >= 0.0) | ~np.isfinite(eta), -f / df, eta)  # Newton
        step = t + eta
        step = np.where((step > lo_a) & (step < hi_a), step, (lo_a + hi_a) / 2.0)
        step = np.where(converged, t, step)
        tau[active], lo[active], hi[active] = step, lo_a, hi_a
        active = active[~converged]
    raise EigendecompositionError(
        f"secular equation: {active.size} of {m} roots did not converge "
        f"in {SECULAR_MAX_ITER} steps"
    )


def singular_values(x) -> np.ndarray:
    """Singular values in descending order, from one SVD of the entries."""
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


def trace_powers(a, powers) -> dict[int, float]:
    """Traces of A^m for each m in ``powers``, from matrix products: no eigensolve.

    Tr A is the sum of the diagonal and, for m >= 2, Tr A^m is the entry sum
    of A^p ∘ A^q with p = floor(m/2) and q = ceil(m/2), since the powers of
    a symmetric A are symmetric.  The powers are built by repeated squaring,
    A^k = A^(k//2) A^(k - k//2), each once for all of ``powers``: Tr A^2
    takes no product, Tr A^3 and Tr A^4 one, Tr A^6 two.  A bare array is
    validated as a ``SelfAdjointMatrix`` first.
    """
    powers = check_trace_powers(powers)
    if not isinstance(a, SelfAdjointMatrix):
        a = SelfAdjointMatrix(_entries_of(a))
    built = {1: a.entries}
    return {m: float(built[1].trace()) if m == 1
            else float(np.vdot(_power(built, m // 2), _power(built, m - m // 2)))
            for m in powers}


def _power(built: dict[int, np.ndarray], k: int) -> np.ndarray:
    """A^k, kept in ``built`` (which holds A^1 and the powers built so far).

    A module function, not a closure: a closure that calls itself is a
    reference cycle, which would keep every power alive until the cyclic
    garbage collector runs.
    """
    if k not in built:
        built[k] = _power(built, k // 2) @ _power(built, k - k // 2)
    return built[k]

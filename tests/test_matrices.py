"""Matrix layer: wrappers, eigendecompositions, Schatten norms, SHO blocks."""

import numpy as np
import pytest

from specdiff.matrices import (
    RectMatrix,
    SelfAdjointMatrix,
    schatten_norm,
    sho_assemble,
    singular_values,
    trace_power,
)


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return SelfAdjointMatrix((a + a.T) / 2.0)


class TestWrappers:
    def test_rect_matrix_shape(self):
        x = RectMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert (x.rows, x.cols) == (2, 3)

    def test_rect_matrix_rejects_vectors_and_nonfinite(self):
        with pytest.raises(ValueError):
            RectMatrix([1.0, 2.0])
        with pytest.raises(ValueError):
            RectMatrix([[1.0, np.nan]])

    def test_rect_matrix_is_read_only(self):
        x = RectMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            x.entries[0, 0] = 7.0

    def test_self_adjoint_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SelfAdjointMatrix([[0.0, 1.0], [0.0, 0.0]])

    def test_self_adjoint_rejects_rectangular(self):
        with pytest.raises(ValueError):
            SelfAdjointMatrix(np.zeros((2, 3)))

    def test_tiny_asymmetry_is_symmetrized(self):
        a = np.array([[1.0, 0.5 + 1e-15], [0.5, 1.0]])
        m = SelfAdjointMatrix(a)
        assert np.array_equal(m.entries, m.entries.T)

    def test_entries_do_not_alias_the_input(self):
        a = np.array([[1.0, 0.5], [0.5, 1.0]])
        m = SelfAdjointMatrix(a)
        a[0, 1] = a[1, 0] = 7.0
        assert np.array_equal(m.entries, [[1.0, 0.5], [0.5, 1.0]])
        assert a.flags.writeable and not m.entries.flags.writeable


class TestEig:
    def test_identity(self):
        w, q = SelfAdjointMatrix(np.eye(3)).eig()
        assert np.allclose(w, 1.0)
        assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)

    def test_diagonal_sorted_ascending(self):
        w, _ = SelfAdjointMatrix(np.diag([3.0, 1.0, 2.0])).eig()
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = random_symmetric(rng, 50)
            w, q = a.eig()
            assert np.max(np.abs((q * w) @ q.T - a.entries)) < 1e-10
            assert np.max(np.abs(q.T @ q - np.eye(50))) < 1e-10
            assert np.all(np.diff(w) >= 0)

    def test_eig_is_cached(self):
        a = random_symmetric(np.random.default_rng(0), 8)
        w1, q1 = a.eig()
        w2, q2 = a.eig()
        assert w1 is w2 and q1 is q2

    def test_eigenvalues_only_path_agrees(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((12, 12))
        sym = (a + a.T) / 2.0
        fast = SelfAdjointMatrix(sym).eigenvalues()
        full = SelfAdjointMatrix(sym).eig()[0]
        assert np.allclose(fast, full, atol=1e-12)


class TestSingularValuesAndNorms:
    def test_zero_matrix(self):
        assert np.allclose(singular_values(np.zeros((3, 4))), 0.0)

    def test_diagonal_with_signs(self):
        assert np.allclose(singular_values(np.diag([2.0, -3.0])), [3.0, 2.0])

    def test_random_matches_gram_route(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 50))
        s = singular_values(RectMatrix(x))
        gram = np.linalg.eigvalsh(x @ x.T)[::-1]
        assert np.max(np.abs(s - np.sqrt(np.clip(gram, 0.0, None)))) < 1e-10

    def test_self_adjoint_shortcut(self):
        a = random_symmetric(np.random.default_rng(5), 9)
        assert np.allclose(
            singular_values(a), np.sort(np.abs(a.eigenvalues()))[::-1], atol=1e-12
        )

    def test_schatten_examples(self):
        assert schatten_norm(np.diag([3.0, 4.0]), 2) == pytest.approx(5.0)
        assert schatten_norm(np.diag([3.0, 4.0]), np.inf) == pytest.approx(4.0)

    def test_schatten_rejects_p_below_one(self):
        for p in (0.5, 0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                schatten_norm(np.eye(2), p)


class TestSho:
    def test_scalar_block(self):
        w = sho_assemble(np.array([[2.0]])).eigenvalues()
        assert np.allclose(w, [-2.0, 2.0])

    def test_zero_block(self):
        assert np.allclose(sho_assemble(np.zeros((2, 3))).eigenvalues(), 0.0)

    def test_plus_minus_singular_values(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            r, c = rng.integers(1, 41), rng.integers(1, 61)
            x = rng.standard_normal((int(r), int(c)))
            s = singular_values(x)
            w = sho_assemble(x).eigenvalues()
            expected = np.sort(np.concatenate([-s, s, np.zeros(abs(int(r) - int(c)))]))
            # min(r,c) singular values; the remaining |r-c| eigenvalues vanish
            assert np.max(np.abs(np.sort(w) - expected)) < 1e-10


class TestTracePower:
    def test_diagonal_examples(self):
        a = SelfAdjointMatrix(np.diag([1.0, -1.0]))
        assert trace_power(a, 2) == pytest.approx(2.0)
        assert trace_power(a, 3) == pytest.approx(0.0, abs=1e-15)

    def test_matches_repeated_product(self):
        rng = np.random.default_rng(8)
        a = random_symmetric(rng, 15)
        direct = float(np.trace(np.linalg.matrix_power(a.entries, 4)))
        assert trace_power(a, 4) == pytest.approx(direct, rel=1e-8)

    def test_rejects_bad_powers(self):
        a = SelfAdjointMatrix(np.eye(2))
        for m in (0, -1, 1.5, "2"):
            with pytest.raises(ValueError):
                trace_power(a, m)


class TestInequalities:
    def test_hoelder(self):
        # ||XY||_r <= ||X||_p ||Y||_q for 1/r = 1/p + 1/q
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            x = rng.standard_normal((n, n))
            y = rng.standard_normal((n, n))
            for p, q, r in ((2, 2, 1), (4, 4, 2)):
                slack = schatten_norm(x, p) * schatten_norm(y, q) - schatten_norm(x @ y, r)
                assert slack >= -1e-10

    def test_trace_power_difference_bound(self):
        # |Tr X^m - Tr Y^m| <= m ||X-Y||_m max(||X||_m, ||Y||_m)^{m-1}
        rng = np.random.default_rng(10)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            x = rng.standard_normal((n, n))
            y = rng.standard_normal((n, n))
            x, y = (x + x.T) / 2.0, (y + y.T) / 2.0
            for m in (2, 3, 4):
                lhs = abs(
                    trace_power(SelfAdjointMatrix(x), m)
                    - trace_power(SelfAdjointMatrix(y), m)
                )
                rhs = (
                    m
                    * schatten_norm(x - y, m)
                    * max(schatten_norm(x, m), schatten_norm(y, m)) ** (m - 1)
                )
                assert rhs - lhs >= -1e-10

    def test_norm_dominance(self):
        # ||X||_m^m <= ||X||^{m-q} ||X||_q^q for m >= q
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            x = rng.standard_normal((n, n))
            for m, q in ((4, 2), (6, 2), (6, 4)):
                lhs = schatten_norm(x, m) ** m
                rhs = schatten_norm(x, np.inf) ** (m - q) * schatten_norm(x, q) ** q
                assert rhs - lhs >= -1e-12 * max(1.0, rhs)

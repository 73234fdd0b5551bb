"""Matrix layer: wrappers, eigendecompositions, Schatten norms, SHO blocks."""

import gc

import numpy as np
import pytest
from scipy import special

from specdiff import matrices
from specdiff.matrices import (
    DiagonalPlusRankOne,
    EigendecompositionError,
    RectMatrix,
    SelfAdjointMatrix,
    schatten_norm,
    sho_assemble,
    singular_values,
    trace_powers,
)
from specdiff.models import RankOneModel


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return SelfAdjointMatrix((a + a.T) / 2.0)


class TestWrappers:
    def test_rect_matrix_shape(self):
        x = RectMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert x.entries.shape == (2, 3) and repr(x) == "RectMatrix(2x3)"

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

    def test_self_adjoint_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            SelfAdjointMatrix([[1.0, np.inf], [np.inf, 1.0]])

    def test_entries_near_the_largest_double_stay_finite(self):
        # (a + a^T) / 2 would overflow to inf on these finite symmetric entries
        with np.errstate(all="raise"):
            m = SelfAdjointMatrix([[1e308, 0.0], [0.0, 1.0]])
            assert np.array_equal(m.entries, [[1e308, 0.0], [0.0, 1.0]])
            assert np.array_equal(m.eigenvalues(), [1.0, 1e308])
            top = np.nextafter(1.7e308, np.inf)
            near = SelfAdjointMatrix([[1.0, 1.7e308], [top, 1.0]])
        assert np.all(np.isfinite(near.entries)) and np.array_equal(near.entries, near.entries.T)

    def test_an_exactly_symmetric_input_is_kept_bitwise(self):
        a = np.array([[5e-324, -1e-310, 1.0], [-1e-310, 3e-323, -0.0], [1.0, -0.0, 7e-300]])
        m = SelfAdjointMatrix(a)
        assert np.array_equal(m.entries.view(np.int64), a.view(np.int64))

    def test_a_near_symmetric_input_is_averaged(self):
        eps = np.finfo(float).eps
        m = SelfAdjointMatrix([[2.0, 1.0 + 4.0 * eps], [1.0, 2.0]])
        assert m.entries[0, 1] == m.entries[1, 0] == 1.0 + 2.0 * eps

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

    @pytest.mark.parametrize("solver, method", [("eigh", "eig"), ("eigvalsh", "eigenvalues")])
    def test_an_eigensolver_failure_is_an_eigendecomposition_error(self, monkeypatch, solver,
                                                                   method):
        def fail(a):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, solver, fail)
        a = random_symmetric(np.random.default_rng(2), 8)
        with pytest.raises(EigendecompositionError, match="eigensolver failed on a 8x8"):
            getattr(a, method)()

    def test_a_decomposition_that_does_not_reproduce_its_matrix_raises(self, monkeypatch):
        # eigenvalues 1e-8 off leave a reconstruction residual of about 1e-8, above 1e-10
        eigh = np.linalg.eigh

        def shifted(a):
            w, q = eigh(a)
            return w + 1e-8, q

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        a = random_symmetric(np.random.default_rng(2), 8)
        with pytest.raises(EigendecompositionError, match="reconstruction residual"):
            a.eig()
        assert a._eigvecs is None


def quadrature_coupling(n, bump, L=8.0):
    """Gauss-Legendre nodes on (-L, L) and the weighted coupling of a bump."""
    x, w = special.roots_legendre(n)
    return L * x, np.sqrt(L * w) * bump(L * x)


BUMP_SHAPES = {
    "gaussian": lambda x: np.exp(-x * x),  # deflates half the nodes at n = 400
    "sech": lambda x: 1.0 / np.cosh(x),
    "tent": lambda x: np.maximum(0.0, 1.0 - np.abs(x) / 3.0),  # exact zeros
}


def dense_reference(x, u, c):
    a = c * np.outer(u, u) + np.diag(x)
    w, q = np.linalg.eigh(a)
    return a, w, q, max(1.0, float(np.max(np.abs(a))))


@pytest.fixture
def secular_sizes(monkeypatch):
    """Sizes of the secular solves that the test runs."""
    sizes = []
    solve = matrices._secular_eig

    def recording(d, z, reverse=False):
        sizes.append(d.size)
        return solve(d, z, reverse)

    monkeypatch.setattr(matrices, "_secular_eig", recording)
    return sizes


class TestDiagonalPlusRankOne:
    @pytest.mark.parametrize("n", [8, 50, 400])
    @pytest.mark.parametrize("c", [0.5, -0.7, 0.0, 50.0])
    @pytest.mark.parametrize("bump", sorted(BUMP_SHAPES))
    def test_matches_dense_eigh(self, n, c, bump):
        x, u = quadrature_coupling(n, BUMP_SHAPES[bump])
        h = DiagonalPlusRankOne(x, u, c)
        kept = h.kept()
        block = h.block(kept)
        w = np.empty(0)
        if block is not None:
            w, q = block.eig()
            _, w_d, q_d, scale = dense_reference(block.x, block.u, c)
            assert np.max(np.abs(w - w_d)) <= 1e-13 * scale
            # column signs are arbitrary: compare P = Q∘Q
            assert np.max(np.abs(q * q - q_d * q_d)) <= 1e-12
            assert np.max(np.abs(q.T @ q - np.eye(kept.size))) <= 1e-12
            assert not (w.flags.writeable or q.flags.writeable)
        # with the deflated nodes' x_j, the block's eigenvalues are H's
        a, *_, scale = dense_reference(x, u, c)
        union = np.sort(np.concatenate((w, np.delete(x, kept))))
        assert np.max(np.abs(union - np.linalg.eigvalsh(a))) <= 1e-13 * scale

    @pytest.mark.parametrize("spacing", [1e-3, 1e-8])
    @pytest.mark.parametrize("c", [0.5, -0.7, 50.0])
    def test_clustered_random_nodes(self, spacing, c):
        rng = np.random.default_rng(3)
        clusters = [centre + spacing * np.arange(8) for centre in rng.uniform(-5.0, 5.0, 6)]
        x = np.sort(np.concatenate(clusters + [rng.uniform(-6.0, 6.0, 40)]))
        assert np.all(np.diff(x) > 0.0)
        u = rng.standard_normal(x.size) / np.sqrt(x.size)
        w, q = DiagonalPlusRankOne(x, u, c).eig()
        a, w_d, _, scale = dense_reference(x, u, c)
        assert np.max(np.abs(w - w_d)) <= 1e-13 * scale
        assert np.max(np.abs(q.T @ q - np.eye(x.size))) <= 1e-12
        # eigenvalues 1e-8 apart leave eigh's own eigenvectors good to only
        # eps/gap, so Q∘Q is not compared here; the reconstruction is
        assert np.max(np.abs((q * w) @ q.T - a)) <= 1e-13 * scale

    @pytest.mark.parametrize(("seed", "c"), [(14, -50.0), (2, 50.0)])
    def test_eigenvectors_stay_orthogonal_for_couplings_over_six_decades(self, seed, c):
        # roots next to weakly coupled poles carry a small relative error in
        # d_j - w_k; the plain Cauchy vectors z_j / (d_j - w_k) then lose
        # orthogonality to 8e-14 .. 2.5e-13, the Löwner-corrected ones stay
        # at a few eps (at most 4.2e-15 over 60 such draws)
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(-1.0, 1.0, 400))
        u = 10.0 ** rng.uniform(-6.0, 0.0, 400) * rng.choice([-1.0, 1.0], 400)
        w, q = DiagonalPlusRankOne(x, u, c).eig()
        _, w_d, _, scale = dense_reference(x, u, c)
        assert np.max(np.abs(w - w_d)) <= 1e-13 * scale
        assert np.max(np.abs(q.T @ q - np.eye(x.size))) <= 2e-14

    def test_entries_and_eigenvalues(self):
        x, u = quadrature_coupling(50, BUMP_SHAPES["sech"])
        h = DiagonalPlusRankOne(x, u, 0.5)
        assert np.array_equal(h.entries, 0.5 * np.outer(u, u) + np.diag(x))
        assert h.eigenvalues() is h.eig()[0]
        assert h.dim == 50

    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DiagonalPlusRankOne([0.0, 0.0, 1.0], [1.0, 1.0, 1.0], 0.5)
        with pytest.raises(ValueError, match="one length"):
            DiagonalPlusRankOne([0.0, 1.0], [1.0], 0.5)
        with pytest.raises(ValueError, match="finite"):
            DiagonalPlusRankOne([0.0, 1.0], [1.0, np.nan], 0.5)

    def test_check_rejects_descending_eigenvalues(self):
        x, u = quadrature_coupling(50, BUMP_SHAPES["sech"])
        h = DiagonalPlusRankOne(x, u, 0.5)
        w, q = h.eig()
        with pytest.raises(EigendecompositionError, match="not ascending"):
            h.check(w[::-1], q)

    def test_roots_that_do_not_converge_raise(self, monkeypatch):
        # a root takes about five steps; with one, none converges
        monkeypatch.setattr(matrices, "SECULAR_MAX_ITER", 1)
        with pytest.raises(EigendecompositionError, match=r"(\d+) of \1 roots did not converge"):
            RankOneModel(n=200).solve()

    @pytest.mark.parametrize("c", [0.5, -0.7])
    def test_a_block_of_one_node(self, c):
        # 0.3 + 0.49 c is the one eigenvalue, with the eigenvector e_1
        h = DiagonalPlusRankOne([0.3], [0.7], c)
        w, q = h.eig()
        assert abs(w[0] - (0.3 + 0.49 * c)) <= 1e-15
        assert np.array_equal(np.abs(q), [[1.0]])
        h.check(w, q)

    def test_poles_one_ulp_apart_are_rejected(self):
        def nodes(ulps):
            return np.concatenate([np.linspace(-3.0, -1.0, 20),
                                   1.0 + ulps * np.arange(10) * np.spacing(1.0)])

        # the midpoint of two poles 1 ulp apart rounds onto one of them, where
        # the secular solve would divide by zero
        with pytest.raises(ValueError, match="2 ulps apart"):
            DiagonalPlusRankOne(nodes(1), np.ones(30), 0.5)
        h = DiagonalPlusRankOne(nodes(2), np.ones(30), 0.5)
        dense = np.linalg.eigvalsh(h.entries)
        assert np.max(np.abs(h.eig()[0] - dense)) <= 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("c", [0.5, -0.7])
    def test_kept_block_with_the_deflated_pairs_solves_h(self, secular_sizes, c):
        # the gaussian bump deflates half the nodes at n = 400
        x, u = quadrature_coupling(400, BUMP_SHAPES["gaussian"])
        h = DiagonalPlusRankOne(x, u, c)
        kept = h.kept()
        assert 0 < kept.size < 400
        with pytest.raises(ValueError, match="solve block"):
            h.eig()
        block = h.block(kept)
        assert np.array_equal(block.x, x[kept]) and np.array_equal(block.u, u[kept])
        w_k, q_k = block.eig()
        assert secular_sizes == [kept.size]
        # the block's eigenvectors, zero on the deflated rows, and the (x_j, e_j)
        # solve H up to the coupling the block drops, within check's tolerance
        q = np.zeros((400, kept.size))
        q[kept] = q_k
        residual = x[:, None] * q + c * np.outer(u, u @ q) - q * w_k
        deflated = np.delete(np.arange(400), kept)
        scale = h._scale()
        assert np.max(np.abs(residual)) <= matrices.RECONSTRUCTION_TOL * scale
        assert np.max(np.abs(c * np.outer(u, u[deflated]))) <= matrices.RECONSTRUCTION_TOL * scale

    @pytest.mark.parametrize("c", [0.5, -0.7])
    @pytest.mark.parametrize("strips", [1, 2])
    def test_a_last_strip_of_one_column_changes_no_arithmetic(self, monkeypatch, strips, c):
        # strips of STRIP_WIDTH leave one column over here; summed alone, it
        # would round otherwise than in one strip as wide as the matrix
        m = strips * matrices.STRIP_WIDTH + 1
        rng = np.random.default_rng(m)
        x, u = np.sort(rng.standard_normal(m)), rng.uniform(0.5, 1.0, m)
        w, q = DiagonalPlusRankOne(x, u, c).eig()
        monkeypatch.setattr(matrices, "STRIP_WIDTH", m + 1)
        w_wide, q_wide = DiagonalPlusRankOne(x, u, c).eig()
        assert np.array_equal(w, w_wide) and np.array_equal(q, q_wide)

    @pytest.mark.parametrize("c", [0.5, -0.7, 2.0])
    @pytest.mark.parametrize("width", [2, 3])
    def test_narrow_strips_change_no_arithmetic(self, monkeypatch, width, c):
        # psi' and phi' are plain sums with the other's band of terms set to +0: a strip of
        # two or three roots has a band of a row or two, one strip as wide as the block a band
        # of every row; the masked sums, and (w, Q), must not move by a bit
        x, u = quadrature_coupling(400, BUMP_SHAPES["sech"])
        monkeypatch.setattr(matrices, "STRIP_WIDTH", width)
        w, q = DiagonalPlusRankOne(x, u, c).eig()
        monkeypatch.setattr(matrices, "STRIP_WIDTH", x.size + 1)
        w_wide, q_wide = DiagonalPlusRankOne(x, u, c).eig()
        assert np.array_equal(w, w_wide) and np.array_equal(q, q_wide)

    @pytest.mark.parametrize("c", [0.5, -0.7, 0.0])
    def test_the_secular_solve_sees_only_the_kept_block(self, secular_sizes, c):
        x, u = quadrature_coupling(400, BUMP_SHAPES["gaussian"])
        h = DiagonalPlusRankOne(x, u, c)
        with pytest.raises(ValueError, match="nodes deflate"):
            h.eig()  # at c = 0 every node deflates
        block = h.block(h.kept())
        assert (block is None) == (c == 0.0)
        if block is not None:
            block.eig()
        assert secular_sizes == ([] if c == 0.0 else [h.kept().size])

    def test_block_rejects_dropping_a_coupled_node(self):
        x, u = quadrature_coupling(400, BUMP_SHAPES["gaussian"])
        h = DiagonalPlusRankOne(x, u, 0.5)
        kept = h.kept()
        j = int(np.argmax(np.abs(u)))  # the node at the centre of the bump
        assert j in kept and abs(u[j]) > 0.2
        with pytest.raises(EigendecompositionError, match="dropped"):
            h.block(kept[kept != j])

    def test_zero_coupling_keeps_no_node(self):
        x, u = quadrature_coupling(50, BUMP_SHAPES["sech"])
        h = DiagonalPlusRankOne(x, u, 0.0)
        assert h.kept().size == 0 and h.block(h.kept()) is None

    @pytest.mark.parametrize("perturb", ["entry", "scale"])
    def test_check_rejects_one_perturbed_column(self, perturb):
        x, u = quadrature_coupling(400, BUMP_SHAPES["gaussian"])
        h = DiagonalPlusRankOne(x, u, 0.5)
        block = h.block(h.kept())
        w, q = block.eig()
        block.check(w, q)
        k = block.dim // 2
        bad = q.copy()
        if perturb == "entry":  # breaks the residual of column k
            bad[k - 50, k] += 1e-6
        else:  # still an eigenvector, but no longer of unit length
            bad[:, k] *= 1.0 + 1e-6
        with pytest.raises(EigendecompositionError):
            block.check(w, bad)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


# equal entries, both zeros, subnormals, the normal extremes, magnitudes of 1e+-300, ulp steps
ADVERSARIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-300, 1e-300,
                        1e300, -1e300, 1.7976931348623157e308, -1.0, 1.0, 1.0,
                        1.0 + 2.0**-52, 3.0, -3.0])


class TestStripKernels:
    @pytest.mark.parametrize("rows", [1, 2, 65, 708])
    @pytest.mark.parametrize("cols", [1, 2, 3, 64])
    def test_column_sums_add_as_np_sum(self, rows, cols):
        # down each column, row after row; one column np.sum sums pairwise, and so must this
        rng = np.random.default_rng(rows * cols)
        work = rng.standard_normal((rows + 1, 64)) * 10.0 ** rng.integers(-12, 12, (rows + 1, 64))
        for strip in (work[:rows, :cols], work[1:, :cols]):  # strips of a wider work array
            assert np.array_equal(bits(matrices._column_sums(strip)), bits(np.sum(strip, axis=0)))

    @pytest.mark.parametrize("form, outer", [(matrices._difference_factors, np.subtract.outer),
                                             (matrices._product_factors, np.multiply.outer)])
    @pytest.mark.parametrize("rows, cols", [(16, 16), (700, 64), (64, 700)])
    def test_products_round_as_the_outer_methods(self, form, outer, rows, cols):
        # a strip's shape runs BLAS's own kernels; every entry must be rounded once, as the
        # outer method rounds it, but for the sign of a zero: the product gives +0 for -0
        rng = np.random.default_rng(rows)

        def draw(size):
            a = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
            a[: ADVERSARIAL.size] = ADVERSARIAL
            return rng.permutation(a)

        a, b = draw(rows), draw(cols)
        with np.errstate(over="ignore"):
            expected = outer(a, b)
            product = np.matmul(*form(a, b))
        negative_zero = bits(expected) == bits(-0.0)
        assert np.any(negative_zero) and np.any(np.isinf(expected))
        assert np.array_equal(bits(product[~negative_zero]), bits(expected[~negative_zero]))
        assert np.all(bits(product[negative_zero]) == bits(0.0))

    def test_strictly_increasing_differences_hold_no_negative_zero(self):
        # the solve's differences: d_i - d_j and d_i - mid_k, d strictly increasing
        d = np.unique(ADVERSARIAL)
        mid = d[:-1] + np.diff(d) / 2.0
        for b in (d, mid):
            with np.errstate(over="ignore"):
                expected = np.subtract.outer(d, b)
                product = np.matmul(*matrices._difference_factors(d, b))
            assert not np.any(bits(expected) == bits(-0.0))
            assert np.array_equal(bits(product), bits(expected))


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

    def test_symmetric_gives_the_absolute_eigenvalues(self):
        a = random_symmetric(np.random.default_rng(5), 9)
        assert np.allclose(
            singular_values(a), np.sort(np.abs(a.eigenvalues()))[::-1], atol=1e-12
        )

    def test_schatten_examples(self):
        assert schatten_norm(np.diag([3.0, 4.0]), 2) == pytest.approx(5.0)
        assert schatten_norm(np.diag([3.0, 4.0]), np.inf) == pytest.approx(4.0)

    def test_schatten_of_an_empty_matrix_is_zero(self):
        # there is no largest singular value to read for p = inf
        assert schatten_norm(np.zeros((0, 0)), 2) == 0.0
        assert schatten_norm(np.zeros((0, 0)), np.inf) == 0.0

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
        assert trace_powers(a, (2,))[2] == pytest.approx(2.0)
        assert trace_powers(a, (3,))[3] == pytest.approx(0.0, abs=1e-15)

    def test_matches_repeated_product(self):
        rng = np.random.default_rng(8)
        a = random_symmetric(rng, 15)
        direct = float(np.trace(np.linalg.matrix_power(a.entries, 4)))
        assert trace_powers(a, (4,))[4] == pytest.approx(direct, rel=1e-8)

    def test_rejects_bad_powers(self):
        a = SelfAdjointMatrix(np.eye(2))
        for m in (0, -1, 1.5, "2", True, 1.0):
            with pytest.raises(ValueError):
                trace_powers(a, (m,))

    def test_products_agree_with_the_eigenvalues_and_run_no_eigensolve(self, monkeypatch):
        rng = np.random.default_rng(12)
        a = random_symmetric(rng, 40)
        w = np.linalg.eigvalsh(a.entries)

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("trace_powers ran an eigensolve")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
        traces = trace_powers(a, (7, 1, 2, 3, 4, 5, 6))
        assert list(traces) == [7, 1, 2, 3, 4, 5, 6]
        for m, value in traces.items():
            assert value == pytest.approx(float(np.sum(w ** float(m))),
                                          rel=1e-12, abs=1e-12 * float(np.sum(np.abs(w) ** m)))
            assert trace_powers(a, (m,))[m] == value
        assert trace_powers(a, ()) == {}

    def test_powers_are_freed_when_the_call_returns(self):
        # a self-calling closure kept them in a reference cycle: 27 MB more peak
        # memory over a benchmark run, until the cyclic collector ran
        a = random_symmetric(np.random.default_rng(13), 30)
        gc.collect()
        gc.disable()
        try:
            trace_powers(a, (2, 3, 4, 6, 7))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_bare_arrays(self):
        # a bare array is validated as a symmetric matrix, as the wrappers are
        assert trace_powers(np.eye(3), (2,))[2] == pytest.approx(3.0)
        assert trace_powers([[0.0, 2.0], [2.0, 0.0]], (2,))[2] == pytest.approx(8.0)
        with pytest.raises(ValueError, match="not symmetric"):
            trace_powers(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,))
        with pytest.raises(ValueError, match="square"):
            trace_powers(RectMatrix(np.ones((2, 3))), (2,))


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
                    trace_powers(SelfAdjointMatrix(x), (m,))[m]
                    - trace_powers(SelfAdjointMatrix(y), (m,))[m]
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

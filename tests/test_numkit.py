import warnings

import numpy as np
import pytest

from gsptk import (
    BadSizeError,
    DimensionMismatchError,
    Graph,
    GraphKind,
    NonFiniteError,
    PolynomialFilter,
    ShiftDomain,
    SingularMatrixError,
    basis_from_graph,
    build,
    bundled_basis,
    circulant_convolve,
    dft_basis,
    vandermonde,
)
from gsptk.numkit import as_cmatrix, as_cvector, eig, row_reduce, solve


# out-of-band analysis rows of the 4-node showcase basis, used by the
# published row-reduction example
def _example4_out_rows():
    graph = build(GraphKind.EXAMPLE4, 4)
    basis = bundled_basis("example4", graph)
    return basis.gft[2:, :]


def _planted(rng, m, n):
    """A complex m x n matrix whose columns are, at random, fresh, zero, or
    combinations of earlier columns (dependent on their prefix)."""
    a = np.zeros((m, n), dtype=np.complex128)
    for j in range(n):
        u = rng.random()
        if j and u < 0.4:
            a[:, j] = a[:, :j] @ (rng.normal(size=j) + 1j * rng.normal(size=j))
        elif u < 0.9:
            a[:, j] = rng.normal(size=m) + 1j * rng.normal(size=m)
    return a


class TestRowReduce:
    def test_showcase_out_of_band_rows(self):
        # the published reduced block [I | -S] is pinned through plan.S
        # (tests/test_acceptance.py and S4 in tests/test_sampling.py)
        red = row_reduce(_example4_out_rows())
        assert red.pivot_cols == (0, 2)
        assert red.free_cols == (1, 3)
        assert red.rank == 2

    def test_identity(self):
        red = row_reduce(np.eye(3))
        assert red.pivot_cols == (0, 1, 2)
        assert red.free_cols == ()
        assert red.rank == 3

    def test_zero_row(self):
        red = row_reduce(np.zeros((1, 3)))
        assert red.rank == 0
        assert red.free_cols == (0, 1, 2)

    def test_pivot_columns_are_where_the_prefix_rank_grows(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m, n = (int(v) for v in rng.integers(1, 13, size=2))
            a = _planted(rng, m, n)
            ranks = [np.linalg.matrix_rank(a[:, : j + 1]) for j in range(n)]
            grows = tuple(j for j in range(n) if ranks[j] > (ranks[j - 1] if j else 0))
            red = row_reduce(a)
            assert red.pivot_cols == grows
            assert red.free_cols == tuple(j for j in range(n) if j not in grows)
            assert red.rank == ranks[-1]

    def test_random_invertible_has_no_free_columns(self):
        rng = np.random.default_rng(11)
        for n in range(2, 13):
            while True:
                m = rng.normal(size=(n, n))
                if np.linalg.cond(m) < 1e6:
                    break
            red = row_reduce(m)
            assert red.rank == n
            assert red.free_cols == ()

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 7)) + 1j * rng.normal(size=(4, 7))
        first = row_reduce(m.copy())
        second = row_reduce(m.copy())
        assert first == second

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteError):
            row_reduce(np.array([[np.nan, 1.0]]))


def test_validation_errors_are_typed_value_errors():
    with pytest.raises(NonFiniteError, match="impulse matrix contains non-finite"):
        as_cmatrix([[1.0, np.inf]], "impulse matrix")
    with pytest.raises(NonFiniteError, match="lam contains non-finite"):
        as_cvector([complex(0.0, -np.inf), 1.0], "lam")
    with pytest.raises(DimensionMismatchError, match="must be 2-D"):
        as_cmatrix(np.ones(3))
    with pytest.raises(DimensionMismatchError, match="must be 1-D"):
        as_cvector(np.ones((2, 2)))
    with pytest.raises(DimensionMismatchError, match="adjacency must be square"):
        Graph(np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError, match="coefficient matrix must be square"):
        solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(DimensionMismatchError, match="rhs length 3 does not match"):
        solve(np.eye(2), np.ones(3))
    with pytest.raises(DimensionMismatchError, match="matrix must be square"):
        eig(np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError, match="ordering must be a permutation"):
        basis_from_graph(build(GraphKind.RING, 4), ordering=[0, 0, 1, 2])
    with pytest.raises(DimensionMismatchError, match="operands must have equal length"):
        circulant_convolve([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(BadSizeError, match="lam must be nonempty"):
        vandermonde([])
    with pytest.raises(BadSizeError, match="n must be positive"):
        dft_basis(0)
    with pytest.raises(BadSizeError, match="at least one coefficient"):
        PolynomialFilter([], ShiftDomain.VERTEX_A)
    assert issubclass(NonFiniteError, ValueError)
    assert issubclass(DimensionMismatchError, ValueError)
    assert issubclass(BadSizeError, ValueError)


class TestSolve:
    def test_showcase_recovery_product_roundtrip(self):
        s = np.array([[-1.0, 1.839], [0.0, 0.544]])
        x_f = np.array([0.93, -0.577])
        x_p = s @ x_f
        assert np.max(np.abs(x_p - np.array([-1.991, -0.314]))) < 5e-3
        assert np.max(np.abs(solve(s, x_p) - x_f)) < 1e-10

    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(solve(np.eye(3), b), b)

    def test_singular_inconsistent(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            solve(a, np.array([1.0, 0.0]))

    def test_exactly_singular_reports_rank_without_a_warning(self):
        a = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError, match=r"\(rank 2 of 3\)"):
                solve(a, np.ones(3))

    def test_pivot_cutoff_scales_with_the_matrix(self):
        a = np.diag([1.0, 1e-11])
        with pytest.raises(SingularMatrixError):
            solve(a, np.ones(2))
        assert np.allclose(solve(1e-12 * np.eye(2), np.ones(2)), 1e12)

    def test_matrix_rhs_inverts(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        inv = solve(a, np.eye(6, dtype=complex))
        assert np.max(np.abs(a @ inv - np.eye(6))) < 1e-10

    def test_roundtrip_well_conditioned(self):
        rng = np.random.default_rng(19)
        done = 0
        while done < 50:
            n = int(rng.integers(2, 14))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            if np.linalg.cond(a) >= 1e6:
                continue
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            got = solve(a, a @ x)
            assert np.max(np.abs(got - x)) <= 1e-8 * max(1.0, np.max(np.abs(x)))
            done += 1


class TestEig:
    def test_ring_eigenvalues_are_roots_of_unity(self):
        pair = eig(build(GraphKind.RING, 4).adjacency)
        got = sorted(np.round(pair.values, 9).tolist(), key=lambda z: (z.real, z.imag))
        want = sorted([1, 1j, -1, -1j], key=lambda z: (z.real, z.imag))
        assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-9

    def test_diagonal(self):
        pair = eig(np.diag([1.0, 2.0, 3.0]))
        order = np.argsort(pair.values.real)
        assert np.allclose(pair.values[order], [1, 2, 3])
        assert np.allclose(np.abs(pair.vectors[:, order]), np.eye(3), atol=1e-12)

    def test_star_has_repeated_zero(self):
        pair = eig(build(GraphKind.STAR, 5).adjacency)
        vals = sorted(pair.values.real.tolist())
        assert np.allclose(vals, [-2, 0, 0, 0, 2], atol=1e-9)
        assert pair.min_gap < 1e-9

    def test_columns_unit_norm_positive_lead(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(6, 6))
        pair = eig(a)
        norms = np.linalg.norm(pair.vectors, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)
        for k in range(6):
            col = pair.vectors[:, k]
            lead = col[np.argmax(np.abs(col) >= 1e-8 * np.max(np.abs(col)))]
            assert abs(lead.imag) < 1e-10
            assert lead.real > 0

    def test_residual_bound_on_random_matrices(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(2, 17))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            pair = eig(a)  # raises NotConvergedError on violation
            resid = np.max(np.abs(a @ pair.vectors - pair.vectors * pair.values))
            assert resid <= 1e-9 * np.max(np.sum(np.abs(a), axis=1))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eig(np.zeros((2, 3)))

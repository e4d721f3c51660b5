import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from gsptk import (
    BadSizeError,
    DimensionMismatchError,
    Domain,
    Graph,
    GraphKind,
    GraphSignal,
    NonFiniteError,
    NotConvergedError,
    PolynomialFilter,
    RepeatedEigenvaluesError,
    SingularMatrixError,
    basis_from_graph,
    build,
    bundled_basis,
    circulant_convolve,
    dft_basis,
    matrix_from_response,
    vandermonde,
    write_graph,
    write_signal,
)
from gsptk import numkit
from gsptk.cli import main
from gsptk.numkit import PIVOT_TOL, eig, row_reduce, solve

from util import bits, circulant, er_digraph, node_0_sends_nothing, one_vector_off


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
        assert row_reduce(_example4_out_rows()).pivot_cols == (0, 2)  # nodes 1 and 3 are free

    def test_identity(self):
        assert row_reduce(np.eye(3)).pivot_cols == (0, 1, 2)

    def test_zero_row(self):
        assert row_reduce(np.zeros((1, 3))).pivot_cols == ()

    def test_pivot_columns_are_where_the_prefix_rank_grows(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m, n = (int(v) for v in rng.integers(1, 13, size=2))
            a = _planted(rng, m, n)
            ranks = [np.linalg.matrix_rank(a[:, : j + 1]) for j in range(n)]
            grows = tuple(j for j in range(n) if ranks[j] > (ranks[j - 1] if j else 0))
            red = row_reduce(a)
            assert red.pivot_cols == grows
            assert len(red.pivot_cols) == ranks[-1]

    def test_random_invertible_has_no_free_columns(self):
        rng = np.random.default_rng(11)
        for n in range(2, 13):
            while True:
                m = rng.normal(size=(n, n))
                if np.linalg.cond(m) < 1e6:
                    break
            assert row_reduce(m).pivot_cols == tuple(range(n))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 7)) + 1j * rng.normal(size=(4, 7))
        first = row_reduce(m.copy())
        second = row_reduce(m.copy())
        assert first == second

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteError):
            row_reduce(np.array([[np.nan, 1.0]]))


def _eliminated(a) -> numkit.RowReduction:
    return numkit._eliminate(np.array(a, dtype=np.complex128, order="C"))


@pytest.mark.parametrize("scale", [1e-310, 1e-300, 1.0, 1e300, 1.5e308])
def test_elimination_is_scale_free_from_subnormal_to_the_largest_float(scale):
    # the first update is 1 + 1 = 2 times the scale, which overflows at 1.5e308 unless the loop works
    # on the matrix scaled by a power of two; the suite turns a RuntimeWarning into a failure
    a = np.array([[1.0, 1.0, 0.5], [-1.0, 1.0, 0.25], [0.5, 1.0, 1.0]])
    assert _eliminated(a * scale) == _eliminated(a) == numkit.RowReduction((0, 1, 2))


class TestSingularValueProof:
    """``row_reduce`` returns the leading columns, without elimination, when
    the smallest singular value of the leading block exceeds ``2 sqrt(r) cut``."""

    @settings(deadline=None, derandomize=True, database=None, max_examples=80)
    @given(seed=st.integers(0, 2**16), r=st.integers(1, 8), extra=st.integers(0, 8),
           factor=st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]))
    def test_equals_the_elimination_loop(self, seed, r, extra, factor):
        # a wide complex matrix: a leading block with singular values 1, ...,
        # 1, factor * 2 sqrt(r) * cut (factor 0: a planted dependent column),
        # then columns that are, at random, fresh, zero or dependent
        rng = np.random.default_rng(seed)
        rest = _planted(rng, r, r + extra)[:, r:]
        if np.abs(rest).max(initial=0.0) > 0:
            rest /= np.abs(rest).max()  # max|rest| = 1 >= max|block|, so cut = PIVOT_TOL
        u, _, vh = np.linalg.svd(rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))
        sv = np.ones(r)
        sv[-1] = factor * 2 * np.sqrt(r) * PIVOT_TOL
        block = (u * sv) @ vh  # every entry <= 1 in modulus, up to rounding
        if factor == 0.0 and r > 1:
            block[:, -1] = block[:, :-1] @ (rng.normal(size=r - 1) + 1j * rng.normal(size=r - 1))
        a = np.hstack([block, rest])
        want = _eliminated(a)
        with mock.patch.object(numkit, "_eliminate", side_effect=numkit._eliminate) as loop:
            got = row_reduce(a)
        assert got == want
        cut = numkit._zero_cut(a)
        proved = np.linalg.svd(a[:, :r], compute_uv=False)[-1] > 2 * np.sqrt(r) * cut
        assert loop.called == (not proved)
        if factor >= 2.0:  # well above the rounding of the prescribed value
            assert proved and got.pivot_cols == tuple(range(r))

    def test_pivots_by_modulus_where_lapack_would_not(self):
        # zgetrf picks its pivot by |Re| + |Im| (izamax): 2 > 1.5 makes it keep
        # row 0, while the modulus rule picks row 1 (1.5 > sqrt(2)); an LU could
        # therefore not stand in for the loop's choices
        a = np.array([[1 + 1j, 0], [1.5, 1]])
        _, piv = scipy.linalg.lu_factor(a)
        assert piv[0] == 0 and int(np.argmax(np.abs(a[:, 0]))) == 1
        assert row_reduce(a) == _eliminated(a) == numkit.RowReduction((0, 1))

    def test_an_exactly_singular_leading_block_falls_back_without_a_warning(self):
        a = np.array([[1.0, 2.0, 0.0, 1.0], [2.0, 4.0, 0.0, 3.0], [1.0, 2.0, 1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with mock.patch.object(numkit, "_eliminate", side_effect=numkit._eliminate) as loop:
                red = row_reduce(a)
        assert loop.called
        assert red == _eliminated(a) == numkit.RowReduction((0, 2, 3))

    @pytest.mark.parametrize("graph, loops", [
        (er_digraph(np.random.default_rng(1), 400), (False, False)),  # r = 200, where growth could matter
        (node_0_sends_nothing(64), (True, False)),
    ], ids=["er400", "er64-node-0-sends-nothing"])
    def test_equals_the_loop_on_both_selection_matrices_of_a_graph(self, graph, loops):
        basis = basis_from_graph(graph)
        k = graph.n // 2
        # the paper's vertex rule's matrix (the out-of-band GFT rows), the spectral route's
        for m, runs_loop in zip((basis.gft[k:, :], basis.igft[:, :k].T), loops):
            with mock.patch.object(numkit, "_eliminate", side_effect=numkit._eliminate) as loop:
                got = row_reduce(m)
            assert loop.called == runs_loop
            assert got == _eliminated(m)
            assert (got.pivot_cols[0] == 0) != runs_loop  # where the loop runs, it skips column 0

    def test_a_short_leading_column_fails_the_proof(self):
        # node 0 sends to no one, so column 0 of the out-of-band GFT rows is
        # rounding noise, 2.9e-14 against the bound 2 sqrt(r) cut = 1.6e-8:
        # sigma_min of the leading block is no larger, and the loop decides
        basis = basis_from_graph(node_0_sends_nothing(400))
        m = basis.gft[200:, :]
        assert np.linalg.norm(m[:, 0]) <= 2 * np.sqrt(200) * numkit._zero_cut(m)
        with mock.patch.object(numkit, "_eliminate", side_effect=numkit._eliminate) as loop:
            got = row_reduce(m)
        assert loop.called
        assert got == _eliminated(m) and got.singular_values is None

    @pytest.mark.parametrize("factor", [0.0, 0.5, 0.99, 1.01, 4.0])
    def test_a_column_at_the_bound_gives_the_loop_s_pattern(self, factor):
        # column 2 of the leading block scaled to factor * 2 sqrt(r) * cut: at or
        # below the bound sigma_min is too, and the loop runs; above it the
        # singular values decide; either way the pattern is the loop's
        rng = np.random.default_rng(3)
        r = 6
        a = rng.normal(size=(r, 10)) + 1j * rng.normal(size=(r, 10))
        a /= np.abs(a).max()  # cut = PIVOT_TOL while max|a| stays 1
        bound = 2 * np.sqrt(r) * PIVOT_TOL
        a[:, 2] *= factor * bound / np.linalg.norm(a[:, 2])
        with mock.patch.object(numkit, "_eliminate", side_effect=numkit._eliminate) as loop:
            got = row_reduce(a)
        assert loop.called or factor > 1.0
        assert got == _eliminated(a)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (4, 2), (3, 3)])
    def test_tall_empty_and_zero_matrices_run_the_loop(self, shape):
        with mock.patch.object(numkit, "_eliminate", side_effect=numkit._eliminate) as loop:
            red = row_reduce(np.zeros(shape))
        assert loop.called and red.pivot_cols == ()


def test_validation_errors_are_typed_value_errors():
    with pytest.raises(NonFiniteError, match="impulse matrix contains non-finite"):
        numkit._as_array([[1.0, np.inf]], "impulse matrix", 2)
    with pytest.raises(NonFiniteError, match="lam contains non-finite"):
        numkit._as_array([complex(0.0, -np.inf), 1.0], "lam", 1)
    with pytest.raises(DimensionMismatchError, match="must be 2-D"):
        numkit._as_array(np.ones(3), "matrix", 2)
    with pytest.raises(DimensionMismatchError, match="must be 1-D"):
        numkit._as_array(np.ones((2, 2)), "vector", 1)
    with pytest.raises(DimensionMismatchError, match="adjacency must be square"):
        Graph(np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError, match="coefficient matrix must be square"):
        solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(DimensionMismatchError, match="rhs length 3 does not match"):
        solve(np.eye(2), np.ones(3))
    with pytest.raises(DimensionMismatchError, match="matrix must be square"):
        eig(np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError, match="signal length 3 does not match the graph size 4"):
        matrix_from_response(dft_basis(4), GraphSignal(np.ones(3), Domain.SPECTRAL))
    with pytest.raises(DimensionMismatchError, match="operands must have equal length"):
        circulant_convolve([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(BadSizeError, match="lam must be nonempty"):
        vandermonde([])
    with pytest.raises(BadSizeError, match="n must be positive"):
        dft_basis(0)
    with pytest.raises(BadSizeError, match="at least one coefficient"):
        PolynomialFilter([], Domain.VERTEX)
    assert issubclass(NonFiniteError, ValueError)
    assert issubclass(DimensionMismatchError, ValueError)
    assert issubclass(BadSizeError, ValueError)


# the check sums first and runs the exact pass only on a non-finite sum: a planted NaN or inf, or
# finite entries whose sum overflows; the verdict is isfinite's either way, and warns of nothing
@pytest.mark.parametrize("x", [
    [], [1.0, np.nan, 2.0], [1.0, np.inf], [-np.inf, 1.0], [np.inf, -np.inf], [1e308] * 4,
    [1e308, -1e308, 1e308, 1e308, 1e308], [1e308, 1e308, np.nan], [5e-324] * 3, [5e-324, -np.inf],
], ids=["empty", "nan", "inf", "-inf", "inf-minus-inf", "sum-overflows", "partial-sums-overflow",
        "overflow-then-nan", "subnormal", "subnormal-inf"])
def test_the_finiteness_check_agrees_with_isfinite(x):
    x = np.array(x, dtype=np.float64)
    want = bool(np.isfinite(x).all())
    assert numkit._all_finite(x) is want
    if x.size:  # as a complex vector, with the entries as real or as imaginary parts
        for re, im in ((x, np.zeros_like(x)), (np.zeros_like(x), x), (x, x[::-1])):
            z = np.empty(x.size, dtype=np.complex128)
            z.real, z.imag = re, im
            if want:
                numkit._as_array(z, "vector", 1)
            else:
                with pytest.raises(NonFiniteError):
                    numkit._as_array(z, "vector", 1)


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

    def test_a_real_system_stays_real_with_the_same_refusal(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(5, 5)), rng.normal(size=(5, 2))
        for rhs in (b, b[:, 0], np.eye(5, dtype=int)):
            assert solve(a, rhs).dtype == np.float64
            assert np.max(np.abs(solve(a, rhs) - solve(a.astype(complex), rhs))) < 1e-12
        for ca, cb in ((a.astype(complex), b), (a, b.astype(complex)), (a.tolist(), (b + 1j).tolist())):
            assert solve(ca, cb).dtype == np.complex128
        singular = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 1e-11], [0.0, 0.0, 1.0]])
        messages = []
        for m in (singular, singular.astype(complex)):
            with pytest.raises(SingularMatrixError) as exc:
                solve(m, np.ones(3))
            messages.append(str(exc.value))
        assert messages[0] == messages[1] == "matrix is singular at tolerance 1.0e-10 (rank 2 of 3)"
        with pytest.raises(NonFiniteError):
            solve(np.diag([1.0, np.inf]), np.ones(2))

    @pytest.mark.parametrize("a, b", [([[1e-310]], [1.0]), (np.diag([1e-310, 2e-310]), np.eye(2))],
                             ids=["vector", "matrix"])
    def test_a_solution_that_overflows_is_refused(self, a, b):
        # each pivot is above the zero cut, but 1 / 1e-310 is beyond float64
        with pytest.raises(NonFiniteError, match="solution contains non-finite entries"):
            solve(a, b)

    def test_an_empty_system_returns_its_empty_right_hand_side(self):
        assert solve(np.zeros((0, 0)), np.zeros(0)).shape == (0,)
        x = solve(np.zeros((0, 0)), np.zeros((0, 3), dtype=complex))
        assert x.shape == (0, 3) and x.dtype == np.complex128

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
        assert numkit._coincident(pair.values)[0] < 1e-9

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

    def test_a_residual_over_the_contract_is_refused(self):
        a = er_digraph(np.random.default_rng(1), 12).adjacency
        with mock.patch.object(scipy.linalg, "eig", side_effect=one_vector_off(scipy.linalg.eig)):
            with pytest.raises(NotConvergedError, match="eigendecomposition residual .* exceeds 1.0e-09"):
                eig(a)
        eig(a)

    def test_a_nan_residual_is_refused(self):
        # NaN compares false with the limit, so the check asks whether the residual is within it
        a = er_digraph(np.random.default_rng(1), 12).adjacency

        def planted(*args, **kwargs):
            values, vectors = scipy_eig(*args, **kwargs)
            vectors[:, np.flatnonzero(values.imag == 0)[0]] = np.nan
            return values, vectors

        scipy_eig = scipy.linalg.eig
        with mock.patch.object(scipy.linalg, "eig", side_effect=planted):
            with pytest.raises(NotConvergedError, match="eigendecomposition residual nan"):
                eig(a)

    def test_a_lapack_failure_is_refused(self, tmp_path, capsys):
        # LAPACK's QR iteration can fail to converge; eig and the CLI name that, not numpy's LinAlgError
        graph = er_digraph(np.random.default_rng(1), 12)
        write_graph(graph, tmp_path / "g.json")
        write_signal(GraphSignal(np.ones(12), Domain.VERTEX), tmp_path / "x.json")
        failure = np.linalg.LinAlgError("eig algorithm (geev) did not converge")
        with mock.patch.object(scipy.linalg, "eig", side_effect=failure):
            with pytest.raises(NotConvergedError, match="eigendecomposition did not converge"):
                eig(graph.adjacency)
            code = main(["gft", str(tmp_path / "g.json"), str(tmp_path / "x.json"), "--out", str(tmp_path / "y.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: eigendecomposition did not converge")
        assert not (tmp_path / "y.json").exists()


class TestNormalizeColumns:
    def test_zero_columns_and_leads_just_under_the_cut(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(9, 8)) + 1j * rng.normal(size=(9, 8))
        v[:, 1] = 0.0
        v[:, 5] = complex(-0.0, 0.0)  # a zero column keeps its signed zeros
        for k, rows in ((2, 1), (3, 3), (6, 8)):  # the first `rows` entries sit just under the cut
            v[:, k] /= np.abs(v[:, k]).max()
            v[-1, k] = 2.0
            v[:rows, k] *= PIVOT_TOL * (1 - 1e-6) * 2.0 / np.abs(v[:rows, k]).max()
        v[:, 7] /= np.abs(v[:, 7]).max()
        v[0, 7] = PIVOT_TOL * (1 + 1e-6)  # just above the cut: it leads
        got = numkit._normalize_columns(v)
        assert got.flags.c_contiguous and got.dtype == np.complex128
        assert got[:, [1, 5]].tobytes() == v[:, [1, 5]].tobytes()
        nonzero = [0, 2, 3, 4, 6, 7]
        np.testing.assert_allclose(np.linalg.norm(got[:, nonzero], axis=0), 1.0, rtol=1e-15)
        for k, lead in ((2, 1), (3, 3), (6, 8), (7, 0)):
            assert got[lead, k].imag == 0 < got[lead, k].real


def _normalize_columns_loop(vectors):
    """The column-by-column reference for ``numkit._normalize_columns``."""
    v = vectors.copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        nrm = np.linalg.norm(col)
        if nrm == 0.0:
            continue
        col = col / nrm
        mags = np.abs(col)
        lead = int(np.argmax(mags > PIVOT_TOL * mags.max()))
        v[:, k] = col / (col[lead] / abs(col[lead]))
    return v


@pytest.mark.parametrize("a", [
    np.zeros((0, 0)), np.zeros((3, 0)), np.zeros((2, 2)), np.full((2, 2), -0.0), np.array([-5.0, 1.0]),
    np.array([5e-324, -0.0]), np.random.default_rng(3).normal(size=(9, 9)) * 1e-200,
    np.random.default_rng(4).normal(size=(7, 5)) + 1j * np.random.default_rng(5).normal(size=(7, 5)),
], ids=["empty", "no-columns", "zeros", "negative-zeros", "negative-max", "subnormal", "tiny", "complex"])
def test_the_zero_cut_of_a_real_array_reads_its_extremes_bit_for_bit(a):
    # a float array's cut is taken from its largest and smallest entries, without |a|
    assert np.array_equal(bits(numkit._zero_cut(a)), bits(PIVOT_TOL * np.max(np.abs(a), initial=0.0)))


class TestNormalizeColumnsMatchesTheLoop:
    def test_bit_for_bit_on_planted_leads_and_on_computed_eigenvectors(self):
        rng = np.random.default_rng(4)
        planted = rng.normal(size=(9, 8)) + 1j * rng.normal(size=(9, 8))
        planted[:, 1] = complex(-0.0, -0.0)
        planted[2, 3] = PIVOT_TOL * np.abs(planted[:, 3]).max()
        cycle = numkit._dft_eig(build(GraphKind.RING, 256).adjacency[:, 0])[1]
        lapack = scipy.linalg.eig(er_digraph(np.random.default_rng(1), 256).adjacency.real)[1]
        for v in (planted, cycle, lapack.astype(np.complex128), np.zeros((0, 0), np.complex128)):
            got = numkit._normalize_columns(v)
            assert got.flags.c_contiguous
            assert np.array_equal(bits(got), bits(_normalize_columns_loop(v)))


class TestCirculantEig:
    """A circulant matrix is diagonalized by the DFT in closed form; any other
    goes to LAPACK as before."""

    SIZES = (1, 2, 3, 4, 5, 8, 9, 16, 64)

    def _columns(self):
        for n in self.SIZES:
            rng = np.random.default_rng(n)
            yield rng.normal(size=n)
            yield rng.normal(size=n) + 1j * rng.normal(size=n)

    def test_values_and_vectors_match_lapack(self):
        # circulants are normal: each value within C N eps ||A||_inf of LAPACK's,
        # each normalized vector within C N eps ||A||_inf / gap_k (measured C <= 2.2)
        c = 20 * np.finfo(float).eps
        for column in self._columns():
            a = circulant(column)
            n = a.shape[0]
            with mock.patch("scipy.linalg.eig", side_effect=AssertionError("LAPACK ran")):
                pair = eig(a)
            values, vectors = scipy.linalg.eig(a)
            vectors = numkit._normalize_columns(vectors.astype(np.complex128))
            match = np.argmin(np.abs(pair.values[:, None] - values[None, :]), axis=1)
            assert sorted(match) == list(range(n))
            scale = c * n * np.max(np.sum(np.abs(a), axis=1))
            assert np.max(np.abs(pair.values - values[match])) <= scale
            gaps = np.abs(pair.values[:, None] - pair.values[None, :]) + np.diag(np.full(n, np.inf))
            err = np.max(np.abs(pair.vectors - vectors[:, match]), axis=0)
            assert np.all(err <= scale / gaps.min(axis=1))

    def test_a_real_circulant_gives_exact_conjugate_pairs_and_real_vectors(self):
        rings = [np.roll(np.eye(n)[0], 1) + np.roll(np.eye(n)[0], -1) for n in (6, 8, 9, 16, 64)]
        for column in [c for c in self._columns() if c.dtype == np.float64] + rings:
            pair = eig(circulant(column))
            real = pair.values.imag == 0
            if not np.array_equal(column[1:], column[:0:-1]):  # not symmetric: only values 0 and n/2 are real
                assert np.count_nonzero(real) == 2 - column.size % 2
            assert not pair.vectors[:, real].imag.any()
            for k in np.flatnonzero(~real):
                partner = np.flatnonzero(pair.values == np.conj(pair.values[k]))
                assert partner.size == 1
                assert np.array_equal(pair.vectors[:, partner[0]], np.conj(pair.vectors[:, k]))

    def test_the_closed_form_is_already_normalized(self):
        # unit norm and a first significant entry on the positive real axis,
        # so the normalization, which runs on LAPACK's output, is skipped
        symmetric = [np.roll(np.eye(n)[0], 1) + np.roll(np.eye(n)[0], -1) for n in (6, 9, 64)]
        for column in [*self._columns(), *symmetric]:
            with mock.patch.object(numkit, "_normalize_columns", side_effect=AssertionError("normalized")):
                v = eig(circulant(column)).vectors
            lead = v[np.argmax(np.abs(v) > PIVOT_TOL * np.abs(v).max(axis=0), axis=0), np.arange(v.shape[1])]
            assert np.all(lead.real > 0) and not lead.imag.any()
            assert np.max(np.abs(numkit._normalize_columns(v) - v)) <= 4 * np.finfo(float).eps

    def test_near_misses_go_to_lapack_bit_for_bit(self):
        path = build(GraphKind.PATH, 8).adjacency.real  # Toeplitz, not circulant
        ring = build(GraphKind.RING, 8).adjacency.real
        ring[3, 2] = np.nextafter(1.0, 2.0)
        for a in (path, ring):
            with mock.patch.object(numkit, "_dft_eig", side_effect=AssertionError("closed form ran")):
                pair = eig(a)
            values, vectors = (m.astype(np.complex128) for m in scipy.linalg.eig(a))
            freq = np.lexsort((-values.imag, -values.real))  # descending real, then imaginary part
            assert np.array_equal(bits(pair.values), bits(values[freq]))
            assert np.array_equal(bits(pair.vectors), bits(numkit._normalize_columns(vectors)[:, freq]))

    def test_repeated_circulant_spectra_are_still_refused(self):
        ring = build(GraphKind.RING, 8).adjacency
        for a in (ring + ring.T, np.zeros((8, 8))):  # the undirected ring; the zero matrix
            with pytest.raises(RepeatedEigenvaluesError):
                basis_from_graph(Graph(a))


# ---------------------------------------------------------------------------
# which frequencies coincide: one sweep, against the N^2 distance matrix


def _coincident_brute(values, tol):
    """The reference: every pairwise distance at once, in an N x N matrix."""
    cut = tol * float(np.max(np.abs(values), initial=0.0))
    diff = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(diff, np.inf)
    return float(diff.min(initial=np.inf)), cut, np.argwhere(np.triu(diff <= cut, 1))


def _spectrum(rng, n, kind):
    if kind == "ties":
        return (rng.integers(-3, 3, size=n) + 1j * rng.integers(-3, 3, size=n)).astype(complex)
    if kind == "equal_real":  # a skew-symmetric shift's spectrum, shifted
        return 0.5 + 1j * rng.normal(size=n)
    if kind == "conjugate":  # a real shift's: exact conjugate pairs and real values
        half = rng.normal(size=n // 2) + 1j * rng.normal(size=n // 2)
        return np.concatenate([half, half.conj(), rng.normal(size=n % 2)])
    if kind == "circle":
        return np.exp(2j * np.pi * np.arange(n) / max(n, 1))
    return rng.normal(size=n) + 1j * rng.normal(size=n)


class TestCoincident:
    @settings(deadline=None, derandomize=True, database=None, max_examples=200)
    @given(seed=st.integers(0, 2**16), n=st.sampled_from(range(41)),
           kind=st.sampled_from(["generic", "ties", "equal_real", "conjugate", "circle"]),
           exponent=st.integers(-300, 300), tol=st.sampled_from([numkit.GAP_TOL, 0.0, 0.3]))
    def test_equals_the_distance_matrix_bit_for_bit(self, seed, n, kind, exponent, tol):
        rng = np.random.default_rng(seed)
        values = _spectrum(rng, n, kind) * 10.0 ** exponent
        rng.shuffle(values)
        gap, cut, pairs = numkit._coincident(values, tol)
        want_gap, want_cut, want_pairs = _coincident_brute(values, tol)
        assert (gap, cut) == (want_gap, want_cut)
        assert pairs.shape == want_pairs.shape and np.array_equal(pairs, want_pairs)

    def test_peaks_below_one_megabyte_at_3000_frequencies(self):
        # the N x N form, the reference above, peaks at about 216 MB here
        values = np.array([1.0, 1.0j]) @ np.random.default_rng(5).normal(size=(2, 3000))
        tracemalloc.start()
        try:
            numkit._coincident(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


# ---------------------------------------------------------------------------
# intake: a complex128 array in C order is kept, and no routine writes into an array it is handed


def _handed(seed=12, n=12):
    """A random n x n array as float64 and as complex128, in C and in Fortran order, at the scales 1 and
    2**+-500, past the 2**+-400 beyond which ``eig``, ``_diagonalize`` and the elimination loop rescale."""
    re, im = np.random.default_rng(seed).normal(size=(2, n, n))
    for dtype, m in (("float64", re), ("complex128", re + 1j * im)):
        for order in "CF":
            for e in (0, 500, -500):
                yield pytest.param(np.array(m * 2.0 ** e, order=order), id=f"{dtype}-{order}-2^{e}")


def _routines(a):
    """``(name, call, operands)`` for each routine handed ``a`` or a block of it."""
    b = a[:, ::-1].copy(order="K")
    zero_lead = a[:6].copy(order="K")
    zero_lead[:, 0] = 0  # a singular leading block: the elimination loop runs
    return [("eig", eig, (a,)), ("solve, as a", solve, (a, b)), ("solve, as b", solve, (b, a)),
            ("row_reduce, proved", row_reduce, (a[:6],)), ("row_reduce, loop", row_reduce, (zero_lead,)),
            ("basis_from_graph", lambda m: basis_from_graph(Graph(m)), (a,))]


@pytest.mark.parametrize("a", _handed())
def test_no_routine_writes_into_an_array_it_is_handed(a):
    for name, call, operands in _routines(a):
        before = [bits(m).copy() for m in operands]
        call(*operands)
        assert all(np.array_equal(bits(m), was) for m, was in zip(operands, before)), name


@pytest.mark.parametrize("dtype, order, kept", [(np.complex128, "C", True), (np.complex128, "F", False),
                                                (np.float64, "C", False), (np.float64, "F", False)])
def test_a_graph_keeps_a_complex128_array_in_c_order(dtype, order, kept):
    a = np.array(np.random.default_rng(12).normal(size=(12, 12)), dtype=dtype, order=order)
    assert np.shares_memory(Graph(a).adjacency, a) is kept

"""Every numerical cut: one statement in ``numkit``'s table, a verdict on each
side of its boundary, and no verdict that depends on the scale of a graph or
a signal.

Each boundary test puts the guarded quantity at 0.9 and at 1.1 times its cut,
at scales from 1e-3 to 1e3, where an absolute cut or a ``max(1, .)`` floor
would give a different verdict at one end.
"""

import ast
import dataclasses
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsptk import (
    BadSizeError,
    BandSpec,
    Domain,
    Graph,
    GraphKind,
    GraphSignal,
    GsptkError,
    ImpulseKind,
    InfeasibleError,
    NonFiniteError,
    NotBandlimitedError,
    ReconstructionMismatchError,
    RepeatedEigenvaluesError,
    SingularMatrixError,
    SpectralBasis,
    band_project,
    basis_explicit,
    basis_from_graph,
    build,
    bundled_basis,
    dft_basis,
    fit_filter,
    read_plan,
    recovery_block,
    spectral_plan,
    structural_equal,
    write_graph,
    write_plan,
    write_signal,
)
from gsptk import numkit
from gsptk.cli import main
from gsptk.numkit import _check_close
from gsptk.sampling import _invertible
from gsptk.spectral import save_basis

from util import er_digraph, forced_verdicts, random_basis_graph

SRC = Path(numkit.__file__).parent
SCALES = (1e-3, 1.0, 1e3)
SIDES = ((0.9, True), (1.1, False))  # (share of the cut, whether that is at or below the cut)


def close_pair(gap, scale=1.0):
    """diag(1, 1 + gap, 2) times ``scale``: its gap cut is GAP_TOL * 2 * scale."""
    return Graph(scale * np.diag([1.0, 1.0 + gap, 2.0]))


def _outcome(call):
    try:
        return call()
    except GsptkError as exc:
        return exc


def _verdict(call):
    out = _outcome(call)
    return type(out).__name__ if isinstance(out, GsptkError) else "ok"


def cli(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# the table


def _table() -> list[str]:
    tree = ast.parse((SRC / "numkit.py").read_text())
    return [
        node.targets[0].id
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id.isupper()
        and isinstance(node.value, ast.Constant)
    ]


def _reads() -> set[str]:
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_constant_in_the_table_is_read():
    table = _table()
    assert "PIVOT_TOL" in table and len(table) <= 7, table
    assert sorted(set(table) - _reads()) == []


# ---------------------------------------------------------------------------
# the gap cut: GAP_TOL * max|lam|, the same in the library and the CLI


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("share, refused", SIDES)
def test_the_gap_cut_is_relative_to_the_largest_frequency(scale, share, refused):
    graph = close_pair(share * numkit.GAP_TOL * 2, scale)
    if refused:
        with pytest.raises(RepeatedEigenvaluesError):
            basis_from_graph(graph)
    else:
        assert basis_from_graph(graph).n == 3


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("share, distinct", ((0.9, False), (1.1, True)))
def test_fit_filter_states_the_same_gap_cut(scale, share, distinct):
    # an explicit basis may hold a close pair; a response that differs on it is refused only
    # where the pair counts as repeated (the flat delta has no zero entry to refuse first)
    lam = scale * np.array([1.0, 1.0 + share * numkit.GAP_TOL * 2, 2.0])
    basis = SpectralBasis(np.eye(3), np.eye(3), lam)
    target = GraphSignal(np.array([1.0, 2.0, 3.0]), Domain.SPECTRAL)
    if distinct:
        fit_filter(target, ImpulseKind.SPECTRAL_FLAT, basis)
    else:
        with pytest.raises(SingularMatrixError, match="repeated eigenvalues"):
            fit_filter(target, ImpulseKind.SPECTRAL_FLAT, basis)


@pytest.mark.parametrize(
    "gap, scale, code",
    [(5e-9, 1.0, 2), (5e-7, 1.0, 0), (5e-7, 1e-3, 0)],
)
def test_the_cli_and_the_library_agree_on_repeated_frequencies(tmp_path, capsys, gap, scale, code):
    graph = close_pair(gap, scale)
    write_graph(graph, tmp_path / "g.json")
    write_signal(GraphSignal(np.array([1.0, 2.0, 3.0]), Domain.VERTEX), tmp_path / "x.json")
    for argv in (
        ["gft", tmp_path / "g.json", tmp_path / "x.json", "--out", tmp_path / "xhat.json"],
        ["sample", tmp_path / "g.json", tmp_path / "x.json", "--domain", "vertex",
         "--band", "all", "--out", tmp_path / "run"],
    ):
        assert cli(*argv) == code
        if code:
            assert capsys.readouterr().err.startswith("error: repeated eigenvalues")
    assert _verdict(lambda: basis_from_graph(graph)) == (
        "RepeatedEigenvaluesError" if code else "ok"
    )


@pytest.mark.parametrize("tol, code", (("2.4e-9", 0), ("2.6e-9", 2)))
def test_tol_sets_the_gap_cut(tmp_path, tol, code):
    # the gap 5e-9 against the cut tol * max|lam| = tol * 2
    write_graph(close_pair(5e-9), tmp_path / "g.json")
    write_signal(GraphSignal(np.array([1.0, 2.0, 3.0]), Domain.VERTEX), tmp_path / "x.json")
    assert cli("--tol", tol, "gft", tmp_path / "g.json", tmp_path / "x.json",
               "--out", tmp_path / "xhat.json") == code


@pytest.mark.parametrize("tol", ("nan", "-1", "inf"))
@pytest.mark.parametrize("a", (np.diag([1.0, 1.0, 2.0]), np.array([[0, 1, 0], [0, 0, 0], [0, 0, 1.0]])),
                         ids=("diagonal", "jordan"))
def test_tol_must_be_finite_and_nonnegative(tmp_path, capsys, a, tol):
    # both shifts repeat an eigenvalue; the Jordan block has no eigenbasis
    with pytest.raises(BadSizeError, match="tol must be finite and >= 0"):
        basis_from_graph(Graph(a), tol=float(tol))
    write_graph(Graph(a), tmp_path / "g.json")
    write_signal(GraphSignal(np.array([1.0, 2.0, 3.0]), Domain.VERTEX), tmp_path / "x.json")
    assert cli("--tol", tol, "gft", tmp_path / "g.json", tmp_path / "x.json",
               "--out", tmp_path / "xhat.json") == 2
    assert capsys.readouterr().err == f"error: tol must be finite and >= 0, got {float(tol)}\n"
    assert not (tmp_path / "xhat.json").exists()


# ---------------------------------------------------------------------------
# the band guard: rel * max|xhat|


@pytest.mark.parametrize("scale", SCALES + (1e-12,))
@pytest.mark.parametrize("share, accepted", SIDES)
def test_the_band_guard_is_relative_to_the_largest_coefficient(scale, share, accepted):
    xhat = scale * np.array([1.0, -2.0, share * numkit.BAND_GUARD_REL * 2, 0.0])
    signal = GraphSignal(xhat, Domain.SPECTRAL)
    if accepted:
        assert np.array_equal(band_project(signal, BandSpec((0, 1))), xhat[:2])
    else:
        with pytest.raises(NotBandlimitedError):
            band_project(signal, BandSpec((0, 1)))


@pytest.mark.parametrize("scale", (1e-12, 1.0))
@pytest.mark.parametrize("share, code", ((0.9, 0), (1.1, 2)))
def test_sample_guards_the_band_at_band_guard_rel_whatever_tol_says(tmp_path, scale, share, code):
    graph = build(GraphKind.EXAMPLE4, 4)
    write_graph(graph, tmp_path / "g.json")
    save_basis(bundled_basis("example4", graph), tmp_path / "basis.json")
    xhat = scale * np.array([1.0, 2.0, share * numkit.BAND_GUARD_REL * 2, 0.0])
    write_signal(GraphSignal(xhat, Domain.SPECTRAL), tmp_path / "xhat.json")
    for tol in ("1e-10", "1e-1"):  # --tol sets no floor under the guard
        assert cli("--tol", tol, "sample", tmp_path / "g.json", tmp_path / "xhat.json",
                   "--domain", "vertex", "--band", "0,1", "--basis", tmp_path / "basis.json",
                   "--out", tmp_path / "run") == code


# ---------------------------------------------------------------------------
# invertible blocks: smallest singular value above PIVOT_TOL * max|whole|


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("share, singular", SIDES)
def test_a_block_is_invertible_above_pivot_tol_of_what_it_is_cut_from(scale, share, singular):
    whole = scale * np.diag([10.0, 1.0, share * numkit.PIVOT_TOL * 10])
    block = whole[1:, 1:]
    if singular:
        with pytest.raises(InfeasibleError, match="smallest singular value"):
            _invertible(block, whole, "whole")
    else:
        cond = _invertible(block, whole, "whole")
        assert cond == pytest.approx(1 / (share * numkit.PIVOT_TOL * 10))


def test_recovery_block_keeps_the_sampled_rows_only_when_their_block_is_invertible():
    # band (0, 1) on the 4-cycle: the rows at nodes (0, 2) have a singular block
    basis = dft_basis(4)
    rows, _ = recovery_block(basis, [1, 0, 1, 0], BandSpec((0, 1)))
    assert rows == (0, 1)
    rows, _ = recovery_block(basis, [1, 0, 0, 1], BandSpec((0, 1)))
    assert rows == (0, 3)


# ---------------------------------------------------------------------------
# zero entries: at or below PIVOT_TOL * max|v|


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("share, zero", SIDES)
def test_y0_is_zero_relative_to_its_largest_entry(scale, share, zero):
    y0 = scale * np.array([1.0, share * numkit.PIVOT_TOL, 1.0])
    gft = np.eye(3, dtype=complex)
    gft[:, 0] = y0
    lam = np.array([3.0, 2.0, 1.0])
    basis = SpectralBasis(gft, np.eye(3), lam)
    target = GraphSignal(np.ones(3), Domain.VERTEX)
    if zero:
        with pytest.raises(SingularMatrixError, match=r"min \|y0\|"):
            fit_filter(target, ImpulseKind.VERTEX_IMPULSIVE, basis)
    else:
        fit_filter(target, ImpulseKind.VERTEX_IMPULSIVE, basis)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("share, zero", SIDES)
def test_a_response_splits_a_repeated_eigenvalue_relative_to_its_largest_entry(scale, share, zero):
    # the eigenvalue 1 is repeated; the response differs on it by share * the
    # zero cut, PIVOT_TOL * max|resp| with max|resp| = 2 * scale
    lam = scale * np.array([1.0, 1.0, 2.0])
    basis = SpectralBasis(np.eye(3, dtype=complex), np.eye(3, dtype=complex), lam)
    resp = scale * np.array([1.0, 1.0 + 2 * share * numkit.PIVOT_TOL, 2.0])
    target = GraphSignal(resp / np.sqrt(3), Domain.SPECTRAL)  # the flat delta's transform is 1/sqrt(3)
    if zero:
        fit_filter(target, ImpulseKind.SPECTRAL_FLAT, basis)
    else:
        with pytest.raises(SingularMatrixError, match="repeated eigenvalues"):
            fit_filter(target, ImpulseKind.SPECTRAL_FLAT, basis)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("share, zero", SIDES)
def test_an_edge_is_nonzero_relative_to_its_matrix(scale, share, zero):
    m = scale * np.array([[1.0, share * numkit.PIVOT_TOL], [0.0, 1.0]])
    assert structural_equal(m, np.eye(2)) is zero


# ---------------------------------------------------------------------------
# reconstruction: tol * max|A|, each basis kind with its own constant


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("share, fits", SIDES)
@pytest.mark.parametrize("tol", (numkit.IDENTITY_TOL, numkit.EXPLICIT_RECON_TOL))
def test_a_basis_reconstructs_the_shift_relative_to_max_abs_a(scale, share, fits, tol):
    # the basis (I, I, lam) misses one entry of A by share * tol * max|A|
    lam = scale * np.array([2.0, 1.0, -1.0])
    a = np.diag(lam)
    a[0, 1] = share * tol * 2 * scale
    want = "ok" if fits else "ReconstructionMismatchError"
    assert _verdict(lambda: _check_close(np.diag(lam), a, tol, "basis")) == want
    if tol == numkit.EXPLICIT_RECON_TOL:
        assert _verdict(lambda: basis_explicit(np.eye(3), lam, Graph(a))) == want


@pytest.mark.parametrize("m, entry", [(0, (0, 0)), (1, (0, 0)), (1, (0, 2)), (1, (2, 1))],
                         ids=["complex", "real-column", "pair-column", "pair-row"])
def test_a_nan_error_is_refused(m, entry):
    # NaN compares false with every limit, so the check asks whether the error is within it, and a
    # NaN in any part of the pair form (m pairs in the last 2m rows and columns) reaches the maximum
    got = np.eye(3)
    got[entry] = np.nan
    assert _verdict(lambda: _check_close(got, np.eye(3), numkit.IDENTITY_TOL, "basis", m)) == (
        "ReconstructionMismatchError")


# ---------------------------------------------------------------------------
# scale invariance as a property


def _planted_graph(seed, n, share, scale):
    """Q diag(lam) Q^T with an orthogonal Q and one pair of frequencies
    ``share`` times the gap cut apart; the others are well separated."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.arange(1.0, n) * rng.uniform(0.3, 1.5)
    lam = np.append(lam, lam[0] + share * numkit.GAP_TOL * lam[-1])
    return Graph(scale * (q @ np.diag(lam) @ q.T))


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 6),
    share=st.sampled_from([0.5, 0.9, 1.1, 2.0]),
    c=st.floats(1e-3, 1e3),
    band_share=st.sampled_from([0.5, 0.9, 1.1, 2.0]),
)
def test_scaling_a_graph_or_a_signal_changes_no_verdict(seed, n, share, c, band_share):
    # each planted quantity sits at least 10% from its cut, far beyond the
    # rounding that scaling by c brings, so each verdict is also known
    g1, gc = _planted_graph(seed, n, share, 1.0), _planted_graph(seed, n, share, c)
    verdict = _verdict(lambda: basis_from_graph(g1))
    assert _verdict(lambda: basis_from_graph(gc)) == verdict
    assert verdict == ("ok" if share > 1 else "RepeatedEigenvaluesError")

    rng = np.random.default_rng(seed)
    xhat = rng.normal(size=n) + 1j * rng.normal(size=n)
    xhat[-1] = band_share * numkit.BAND_GUARD_REL * np.max(np.abs(xhat[:-1]))
    band = BandSpec(tuple(range(n - 1)))
    guard = [_verdict(lambda: band_project(GraphSignal(s * xhat, Domain.SPECTRAL), band))
             for s in (1.0, c)]
    assert guard[1] == guard[0]
    assert guard[0] == ("ok" if band_share < 1 else "NotBandlimitedError")

    if verdict == "ok":
        delta = np.zeros(n, dtype=int)
        delta[rng.permutation(n)[: n // 2]] = 1
        half = BandSpec(tuple(range(n // 2)))
        assert (forced_verdicts(basis_from_graph(gc), half, delta)
                == forced_verdicts(basis_from_graph(g1), half, delta))


@pytest.mark.parametrize("e", (-300, -200, -139, 139, 200, 300))
def test_a_computed_basis_has_the_same_verdict_at_every_scale(e):
    # LAPACK scales a matrix whose largest entry lies outside about [6.7e-139, 1.5e138] itself and
    # returns the eigenvalues of the scaled one; numkit scales such a shift by a power of two first
    graph = random_basis_graph(np.random.default_rng(3), 8)[0]
    a = graph.adjacency * 10.0 ** e
    want = basis_from_graph(graph)
    got = basis_from_graph(Graph(a))
    for lam in (got.lam, numkit.eig(a).values):
        assert np.max(np.abs(lam / 10.0 ** e - want.lam)) <= 1e-12 * np.max(np.abs(want.lam))


def test_the_largest_floats_give_their_frequencies():
    # +-sqrt(2) * 1e308; unscaled, LAPACK returned +-2.1e138 and the row sums of |A| overflowed
    a = np.array([[1e308, 1e308], [1e308, -1e308]])
    lam = basis_from_graph(Graph(a)).lam
    assert np.max(np.abs(lam - np.sqrt(2) * np.array([1e308, -1e308]))) <= 1e-15 * np.sqrt(2) * 1e308
    with pytest.raises(NonFiniteError, match="lam scaled back"):  # its frequency 4e308 is beyond float64
        numkit.eig(np.full((4, 4), 1e308))


# ---------------------------------------------------------------------------
# values: a cut below lies between a planted fault about 10x above it, which is
# refused, and a legitimate quantity about 100x below it, which passes; the
# numbers are literals, so moving the cut 1000-fold either way fails here


def _er8():
    """An 8-node ER digraph; cond(W) = 9.6, and both basis checks read about 3e-15."""
    return er_digraph(np.random.default_rng(1), 8)


@pytest.mark.parametrize("share, refused", [(1e-7, True), (1e-10, False)])
@pytest.mark.parametrize("check, what", [("identity", "deviates from the identity"),
                                         ("shift", "does not reconstruct the shift")])
def test_the_basis_checks_refuse_1e_7_and_pass_1e_10(check, what, share, refused):
    # identity: the LU inverse of W scaled by 1 + share misses I by share; shift: the eigenbasis of A
    # moved by share * max|A| in one entry has an exact inverse and misses A by share * max|A|
    solve, eig = numkit.solve, numkit.eig
    moved = np.zeros((8, 8))
    moved[0, 1] = share
    if check == "identity":
        planted = mock.patch.object(numkit, "solve", lambda w, b: solve(w, b) * (1 + share))
    else:
        planted = mock.patch.object(numkit, "eig", lambda a: eig(a + moved * np.abs(a).max()))
    with planted:
        out = _outcome(lambda: basis_from_graph(_er8()))
    if refused:
        assert isinstance(out, ReconstructionMismatchError) and what in str(out)
    else:
        assert isinstance(out, SpectralBasis)


@pytest.mark.parametrize("share, refused", [(2e-7, True), (2e-10, False)])
def test_read_plan_with_a_graph_refuses_1e_7_and_passes_1e_10(tmp_path, share, refused):
    # S scaled by 1 + share: the invariance residual is 0.45 * share * ||A||_inf * ||R||_inf
    graph = _er8()
    plan = spectral_plan(basis_from_graph(graph), BandSpec((0, 1, 2, 3)))
    write_plan(dataclasses.replace(plan, S=plan.S * (1 + share)), tmp_path / "p.plan.json")
    want = "ReconstructionMismatchError" if refused else "ok"
    assert _verdict(lambda: read_plan(tmp_path / "p.plan.json", graph)) == want


@pytest.mark.parametrize("share, refused", [(1e-5, True), (1e-8, False)])
def test_an_explicit_basis_is_refused_at_1e_5_and_passes_at_1e_8(share, refused):
    # gft = I + 3 share e_0 e_1^T on diag(1, 2, 3): its inverse is exactly I - 3 share e_0 e_1^T, and
    # the basis misses A in entry (0, 1) only, by 3 share = share * max|A|
    gft = np.eye(3)
    gft[0, 1] = 3 * share
    want = "ReconstructionMismatchError" if refused else "ok"
    assert _verdict(lambda: basis_explicit(gft, [1.0, 2.0, 3.0], Graph(np.diag([1.0, 2.0, 3.0])))) == want


@pytest.mark.parametrize("share, leads", [(1e-7, True), (1e-10, False)])
def test_an_entry_sets_the_phase_at_1e_7_of_its_column_and_not_at_1e_10(share, leads):
    v = np.array([[share * np.exp(1j)], [np.exp(2j)], [0.5j]])
    got = numkit._normalize_columns(v)[:, 0]
    lead = 0 if leads else 1
    assert got[lead].imag == 0 < got[lead].real
    assert got[1 - lead].imag != 0

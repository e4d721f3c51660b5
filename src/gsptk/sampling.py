"""Sampling-set selection and perfect recovery of bandlimited graph signals.

Two routes choose a sampling set for a signal whose spectrum is supported
on a band of K indices.

Vertex route: the out-of-band rows of the GFT annihilate the signal; the
pivot pattern of Gauss elimination of that (N-K) x N block designates K free
variables (the sampling set).

Spectral route: sampling in the vertex domain is spectral filtering by
P(M) = gft diag(delta) igft. Choosing K linearly independent rows of the
band columns of the inverse GFT guarantees the band block P(M)_K has K
linearly independent rows; that K x K block ``pmkk`` is kept as a diagnostic.

For a given sampling set both routes recover through the same linear map
(the interpolation operator of Chen, Varma, Sandryhaila & Kovacevic, IEEE
TSP 2015): the (N-K) x K block ``S`` with ``x[dropped] = S @ x[kept]``,
solved from the out-of-band GFT rows. Every plan carries ``S``, plan files
store it, and recovery is one matrix multiply and a scatter.

Both selections use deterministic Gauss pivoting (largest magnitude, lowest
index) so plans are reproducible; a caller-forced sampling indicator is
accepted for reproducing published selections.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import (
    DimensionMismatchError,
    InfeasibleError,
    NotBandlimitedError,
    ParseError,
    ReconstructionMismatchError,
    SizeMismatchError,
)
from .graphs import (
    Domain,
    Graph,
    GraphSignal,
    _from_packed,
    _from_pairs,
    _packed,
    _read_json,
    _write_json,
)
from .spectral import SpectralBasis

__all__ = [
    "BandSpec",
    "SamplingPlan",
    "band_project",
    "vertex_plan",
    "vertex_recover",
    "spectral_plan",
    "spectral_recover",
    "sampling_operator",
    "sample",
    "upsample",
    "plan_equivalent",
    "write_plan",
    "read_plan",
]


@dataclass(frozen=True)
class BandSpec:
    """Ascending set of spectral indices carrying the signal's support."""

    support: tuple[int, ...]

    def __post_init__(self):
        try:  # operator.index, not int(), so that 0.7 is refused, not truncated
            sup = tuple(operator.index(i) for i in self.support)
        except TypeError as exc:
            raise DimensionMismatchError(f"band indices must be integers: {exc}") from None
        if any(isinstance(i, bool) for i in self.support):  # True == 1, but is no index
            raise DimensionMismatchError("band indices must be integers, not booleans")
        if len(sup) == 0:
            raise DimensionMismatchError("band support must be nonempty")
        if sorted(set(sup)) != list(sup):
            raise DimensionMismatchError("band support must be strictly ascending and unique")
        if sup[0] < 0:
            raise DimensionMismatchError("band indices must be nonnegative")
        object.__setattr__(self, "support", sup)

    @property
    def k(self) -> int:
        return len(self.support)

    def complement(self, n: int) -> tuple[int, ...]:
        inside = set(self.support)
        return tuple(i for i in range(n) if i not in inside)


@dataclass(frozen=True)
class SamplingPlan:
    """A sampling indicator plus the map that recovers the unsampled nodes.

    ``S`` is (N-K) x K: the samples at the free (kept) nodes, in ascending
    index order, times ``S`` give the values at the pivot (dropped) nodes.
    ``cond`` is a diagnostic: the condition number of the out-of-band block
    at the dropped nodes (vertex plans) or of ``pmkk`` (spectral plans). A
    spectral plan built in memory also carries the invertible band block
    ``pmkk`` of P(M) with the ``selected_rows`` it was cut from.
    """

    domain: Domain
    delta: np.ndarray
    band: BandSpec
    S: np.ndarray
    cond: float
    selected_rows: tuple[int, ...] = ()
    pmkk: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.delta.shape[0]

    @property
    def k(self) -> int:
        return self.band.k

    @property
    def free_idx(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.delta))

    @property
    def pivot_idx(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.delta == 0))


def band_project(signal: GraphSignal, band: BandSpec, tol: float = numkit.BAND_TOL) -> np.ndarray:
    """Extract the K in-band entries, verifying the rest are (near) zero."""
    xhat = signal.require(Domain.SPECTRAL)
    _check_band(band, xhat.shape[0])
    outside = band.complement(xhat.shape[0])
    worst = float(np.max(np.abs(xhat[list(outside)]))) if outside else 0.0
    if worst > tol:
        raise NotBandlimitedError(worst, tol)
    return xhat[list(band.support)]


def _check_band(band: BandSpec, n: int) -> None:
    if band.support[-1] >= n:
        raise DimensionMismatchError(
            f"band index {band.support[-1]} out of range for size {n}"
        )


def _recovery_map(g_out: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """The block S with ``x[delta == 0] = S @ x[delta == 1]`` for every signal
    that the out-of-band GFT rows ``g_out`` annihilate."""
    kept = delta != 0
    try:
        return -numkit.solve(g_out[:, ~kept], g_out[:, kept])
    except numkit.SingularMatrixError as exc:
        raise InfeasibleError(f"sampling set is not valid for this band: {exc}") from exc


def _indicator(delta, n: int, k: int) -> np.ndarray:
    """``delta`` as an int64 vector; SizeMismatchError unless it is a 0/1
    vector of length ``n`` with ``k`` ones, one per band index."""
    d = np.asarray(delta)
    if d.shape != (n,) or not np.isin(d, (0, 1)).all() or np.count_nonzero(d) != k:
        raise SizeMismatchError(f"delta must be a 0/1 vector of length {n} with {k} ones")
    return (d != 0).astype(np.int64)


def _plan(basis: SpectralBasis, band: BandSpec, forced_delta, select=None):
    """The steps both routes share: the checked indicator (forced, or the
    nodes ``select(g_out)`` keeps), the out-of-band GFT rows ``g_out`` and the
    recovery map ``S``, whose InfeasibleError is the one validity test."""
    n = basis.n
    _check_band(band, n)
    g_out = basis.gft[list(band.complement(n)), :]
    if forced_delta is None:
        forced_delta = np.isin(np.arange(n), select(g_out))
    delta = _indicator(forced_delta, n, band.k)
    return delta, g_out, _recovery_map(g_out, delta)


def _full_rank(m: np.ndarray, what: str) -> numkit.RowReduction:
    """The Gauss pivot pattern of ``m``; InfeasibleError unless its rows are independent."""
    red = numkit.row_reduce(m)
    if red.rank < m.shape[0]:
        raise InfeasibleError(f"{what} are rank deficient ({red.rank} < {m.shape[0]})")
    return red


def vertex_plan(basis: SpectralBasis, band: BandSpec, forced_delta=None) -> SamplingPlan:
    """Choose a vertex-domain sampling set and its pivot-from-free map.

    Eliminates the out-of-band GFT rows; the free columns become the
    sampling set and ``S`` reads off each pivot variable as a combination of
    free variables. With a full band (K = N) every node is kept and ``S`` is
    empty. A forced indicator is honored when its complement indexes an
    invertible square block of the out-of-band rows.
    """
    delta, g_out, s = _plan(basis, band, forced_delta, lambda g: _full_rank(
        g, "out-of-band GFT rows").free_cols)
    cond = float(np.linalg.cond(g_out[:, delta == 0])) if g_out.shape[0] else 1.0
    return SamplingPlan(domain=Domain.VERTEX, delta=delta, band=band, S=s, cond=cond)


def _recover(plan: SamplingPlan, x_s) -> GraphSignal:
    x_s = numkit.as_cvector(x_s, "samples")
    if x_s.shape[0] != plan.k:
        raise SizeMismatchError(f"expected {plan.k} samples, got {x_s.shape[0]}")
    kept = plan.delta != 0
    x = np.empty(plan.n, dtype=np.complex128)
    x[kept] = x_s
    x[~kept] = plan.S @ x_s
    return GraphSignal(x, Domain.VERTEX)


def vertex_recover(plan: SamplingPlan, x_s) -> GraphSignal:
    """Rebuild the full vertex signal from its K kept samples.

    ``x_s`` lists the samples at the plan's free indices in ascending index
    order; pivot entries are S @ x_s, scattered back into place.
    """
    return _recover(plan, x_s)


def sampling_operator(basis: SpectralBasis, delta) -> np.ndarray:
    """The spectral filter P(M) = gft @ diag(delta) @ igft of a 0/1 indicator."""
    d = np.asarray(delta, dtype=np.complex128)
    if d.shape != (basis.n,):
        raise DimensionMismatchError(f"delta must have length {basis.n}")
    return basis.gft @ (d[:, None] * basis.igft)


def spectral_plan(basis: SpectralBasis, band: BandSpec, forced_delta=None) -> SamplingPlan:
    """Choose a sampling set by picking K independent rows of the band
    columns of the inverse GFT, and precompute the invertible recovery block.

    Such rows always exist (the band columns have full column rank). The
    block rows of ``pmkk`` are taken at the sampled nodes themselves whenever
    that square block is invertible, falling back to deterministic Gauss
    pivoting on the band block of P(M) otherwise. A forced indicator is
    honored when its sampled nodes give independent rows.
    """
    delta, _, s = _plan(basis, band, forced_delta, lambda _: _full_rank(
        basis.igft[:, list(band.support)].T, "band columns of the inverse GFT").pivot_cols)
    pm_k = sampling_operator(basis, delta)[:, list(band.support)]
    rows = tuple(int(i) for i in np.flatnonzero(delta))
    if numkit.row_reduce(pm_k[list(rows), :]).rank < band.k:
        rows = numkit.row_reduce(pm_k.T).pivot_cols
    pmkk = pm_k[list(rows), :]
    return SamplingPlan(
        domain=Domain.SPECTRAL,
        delta=delta,
        band=band,
        S=s,
        cond=float(np.linalg.cond(pmkk)),
        selected_rows=rows,
        pmkk=pmkk,
    )


def spectral_recover(plan: SamplingPlan, x_s) -> GraphSignal:
    """Recover the vertex signal of a plan made by the spectral route.

    The same map as ``vertex_recover``: the in-band signal that matches the
    samples, which is what solving ``pmkk`` for the in-band spectrum of the
    zero-filled samples gives.
    """
    return _recover(plan, x_s)


def sample(signal: GraphSignal, delta) -> np.ndarray:
    """Decimate a vertex-domain signal: keep the entries where the indicator
    is one, in index order."""
    d = np.asarray(delta)
    x = signal.require(Domain.VERTEX)
    if d.shape != x.shape:
        raise SizeMismatchError("indicator and signal lengths differ")
    return x[d != 0]


def upsample(x_s, delta) -> GraphSignal:
    """Scatter samples back to the indicator's support, zero-filling the rest."""
    d = np.asarray(delta)
    x_s = numkit.as_cvector(x_s, "samples")
    idx = np.flatnonzero(d)
    if idx.shape[0] != x_s.shape[0]:
        raise SizeMismatchError(
            f"indicator keeps {idx.shape[0]} entries but {x_s.shape[0]} samples given"
        )
    x = np.zeros(d.shape[0], dtype=np.complex128)
    x[idx] = x_s
    return GraphSignal(x, Domain.VERTEX)


def plan_equivalent(basis: SpectralBasis, delta, band: BandSpec) -> dict:
    """Test one indicator against both selection rules.

    vertex_ok: the indicator makes a plan (its unsampled nodes index an
    invertible square block of the out-of-band GFT rows). spectral_ok: Gauss
    elimination finds its sampled nodes' rows of the band columns of the
    inverse GFT independent. The two verdicts agree for every indicator
    (complementary minors of a matrix and its inverse vanish together).
    """
    d = np.asarray(delta)
    try:
        _plan(basis, band, d)
        vertex_ok = True
    except InfeasibleError:  # raised only after d passed the indicator check
        vertex_ok = False
    keep = np.flatnonzero(d)
    spectral_ok = numkit.row_reduce(basis.igft[keep, :][:, list(band.support)]).rank == band.k
    return {"vertex_ok": vertex_ok, "spectral_ok": spectral_ok}


# ---------------------------------------------------------------------------
# plan file IO


PLAN_VERSION = 3


def write_plan(plan: SamplingPlan, path) -> None:
    doc = {
        "version": PLAN_VERSION,
        "domain": plan.domain.value,
        "delta": [int(v) for v in plan.delta],
        "band": list(plan.band.support),
        "S": _packed(plan.S),
        # NaN is not JSON: a version-1 plan's unknown cond is written as null
        "cond": plan.cond if math.isfinite(plan.cond) else None,
    }
    _write_json(path, doc)


def read_plan(path, graph: Graph | None = None) -> SamplingPlan:
    """Load and check a plan file; ParseError names what is malformed.

    Version 3 stores ``S`` as base64 of its little-endian complex128 bytes.
    Older files are read too: version 2 stores ``S`` as [re, im] pairs.
    Files without a ``version`` (version 1) hold ``S`` that way if they are
    vertex plans, and spectral ones get it from their stored ``gft``;
    neither recorded ``cond``, so it reads as NaN, which ``write_plan``
    stores as null. With ``graph``, raises ReconstructionMismatchError unless
    the range of the plan's recovery map is invariant under the graph's
    shift, as the span of the band's eigenvectors is.
    """
    doc = _read_json(path, ("domain", "delta", "band"))
    version = doc.get("version", 1)
    # a bool or a float is not a version, although True == 1 and 2.0 == 2
    if type(version) is not int or version not in (1, 2, PLAN_VERSION):
        raise ParseError(f"{path}: unsupported plan version {version!r}")
    old_spectral = version == 1 and doc["domain"] == Domain.SPECTRAL.value
    try:
        domain = Domain(doc["domain"])
        band = BandSpec(tuple(doc["band"]))
        entries = doc["delta"]
        # type(), not isinstance(): a JSON true is not the integer 1
        if not isinstance(entries, list) or any(type(v) is not int for v in entries):
            raise TypeError("delta must be a list of integers")
        delta = _indicator(entries, len(entries), band.k)
        _check_band(band, len(entries))
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{path}: malformed plan: {exc}") from exc
    n, k = delta.shape[0], band.k
    if old_spectral:
        gft = _from_pairs(doc.get("gft"), (n, n), f"{path}: gft")
        s = _recovery_map(gft[list(band.complement(n)), :], delta)
    elif version == PLAN_VERSION:
        s = _from_packed(doc.get("S"), (n - k, k), f"{path}: S")
    else:
        s = _from_pairs(doc.get("S"), (n - k, k), f"{path}: S")
    cond = doc.get("cond", "missing") if version > 1 else None
    if cond is None:
        cond = float("nan")
    elif type(cond) in (int, float) and math.isfinite(cond):
        cond = float(cond)
    else:
        raise ParseError(f"{path}: cond must be a finite number or null, got {cond!r}")
    plan = SamplingPlan(domain, delta, band, s, cond)
    if graph is not None:
        _check_invariant(plan, graph, path)
    return plan


def _check_invariant(plan: SamplingPlan, graph: Graph, path) -> None:
    if graph.n != plan.n:
        raise ReconstructionMismatchError(
            f"{path}: plan has {plan.n} nodes but the graph has {graph.n}"
        )
    kept = plan.delta != 0
    r = np.zeros((plan.n, plan.k), dtype=np.complex128)
    r[kept] = np.eye(plan.k)
    r[~kept] = plan.S
    ar = graph.adjacency @ r
    resid = np.linalg.norm(ar - r @ ar[kept], np.inf)
    limit = numkit.INVARIANCE_TOL * np.linalg.norm(graph.adjacency, np.inf) * np.linalg.norm(r, np.inf)
    if resid > limit:
        raise ReconstructionMismatchError(
            f"{path}: plan does not fit this graph: its band is not invariant under the "
            f"shift (residual {resid:.3e} > {limit:.3e})"
        )

"""Sampling-set selection and perfect recovery of bandlimited graph signals.

Two routes choose a sampling set for a signal whose spectrum is supported
on a band of K indices. Both work on one matrix, the N x K band columns
``vb`` of the inverse GFT, whose K independent rows are the sampling set.

Vertex route: the out-of-band rows of the GFT annihilate the signal; the
pivot pattern of Gauss elimination of that (N-K) x N block designates K free
variables (the sampling set). By matroid duality these are the last K
independent rows of ``vb``, found by Gauss elimination of the row-reversed
``vb`` transposed (see ``vertex_plan``).

Spectral route: sampling in the vertex domain is spectral filtering by
P(M) = gft diag(delta) igft. Choosing the first K linearly independent rows
of ``vb`` guarantees the band block P(M)_K has K linearly independent rows;
``recovery_block`` cuts that K x K block.

For a given sampling set both routes recover through the same linear map
(the interpolation operator of Chen, Varma, Sandryhaila & Kovacevic, IEEE
TSP 2015): the (N-K) x K block ``S = vb[dropped] @ vb[kept]^-1`` with
``x[dropped] = S @ x[kept]``. The routes differ only in their selection
rule, and recovery is one multiply and a scatter.

Both selections use deterministic Gauss pivoting (largest magnitude, lowest
index) so plans are reproducible; a caller-forced sampling indicator is
accepted for reproducing published selections. On a generic band that
pattern is the leading columns: the first K nodes kept by the spectral
route, the last K by the vertex route. ``numkit.row_reduce`` proves it from
the singular values of the leading block, and eliminates only when that
proof fails (dependent or nearly dependent leading rows of ``vb``).
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
    NonFiniteError,
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
    _packed,
    _read_json,
    _write_json,
)
from .spectral import SpectralBasis, _diag

__all__ = [
    "BandSpec",
    "SamplingPlan",
    "band_project",
    "vertex_plan",
    "vertex_recover",
    "spectral_plan",
    "spectral_recover",
    "sampling_operator",
    "recovery_block",
    "sample",
    "upsample",
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
    It is float64 when ``numkit._conjugate_pairs`` pairs the band's
    frequencies and columns (see ``_plan``), else complex128.
    ``cond`` is a diagnostic of either route: the 2-norm condition number of
    the block ``S`` is solved from, the kept nodes' rows of the band columns
    of the inverse GFT (1.0 for a full band). These five fields are what a
    plan file stores.
    """

    domain: Domain
    delta: np.ndarray
    band: BandSpec
    S: np.ndarray
    cond: float

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


def band_project(signal: GraphSignal, band: BandSpec) -> np.ndarray:
    """Extract the K in-band entries of ``xhat``; NotBandlimitedError when an
    out-of-band magnitude exceeds ``numkit.BAND_GUARD_REL * max|xhat|``."""
    xhat = signal.require(Domain.SPECTRAL)
    _check_band(band, xhat.shape[0])
    outside = band.complement(xhat.shape[0])
    worst = float(np.max(np.abs(xhat[list(outside)]), initial=0.0))
    limit = numkit.BAND_GUARD_REL * float(np.max(np.abs(xhat)))
    if worst > limit:
        raise NotBandlimitedError(worst, limit)
    return xhat[list(band.support)]


def _check_band(band: BandSpec, n: int) -> None:
    if band.support[-1] >= n:
        raise DimensionMismatchError(
            f"band index {band.support[-1]} out of range for size {n}"
        )


def _indicator(delta, n: int, k: int) -> np.ndarray:
    """``delta`` as an int64 vector; SizeMismatchError unless it is a 0/1
    vector of length ``n`` with ``k`` ones, one per band index."""
    d = np.asarray(delta)
    what = f"delta must be a 0/1 vector of length {n}"
    if d.shape != (n,):
        raise SizeMismatchError(f"{what}, got shape {d.shape}")
    bad = np.flatnonzero(~np.isin(d, (0, 1)))
    if bad.size:
        raise SizeMismatchError(f"{what}, got {d[bad[0]]} at entry {bad[0]}")
    if np.count_nonzero(d) != k:
        raise SizeMismatchError(f"{what} with {k} ones, got {np.count_nonzero(d)}")
    return (d != 0).astype(np.int64)


def _invertible(block: np.ndarray, whole: np.ndarray, what: str, sv=None) -> float:
    """The 2-norm condition number of ``block``, a nonempty square block cut
    from ``whole``; InfeasibleError unless its smallest singular value exceeds
    PIVOT_TOL * max|whole|. Every block sampling inverts. ``sv``: the block's
    singular values, descending, if the caller has them."""
    if sv is None:
        sv = np.linalg.svd(block, compute_uv=False)
    if not sv[-1] > numkit._zero_cut(whole):
        raise InfeasibleError(f"sampling set is not valid for this band: smallest singular value "
                              f"{sv[-1]:.3e} <= {numkit.PIVOT_TOL:.1e} * max|{what}|")
    return float(sv[0] / sv[-1])  # np.linalg.cond: the same ratio of the same SVD


def _plan(basis: SpectralBasis, band: BandSpec, forced_delta, domain: Domain) -> SamplingPlan:
    """The plan of either route, from the band columns ``vb`` of ``basis.igft``:
    the checked indicator (forced, or the K independent rows of ``vb``
    the route's greedy keeps) and the map ``S = vb[dropped] @ vb[kept]^-1``,
    with ``x[dropped] = S @ x[kept]`` for every signal in the band's span.
    InfeasibleError unless ``_invertible`` accepts the block ``vb[kept]``, the
    one test of the block; ``cond`` is its condition (1.0 when every node is
    kept and ``S`` is empty). The spectral route keeps the first independent
    rows of ``vb``, the vertex route the last; where ``row_reduce``'s proof
    chose them, its singular values are that block's.

    ``S`` is real (float64) when ``numkit._conjugate_pairs`` pairs the band's
    frequencies and columns: the span then holds the conjugate of each of its
    signals, so the exact map is real, and the real part of the computed one
    is no farther from it, entry by entry. Otherwise ``S`` is complex.
    """
    n = basis.n
    _check_band(band, n)
    vb = basis.igft[:, list(band.support)]
    sv = None
    if forced_delta is None:  # the vertex route's greedy runs from the last row up
        order = slice(None) if domain is Domain.SPECTRAL else slice(None, None, -1)
        red = _full_rank(vb[order].T, "band columns of the inverse GFT")
        forced_delta, sv = np.isin(np.arange(n), red.pivot_cols)[order], red.singular_values
    delta = _indicator(forced_delta, n, band.k)
    kept = delta != 0
    cond, s = 1.0, vb[:0]  # a full band keeps every node, and S is empty
    if not kept.all():
        block, rest = vb[kept], vb[~kept]
        cond = _invertible(block, vb, "band columns of the inverse GFT", sv)
        numkit._rescale(block, rest)  # the same S, with no pivot's reciprocal overflowing
        s = numkit._lu_solve(block.T, rest.T).T  # S @ vb[kept] = vb[dropped]
    if numkit._conjugate_pairs(basis.lam[list(band.support)], vb) is not None:
        s = s.real.copy()
    return SamplingPlan(domain, delta, band, s, cond)


def _full_rank(m: np.ndarray, what: str) -> numkit.RowReduction:
    """The Gauss pivot pattern of ``m``; InfeasibleError unless its rows are independent."""
    red = numkit.row_reduce(m)
    if len(red.pivot_cols) < m.shape[0]:
        raise InfeasibleError(f"{what} are rank deficient ({len(red.pivot_cols)} < {m.shape[0]})")
    return red


def vertex_plan(basis: SpectralBasis, band: BandSpec, forced_delta=None) -> SamplingPlan:
    """Choose a vertex-domain sampling set and its pivot-from-free map.

    The paper's rule keeps the free columns of Gauss elimination of the
    out-of-band GFT rows ``g_out``. Those are the last K independent rows of
    the band columns ``vb`` of the inverse GFT, which is how they are found:
    ``g_out @ vb = 0`` with ranks N-K and K, so by matroid duality the free
    set of the left-to-right greedy on the columns of ``g_out`` is the
    right-to-left greedy basis of the rows of ``vb``. ``S`` reads off each
    dropped node as a combination of the kept ones. With a full band (K = N)
    every node is kept and ``S`` is empty. A forced indicator is honored
    when its kept nodes give an invertible block of ``vb``.
    """
    return _plan(basis, band, forced_delta, Domain.VERTEX)


def _recover(plan: SamplingPlan, x_s) -> GraphSignal:
    x_s = numkit.as_cvector(x_s, "samples")
    if x_s.shape[0] != plan.k:
        raise SizeMismatchError(f"expected {plan.k} samples, got {x_s.shape[0]}")
    kept = plan.delta != 0
    x = np.empty(plan.n, dtype=np.complex128)
    x[kept] = x_s
    if plan.S.dtype == np.float64:  # a real S times the [re, im] rows of the samples
        x[~kept] = (plan.S @ x_s.view(np.float64).reshape(-1, 2)).view(np.complex128).ravel()
    else:
        x[~kept] = plan.S @ x_s
    return GraphSignal(x, Domain.VERTEX)


def vertex_recover(plan: SamplingPlan, x_s) -> GraphSignal:
    """Rebuild the full vertex signal from its K kept samples.

    ``x_s`` lists the samples at the plan's free indices in ascending index
    order; pivot entries are S @ x_s, scattered back into place.
    """
    return _recover(plan, x_s)


def sampling_operator(basis: SpectralBasis, delta) -> np.ndarray:
    """The spectral filter P(M) = gft @ diag(delta) @ igft of a 0/1 indicator
    (SizeMismatchError unless ``delta`` is a 0/1 vector of length N)."""
    return _diag(basis.dual, _indicator(delta, basis.n, np.count_nonzero(delta)))


def recovery_block(basis: SpectralBasis, delta, band: BandSpec) -> tuple[tuple[int, ...], np.ndarray]:
    """The paper's K x K recovery block P(M)_K of an indicator, with the rows
    of P(M) = ``sampling_operator(basis, delta)`` it keeps: the sampled nodes
    when ``_invertible`` accepts their band block, else the Gauss pivot rows
    of the band columns. It maps the in-band spectrum to those rows of the
    spectrum of the zero-filled samples."""
    _check_band(band, basis.n)
    delta = _indicator(delta, basis.n, band.k)
    pm_k = sampling_operator(basis, delta)[:, list(band.support)]
    rows = tuple(int(i) for i in np.flatnonzero(delta))
    try:
        _invertible(pm_k[list(rows), :], pm_k, "band columns of P(M)")
    except InfeasibleError:
        rows = _full_rank(pm_k.T, "band columns of P(M)").pivot_cols
    return rows, pm_k[list(rows), :]


def spectral_plan(basis: SpectralBasis, band: BandSpec, forced_delta=None) -> SamplingPlan:
    """Choose a sampling set by picking the first K independent rows of the
    band columns of the inverse GFT (such rows always exist), and make the
    plan ``vertex_plan`` makes for that indicator; ``recovery_block`` gives
    its K x K block of P(M). A forced indicator is honored when its sampled
    nodes give independent rows.
    """
    return _plan(basis, band, forced_delta, Domain.SPECTRAL)


def spectral_recover(plan: SamplingPlan, x_s) -> GraphSignal:
    """Recover the vertex signal of a plan made by the spectral route.

    The same map as ``vertex_recover``: the in-band signal that matches the
    samples, which is what solving ``recovery_block`` for the in-band
    spectrum of the zero-filled samples gives.
    """
    return _recover(plan, x_s)


def sample(signal: GraphSignal, delta) -> np.ndarray:
    """Decimate a vertex-domain signal: keep the entries, in index order, where
    ``delta``, a 0/1 vector as long as the signal (else SizeMismatchError), is one."""
    x = signal.require(Domain.VERTEX)
    return x[_indicator(delta, x.shape[0], np.count_nonzero(delta)) != 0]


def upsample(x_s, delta) -> GraphSignal:
    """Scatter samples back to the indicator's support, zero-filling the rest.
    SizeMismatchError unless ``delta`` is a 0/1 vector with one 1 per sample."""
    x_s = numkit.as_cvector(x_s, "samples")
    d = _indicator(delta, np.size(delta), x_s.shape[0])
    x = np.zeros(d.shape[0], dtype=np.complex128)
    x[d != 0] = x_s
    return GraphSignal(x, Domain.VERTEX)


# ---------------------------------------------------------------------------
# plan file IO


PLAN_VERSION = 4


def write_plan(plan: SamplingPlan, path) -> None:
    """Write a version-4 plan file: ``S`` as base64 of its little-endian
    float64 bytes when the plan's map is real, complex128 bytes otherwise.
    NonFiniteError, before anything is written, unless ``cond`` is finite."""
    if not math.isfinite(plan.cond):  # json.dumps would write the non-JSON token NaN or Infinity
        raise NonFiniteError(f"plan cond must be finite, got {plan.cond!r}")
    doc = {
        "version": PLAN_VERSION,
        "domain": plan.domain.value,
        "delta": [int(v) for v in plan.delta],
        "band": list(plan.band.support),
        "S": _packed(plan.S),
        "cond": plan.cond,
    }
    _write_json(path, doc)


def read_plan(path, graph: Graph | None = None) -> SamplingPlan:
    """Load and check a version-4 plan file; ParseError names what is
    malformed, a file of another version included (``sample --delta`` with
    its stored ``delta`` makes the same plan anew).

    ``S`` is base64 of its little-endian float64 bytes (8 per entry) when it
    is real, and of its complex128 bytes (16 per entry) otherwise; the length
    tells them apart, and an empty ``S`` reads as complex. With ``graph``,
    raises ReconstructionMismatchError unless the range of the plan's
    recovery map is invariant under the graph's shift, as the span of the
    band's eigenvectors is.
    """
    doc = _read_json(path, ("domain", "delta", "band"))
    version = doc.get("version", 1)  # the first layout had no version field
    # a bool or a float is not a version, although 4.0 == 4
    if type(version) is not int or version != PLAN_VERSION:
        raise ParseError(f"{path}: unsupported plan version {version!r}; this toolkit reads version "
                         f"{PLAN_VERSION}, and sample --delta with the stored delta makes the plan anew")
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
    s = _from_packed(doc.get("S"), (n - k, k), f"{path}: S")
    cond = doc.get("cond", "missing")
    if type(cond) not in (int, float) or not math.isfinite(cond):
        raise ParseError(f"{path}: cond must be a finite number, got {cond!r}")
    plan = SamplingPlan(domain, delta, band, s, float(cond))
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
    limit = numkit.IDENTITY_TOL * np.linalg.norm(graph.adjacency, np.inf) * np.linalg.norm(r, np.inf)
    if resid > limit:
        raise ReconstructionMismatchError(
            f"{path}: plan does not fit this graph: its band is not invariant under the "
            f"shift (residual {resid:.3e} > {limit:.3e})"
        )

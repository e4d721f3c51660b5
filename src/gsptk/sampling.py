"""Sampling-set selection and perfect recovery of bandlimited graph signals.

Two routes choose a sampling set for a signal whose spectrum is supported
on a band of K indices.

Vertex route: the out-of-band rows of the GFT annihilate the signal; Gauss-
Jordan elimination of that (N-K) x N block designates K free variables (the
sampling set).

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

import json
import math
from dataclasses import dataclass
from pathlib import Path

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
from .graphs import Domain, Graph, GraphSignal, _atomic_write
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
        sup = tuple(int(i) for i in self.support)
        if len(sup) == 0:
            raise ValueError("band support must be nonempty")
        if sorted(set(sup)) != list(sup):
            raise ValueError("band support must be strictly ascending and unique")
        if sup[0] < 0:
            raise ValueError("band indices must be nonnegative")
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


def band_project(signal: GraphSignal, band: BandSpec, tol: float = 1e-8) -> np.ndarray:
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


def _delta_from(idx, n: int) -> np.ndarray:
    delta = np.zeros(n, dtype=np.int64)
    delta[list(idx)] = 1
    return delta


def _recovery_map(g_out: np.ndarray, delta: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """The block S with ``x[delta == 0] = S @ x[delta == 1]`` for every signal
    that the out-of-band GFT rows ``g_out`` annihilate."""
    kept = delta != 0
    try:
        return -numkit.solve(g_out[:, ~kept], g_out[:, kept], tol)
    except numkit.SingularMatrixError as exc:
        raise InfeasibleError(f"sampling set is not valid for this band: {exc}") from exc


def _validate_forced_delta(forced_delta, n: int, k: int) -> tuple[int, ...]:
    d = np.asarray(forced_delta)
    if d.shape != (n,) or not np.all(np.isin(d, (0, 1))):
        raise SizeMismatchError(f"forced delta must be a 0/1 vector of length {n}")
    chosen = tuple(int(i) for i in np.flatnonzero(d))
    if len(chosen) != k:
        raise SizeMismatchError(
            f"forced delta selects {len(chosen)} nodes but the band has size {k}"
        )
    return chosen


def vertex_plan(
    basis: SpectralBasis, band: BandSpec, forced_delta=None, tol: float = 1e-10
) -> SamplingPlan:
    """Choose a vertex-domain sampling set and its pivot-from-free map.

    Row reduces the out-of-band GFT rows; the free columns become the
    sampling set and ``S`` reads off each pivot variable as a combination of
    free variables. With a full band (K = N) every node is kept and ``S`` is
    empty. A forced indicator is honored when its complement indexes an
    invertible square block of the out-of-band rows.
    """
    n = basis.n
    _check_band(band, n)
    k = band.k
    out = band.complement(n)
    g_out = basis.gft[list(out), :]
    if forced_delta is None:
        red = numkit.row_reduce(g_out, tol)
        if red.rank < n - k:
            raise InfeasibleError(
                f"out-of-band GFT rows are rank deficient ({red.rank} < {n - k})"
            )
        free_idx = red.free_cols
    else:
        free_idx = _validate_forced_delta(forced_delta, n, k)
    delta = _delta_from(free_idx, n)
    s = _recovery_map(g_out, delta, tol)
    cond = float(np.linalg.cond(g_out[:, delta == 0])) if n - k else 1.0
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


def spectral_plan(
    basis: SpectralBasis, band: BandSpec, forced_delta=None, tol: float = 1e-10
) -> SamplingPlan:
    """Choose a sampling set by picking K independent rows of the band
    columns of the inverse GFT, and precompute the invertible recovery block.

    Such rows always exist (the band columns have full column rank). The
    block rows of ``pmkk`` are taken at the sampled nodes themselves whenever
    that square block is invertible, falling back to deterministic Gauss
    pivoting on the band block of P(M) otherwise. A forced indicator is
    honored when its sampled nodes give independent rows.
    """
    n = basis.n
    _check_band(band, n)
    k = band.k
    band_cols = list(band.support)
    if forced_delta is None:
        red = numkit.row_reduce(basis.igft[:, band_cols].T, tol)
        chosen = red.pivot_cols
        if len(chosen) < k:
            raise InfeasibleError(
                f"band columns of the inverse GFT are rank deficient ({red.rank} < {k})"
            )
    else:
        chosen = _validate_forced_delta(forced_delta, n, k)
    delta = _delta_from(chosen, n)
    # independent kept rows of the band columns <=> an invertible dropped
    # block of the out-of-band rows (complementary minors of gft and igft)
    s = _recovery_map(basis.gft[list(band.complement(n)), :], delta, tol)
    pm_k = sampling_operator(basis, delta)[:, band_cols]
    rows = chosen
    if numkit.row_reduce(pm_k[list(rows), :], tol).rank < k:
        red = numkit.row_reduce(pm_k.T, tol)
        rows = red.pivot_cols
    pmkk = pm_k[list(rows), :]
    return SamplingPlan(
        domain=Domain.SPECTRAL,
        delta=delta,
        band=band,
        S=s,
        cond=float(np.linalg.cond(pmkk)),
        selected_rows=tuple(rows),
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
    """Decimate: keep the entries where the indicator is one, in index order."""
    d = np.asarray(delta)
    x = signal.values
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


def plan_equivalent(basis: SpectralBasis, delta, band: BandSpec, tol: float = 1e-10) -> dict:
    """Test one indicator against both selection rules.

    vertex_ok: the unsampled nodes index an invertible square block of the
    out-of-band GFT rows (valid free-variable choice). spectral_ok: the
    sampled nodes index independent rows of the band columns of the inverse
    GFT. The two verdicts agree for every indicator (complementary minors of
    a matrix and its inverse vanish together).
    """
    n = basis.n
    _check_band(band, n)
    d = np.asarray(delta)
    if d.shape != (n,):
        raise DimensionMismatchError(f"delta must have length {n}")
    keep = np.flatnonzero(d)
    drop = np.flatnonzero(d == 0)
    out = band.complement(n)
    k = band.k
    if len(keep) != k:
        raise DimensionMismatchError(
            f"indicator keeps {len(keep)} nodes but the band has size {k}"
        )
    if n - k == 0:
        vertex_ok = True
    else:
        block = basis.gft[list(out), :][:, drop]
        vertex_ok = numkit.row_reduce(block, tol).rank == n - k
    spectral_ok = (
        numkit.row_reduce(basis.igft[keep, :][:, list(band.support)], tol).rank == k
    )
    return {"vertex_ok": vertex_ok, "spectral_ok": spectral_ok}


# ---------------------------------------------------------------------------
# plan file IO


PLAN_VERSION = 2

# ``read_plan(path, graph)`` accepts the graph when the plan's recovery map
# has an A-invariant range: ||A R - R (A R)[kept]|| <= tol ||A|| ||R|| in the
# infinity norm, with R = [I; S] scattered into N x K.
_INVARIANCE_TOL = 1e-8


def _matrix_doc(m: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _matrix_from_doc(doc, rows: int, cols: int, what: str) -> np.ndarray:
    """Parse a rows x cols matrix of [re, im] pairs, all finite."""
    try:
        pairs = np.array(doc)
    except ValueError as exc:
        raise ParseError(f"{what} is not a rectangular array: {exc}") from exc
    if pairs.size == 0 and rows * cols == 0:
        return np.zeros((rows, cols), dtype=np.complex128)
    if pairs.shape != (rows, cols, 2) or pairs.dtype.kind not in "iuf":
        raise ParseError(f"{what} must be a {rows} x {cols} array of [re, im] number pairs")
    if not np.all(np.isfinite(pairs)):
        raise ParseError(f"{what} has non-finite entries")
    return pairs[..., 0] + 1j * pairs[..., 1]


def write_plan(plan: SamplingPlan, path) -> None:
    doc = {
        "version": PLAN_VERSION,
        "domain": plan.domain.value,
        "delta": [int(v) for v in plan.delta],
        "band": list(plan.band.support),
        "S": _matrix_doc(plan.S),
        "cond": plan.cond,
    }
    _atomic_write(Path(path), json.dumps(doc) + "\n")


def read_plan(path, graph: Graph | None = None) -> SamplingPlan:
    """Load and check a plan file; ParseError names what is malformed.

    Files without a ``version`` (written before version 2) are read too:
    vertex files already hold ``S``, and spectral files get it from their
    stored ``gft``. Neither recorded ``cond``, so it reads as NaN. With
    ``graph``, raises ReconstructionMismatchError unless the range of the
    plan's recovery map is invariant under the graph's shift, as the span of
    the band's eigenvectors is.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: a plan must be a JSON object")
    version = doc.get("version", 1)
    if version not in (1, PLAN_VERSION):
        raise ParseError(f"{path}: unsupported plan version {version!r}")
    old_spectral = version == 1 and doc.get("domain") == Domain.SPECTRAL.value
    need = ("domain", "delta", "band", "gft" if old_spectral else "S")
    missing = [key for key in need + (("cond",) if version != 1 else ()) if key not in doc]
    if missing:
        raise ParseError(f"{path}: plan is missing {', '.join(missing)}")
    try:
        domain = Domain(doc["domain"])
        band = BandSpec(tuple(doc["band"]))
        delta = np.array(doc["delta"])
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{path}: malformed plan: {exc}") from exc
    n, k = delta.shape[0] if delta.ndim == 1 else 0, band.k
    if delta.dtype.kind != "i" or n == 0 or not np.isin(delta, (0, 1)).all() or delta.sum() != k:
        raise ParseError(f"{path}: delta must be a 0/1 list with {k} ones, one per band index")
    if band.support[-1] >= n:
        raise ParseError(f"{path}: band index {band.support[-1]} out of range for size {n}")
    if old_spectral:
        gft = _matrix_from_doc(doc["gft"], n, n, f"{path}: gft")
        s = _recovery_map(gft[list(band.complement(n)), :], delta)
    else:
        s = _matrix_from_doc(doc["S"], n - k, k, f"{path}: S")
    if version == 1:
        cond = float("nan")
    elif isinstance(doc["cond"], (int, float)) and math.isfinite(doc["cond"]):
        cond = float(doc["cond"])
    else:
        raise ParseError(f"{path}: cond must be a finite number, got {doc['cond']!r}")
    plan = SamplingPlan(domain, delta.astype(np.int64), band, s, cond)
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
    limit = _INVARIANCE_TOL * np.linalg.norm(graph.adjacency, np.inf) * np.linalg.norm(r, np.inf)
    if resid > limit:
        raise ReconstructionMismatchError(
            f"{path}: plan does not fit this graph: its band is not invariant under the "
            f"shift (residual {resid:.3e} > {limit:.3e})"
        )

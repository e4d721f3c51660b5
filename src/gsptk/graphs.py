"""Graph and graph-signal data model, canonical builders, and file IO.

The adjacency convention follows the shift semantics: entry ``(i, j)`` holds
the weight of the edge j -> i, so ``(A @ x)[i]`` aggregates the in-neighbors
of node i. On the directed cycle this shifts sample ``x[n]`` to node ``n+1``.
"""

from __future__ import annotations

import base64
import cmath
import contextlib
import enum
import gc
import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadSizeError, DimensionMismatchError, DomainMismatchError, ParseError
from .numkit import _as_array, _as_size

__all__ = [
    "Domain",
    "GraphKind",
    "Graph",
    "GraphSignal",
    "build",
    "read_graph",
    "write_graph",
    "read_signal",
    "write_signal",
]


class Domain(enum.Enum):
    VERTEX = "vertex"
    SPECTRAL = "spectral"

    @property
    def other(self) -> Domain:
        """The domain a transform takes a signal to."""
        return Domain.SPECTRAL if self is Domain.VERTEX else Domain.VERTEX


class GraphKind(enum.Enum):
    RING = "ring"
    STAR = "star"
    PATH = "path"
    EXAMPLE4 = "example4"


@dataclass(frozen=True)
class Graph:
    """Directed weighted graph stored as a dense complex adjacency matrix: a finite square complex128 array,
    checked once, when the graph is built. A C-contiguous complex128 array is kept, not copied."""

    adjacency: np.ndarray

    def __post_init__(self):
        a = _as_array(self.adjacency, "adjacency", 2)
        if a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"adjacency must be square, got {a.shape}")
        if not a.size:
            raise BadSizeError("a graph needs at least one node, got an empty adjacency")
        object.__setattr__(self, "adjacency", a)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True)
class GraphSignal:
    """Length-N complex vector tagged with the domain it lives in: a finite complex128 array, checked once,
    when the signal is built. A contiguous complex128 array is kept, not copied."""

    values: np.ndarray
    domain: Domain

    def __post_init__(self):
        object.__setattr__(self, "values", _as_array(self.values, "signal", 1))
        if not isinstance(self.domain, Domain):
            raise TypeError("domain must be a Domain enum member")

    def require(self, domain: Domain) -> np.ndarray:
        if self.domain is not domain:
            raise DomainMismatchError(
                f"expected a {domain.value}-domain signal, got {self.domain.value}"
            )
        return self.values


# 4-node sampling showcase graph: two cycles sharing edges, diagonalizable,
# with one real Perron frequency, one at -1, and a complex pair.
_EXAMPLE4 = np.array(
    [
        [0, 1, 0, 1],
        [1, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 1, 0, 0],
    ],
    dtype=np.complex128,
)


def build(kind: GraphKind, n: int) -> Graph:
    """Build one of the canonical graph families.

    RING: directed cycle, ones on the subdiagonal plus the (0, n-1) corner.
    STAR: undirected hub at node 0.
    PATH: undirected chain.
    EXAMPLE4: the fixed 4-node directed sampling showcase (requires n == 4).
    """
    if not isinstance(kind, GraphKind):
        raise TypeError(f"kind must be a GraphKind enum member, got {kind!r}")
    n = _as_size(n, "n")
    if kind is GraphKind.EXAMPLE4:
        if n != 4:
            raise BadSizeError("the example4 graph is defined only for n = 4")
        return Graph(_EXAMPLE4.copy())
    if n < 2:
        raise BadSizeError(f"{kind.value} graph needs n >= 2, got {n}")
    a = _dense_adjacency(n)
    if kind is GraphKind.RING:
        idx = np.arange(n)
        a[idx, (idx - 1) % n] = 1.0
    elif kind is GraphKind.STAR:
        a[0, 1:] = 1.0
        a[1:, 0] = 1.0
    else:  # GraphKind.PATH
        idx = np.arange(n - 1)
        a[idx, idx + 1] = 1.0
        a[idx + 1, idx] = 1.0
    return Graph(a)


def _dense_adjacency(n: int) -> np.ndarray:
    """The n x n complex zero matrix; BadSizeError when numpy or this host cannot allocate it."""
    try:
        return np.zeros((n, n), dtype=np.complex128)
    except (ValueError, MemoryError):
        raise BadSizeError(f"'n' = {n} is too large for a dense adjacency") from None


def _fmt_complex(z: complex) -> str:
    re, im = float(np.real(z)), float(np.imag(z))
    if im == 0.0:
        return repr(re)
    return f"{re!r}{'+' if im >= 0 else '-'}{abs(im)!r}j"


def _write_csv(path, values) -> None:
    """Write a complex matrix as dense CSV, one ``_fmt_complex`` field per
    entry, or a vector as the ``index,re,im,abs`` plot panel."""
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim == 2:
        lines = [",".join(_fmt_complex(z) for z in row) for row in v.tolist()]
    else:
        lines = ["index,re,im,abs"]
        lines += [f"{i},{z.real!r},{z.imag!r},{abs(z)!r}" for i, z in enumerate(v.tolist())]
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def _parse_complex(token: str, path, line_no: int, field: int) -> complex:
    try:
        z = complex(token.strip())
        if cmath.isfinite(z):
            return z
    except ValueError:
        pass
    raise ParseError(
        f"{path}: line {line_no}, field {field}: cannot parse finite complex value {token!r}"
    )


@contextlib.contextmanager
def _gc_paused():
    """Pause Python's cyclic garbage collector while a graph, signal or basis
    file is read or written; usable as a decorator. The nested lists a JSON
    file parses to and is dumped from hold no reference cycles, so a
    collection they trigger frees nothing, yet it traverses them: the edge list of an Erdos-Renyi
    graph at N=400 with 55% of the pairs linked parses to 88,000 lists, which
    set off about 125 young collections and a full one of the whole heap in
    every read. The collector's state is restored on the way out, and an
    enclosing pause is left in place."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
def write_graph(graph: Graph, path) -> None:
    """Write a graph as canonical edge-list JSON or dense CSV (by extension).

    The edge list holds each nonzero entry once, so no (src, dst) pair repeats.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        _write_csv(path, graph.adjacency)
        return
    src, dst = np.nonzero(graph.adjacency.T)  # row-major: ascending (src, dst)
    weights = _pairs(graph.adjacency[dst, src])
    edges = [[s, d, *w] for s, d, w in zip(src.tolist(), dst.tolist(), weights)]
    _write_json(path, {"n": graph.n, "edges": edges})


@_gc_paused()
def read_graph(path) -> Graph:
    """Read a graph from edge-list JSON or dense CSV (dispatch on extension).

    ParseError names the first (src, dst) pair an edge list repeats.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _read_graph_csv(path)
    doc = _read_json(path, ("n", "edges"))
    n, edges = doc["n"], doc["edges"]
    # type(), not isinstance(): a JSON true is not the integer 1
    if type(n) is not int or n <= 0:
        raise ParseError(f"{path}: 'n' must be a positive integer, got {n!r}")
    if not isinstance(edges, list):
        raise ParseError(f"{path}: 'edges' must be a list of [src, dst, w_re, w_im]")
    for i, edge in enumerate(edges):
        if type(edge) is not list or len(edge) != 4:
            raise ParseError(f"{path}: edge {i} must be [src, dst, w_re, w_im]")
        src, dst, w_re, w_im = edge
        if not (type(src) is int and type(dst) is int and 0 <= src < n and 0 <= dst < n):
            raise ParseError(f"{path}: edge {i}: endpoints must be integers in 0..{n - 1}")
        if type(w_re) not in (int, float) or type(w_im) not in (int, float):
            raise ParseError(f"{path}: edge {i}: weights must be numbers")
    try:  # one pass; the parsed lists go before anything N x N is allocated
        table = np.fromiter(itertools.chain.from_iterable(edges), np.float64, 4 * len(edges)).reshape(-1, 4)
    except OverflowError:  # an integer beyond float64
        raise ParseError(f"{path}: edge weights must be finite float64 numbers") from None
    del doc, edges
    if not np.isfinite(table).all():
        raise ParseError(f"{path}: edge weights must be finite float64 numbers")
    try:
        a = _dense_adjacency(n)
    except BadSizeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    src, dst = table[:, 0].astype(np.intp), table[:, 1].astype(np.intp)
    key = dst * n + src
    seen = np.zeros(n * n, dtype=bool)
    seen[key] = True
    if np.count_nonzero(seen) < key.shape[0]:
        repeat = np.ones(key.shape[0], dtype=bool)
        repeat[np.unique(key, return_index=True)[1]] = False
        i = int(np.argmax(repeat))
        raise ParseError(f"{path}: edge {i} repeats the pair src={src[i]}, dst={dst[i]}")
    a.real[dst, src], a.imag[dst, src] = table[:, 2], table[:, 3]  # signed zeros kept
    return Graph(a)


def _read_graph_csv(path) -> Graph:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty file")
    n = len(lines)
    a = np.zeros((n, n), dtype=np.complex128)
    for i, line in enumerate(lines):
        tokens = line.split(",")
        if len(tokens) != n:
            raise ParseError(
                f"{path}: line {i + 1}: expected {n} fields, found {len(tokens)}"
            )
        for j, tok in enumerate(tokens):
            a[i, j] = _parse_complex(tok, path, i + 1, j + 1)
    return Graph(a)


@_gc_paused()
def write_signal(signal: GraphSignal, path) -> None:
    doc = {"domain": signal.domain.value, "values": _pairs(signal.values)}
    _write_json(path, doc)


@_gc_paused()
def read_signal(path) -> GraphSignal:
    doc = _read_json(path, ("domain", "values"))
    try:
        domain = Domain(doc["domain"])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return GraphSignal(_from_pairs(doc["values"], (None,), f"{path}: values"), domain)


def _pairs(values) -> list:
    """A complex array of any shape as nested lists of [re, im] pairs: the
    layout gsptk JSON files store complex arrays in (plan files pack ``S``
    with ``_packed`` instead)."""
    v = np.asarray(values, dtype=np.complex128)
    return np.stack((v.real, v.imag), -1).tolist()


def _from_pairs(doc, shape: tuple, what: str) -> np.ndarray:
    """Decode ``_pairs`` output into a complex array of ``shape``.

    A None in ``shape`` accepts any nonzero length on that axis. Raises
    ParseError, naming ``what`` (the file and field), unless ``doc`` is a
    rectangular array of finite [re, im] number pairs of that shape. A JSON
    true or false is not a number here.
    """
    try:
        pairs = np.array(doc)
    except ValueError as exc:
        raise ParseError(f"{what} is not a rectangular array: {exc}") from exc
    want = tuple(got if s is None else s for s, got in zip(shape, pairs.shape)) + (2,)
    bad = pairs.dtype.kind not in "iuf" or pairs.shape != want
    if bad or not np.isfinite(pairs).all() or _holds_bool(doc, pairs.ndim):
        dims = " x ".join("N" if s is None else str(s) for s in shape)
        raise ParseError(f"{what} must be an array of shape ({dims}) of finite [re, im] pairs")
    # a view, not re + 1j * im, so that signed zeros survive the round trip
    return np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128)[..., 0]


def _holds_bool(doc, depth: int) -> bool:
    """Whether rectangular nested lists ``depth`` deep hold a JSON true or
    false, which np.array turns into 1 or 0 when numbers surround it."""
    for _ in range(depth - 1):
        doc = itertools.chain.from_iterable(doc)
    return bool in set(map(type, doc))


def _packed(values) -> str:
    """An array as base64 of its row-major little-endian bytes, float64 for a
    real array and complex128 otherwise: the compact layout for a large array
    inside a JSON file."""
    v = np.asarray(values)
    data = np.ascontiguousarray(v, dtype="<c16" if np.iscomplexobj(v) else "<f8").tobytes()
    return base64.b64encode(data).decode("ascii")


def _from_packed(text, shape: tuple, what: str) -> np.ndarray:
    """Decode ``_packed`` output into a writable array of ``shape``.

    It is complex128 when ``text`` holds 16 bytes a value and float64 when it
    holds 8, so an empty array reads as complex128. Raises ParseError, naming
    ``what`` (the file and field), unless ``text`` is valid base64 of exactly
    that many finite values of one of the two.
    """
    try:
        data = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ParseError(f"{what} must be a base64 string: {exc}") from None
    count = math.prod(shape)
    dtypes = (np.dtype(np.complex128), np.dtype(np.float64))  # the two layouts _packed writes
    dtype = next((t for t in dtypes if len(data) == t.itemsize * count), None)
    if dtype is None:
        dims = " x ".join(str(s) for s in shape)
        want = " or ".join(f"the {t.itemsize * count} of a ({dims}) {t.name} array" for t in dtypes)
        raise ParseError(f"{what} holds {len(data)} bytes, not {want}")
    values = np.frombuffer(data, dtype=dtype.newbyteorder("<")).astype(dtype).reshape(shape)
    if not np.isfinite(values).all():
        raise ParseError(f"{what} contains non-finite entries")
    return values


def _read_json(path, keys: tuple[str, ...]) -> dict:
    """The JSON object in ``path``; ParseError unless it has every key in ``keys``."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # invalid JSON or text
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:  # arrays or objects nested deeper than the decoder's stack
        raise ParseError(f"{path}: invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ParseError(f"{path}: missing {', '.join(missing)}")
    return doc


def _write_json(path, doc, **options) -> None:
    _atomic_write(Path(path), json.dumps(doc, **options) + "\n")


def _atomic_write(path: Path, text: str) -> None:
    """Write-temp-then-rename so partially written files are never observed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)

"""Graph and graph-signal data model, canonical builders, and file IO.

The adjacency convention follows the shift semantics: entry ``(i, j)`` holds
the weight of the edge j -> i, so ``(A @ x)[i]`` aggregates the in-neighbors
of node i. On the directed cycle this shifts sample ``x[n]`` to node ``n+1``.
"""

from __future__ import annotations

import base64
import cmath
import enum
import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadSizeError, DimensionMismatchError, DomainMismatchError, ParseError
from .numkit import as_cmatrix, as_cvector

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


class GraphKind(enum.Enum):
    RING = "ring"
    STAR = "star"
    PATH = "path"
    EXAMPLE4 = "example4"


@dataclass(frozen=True)
class Graph:
    """Directed weighted graph stored as a dense complex adjacency matrix."""

    adjacency: np.ndarray

    def __post_init__(self):
        a = as_cmatrix(self.adjacency, "adjacency")
        if a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"adjacency must be square, got {a.shape}")
        object.__setattr__(self, "adjacency", a)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True)
class GraphSignal:
    """Length-N complex vector tagged with the domain it lives in."""

    values: np.ndarray
    domain: Domain

    def __post_init__(self):
        object.__setattr__(self, "values", as_cvector(self.values, "signal"))
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
    if kind is GraphKind.EXAMPLE4:
        if n != 4:
            raise BadSizeError("the example4 graph is defined only for n = 4")
        return Graph(_EXAMPLE4.copy())
    if n < 2:
        raise BadSizeError(f"{kind.value} graph needs n >= 2, got {n}")
    a = np.zeros((n, n), dtype=np.complex128)
    if kind is GraphKind.RING:
        idx = np.arange(n)
        a[idx, (idx - 1) % n] = 1.0
    elif kind is GraphKind.STAR:
        a[0, 1:] = 1.0
        a[1:, 0] = 1.0
    elif kind is GraphKind.PATH:
        idx = np.arange(n - 1)
        a[idx, idx + 1] = 1.0
        a[idx + 1, idx] = 1.0
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown graph kind {kind!r}")
    return Graph(a)


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


def write_graph(graph: Graph, path) -> None:
    """Write a graph as canonical edge-list JSON or dense CSV (by extension)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        _write_csv(path, graph.adjacency)
        return
    src, dst = np.nonzero(graph.adjacency.T)  # row-major: ascending (src, dst)
    weights = _pairs(graph.adjacency[dst, src])
    edges = [[s, d, *w] for s, d, w in zip(src.tolist(), dst.tolist(), weights)]
    _write_json(path, {"n": graph.n, "edges": edges}, indent=1)


def read_graph(path) -> Graph:
    """Read a graph from edge-list JSON or dense CSV (dispatch on extension)."""
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
        if not isinstance(edge, list) or len(edge) != 4:
            raise ParseError(f"{path}: edge {i} must be [src, dst, w_re, w_im]")
        src, dst, w_re, w_im = edge
        if not (type(src) is int and type(dst) is int):
            raise ParseError(f"{path}: edge {i}: endpoints must be integers")
        if type(w_re) is bool or type(w_im) is bool:
            raise ParseError(f"{path}: edge {i}: weights must be numbers, not booleans")
        if not (0 <= src < n and 0 <= dst < n):
            raise ParseError(f"{path}: edge {i}: endpoint out of range 0..{n - 1}")
    try:
        table = np.array(edges).reshape(-1, 4)
    except ValueError:  # a weight that is itself a list
        raise ParseError(f"{path}: edge weights must be numbers") from None
    weights = _from_pairs(table[:, 2:], (len(edges),), f"{path}: edge weights")
    a = np.zeros((n, n), dtype=np.complex128)
    a[table[:, 1].astype(np.intp), table[:, 0].astype(np.intp)] = weights
    return Graph(a)


def _read_graph_csv(path) -> Graph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
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


def write_signal(signal: GraphSignal, path) -> None:
    doc = {"domain": signal.domain.value, "values": _pairs(signal.values)}
    _write_json(path, doc, indent=1)


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
    if pairs.size == 0 and 0 in shape:  # an empty array is written as []
        return np.zeros(shape, dtype=np.complex128)
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
    if not isinstance(doc, list):  # an array has no JSON booleans left to find
        return False
    for _ in range(depth - 1):
        doc = itertools.chain.from_iterable(doc)
    return bool in set(map(type, doc))


def _packed(values) -> str:
    """A complex array as base64 of its row-major little-endian complex128
    bytes: the compact layout for a large array inside a JSON file."""
    data = np.ascontiguousarray(values, dtype="<c16").tobytes()
    return base64.b64encode(data).decode("ascii")


def _from_packed(text, shape: tuple, what: str) -> np.ndarray:
    """Decode ``_packed`` output into a writable complex array of ``shape``.

    Raises ParseError, naming ``what`` (the file and field), unless ``text``
    is valid base64 of exactly that many finite complex128 values.
    """
    try:
        data = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ParseError(f"{what} must be a base64 string: {exc}") from None
    count = math.prod(shape)
    if len(data) != 16 * count:
        dims = " x ".join(str(s) for s in shape)
        raise ParseError(
            f"{what} holds {len(data)} bytes, not the {16 * count} of a ({dims}) complex128 array"
        )
    values = np.frombuffer(data, dtype="<c16").astype(np.complex128).reshape(shape)
    if not np.isfinite(values).all():
        raise ParseError(f"{what} contains non-finite entries")
    return values


def _read_json(path, keys: tuple[str, ...]) -> dict:
    """The JSON object in ``path``; ParseError unless it has every key in ``keys``."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # invalid JSON or text
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
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

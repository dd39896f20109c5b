"""File formats shared across the repository.

All documents are JSON, written on one line; readers accept any JSON
whitespace, so indented files load too.  Matrices are stored as
{rows, cols, data} with data a flat row-major list of [re, im] pairs.  Each
part of a pair is a JSON number or boolean (an integer of any size within
float range); strings, null, lists and non-finite values are rejected.
Python's float serialization is shortest-round-trip, so values (-0.0 and
subnormals included) survive a round trip losslessly.

Labels live only in documents: a space lists its labels as a JSON array
(an array label reads back as a tuple), and a measure lists one [label,
atom] pair per point, which writers list in point order and readers sort
onto the points.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain

import numpy as np

from .algebra import VonNeumannAlgebra
from .errors import InvalidDocument, NotInSpan, ShapeMismatch
from .linalg import as_matrix, frob_norm
from .measure import DiscreteSpace, SpectralMeasure
from .nnsm import NonNegSpectralMeasure, definition_residual
from .tolerances import TAU_ALG


def matrix_to_doc(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(as_matrix(a))
    return {"rows": a.shape[0], "cols": a.shape[1],
            "data": a.view(np.float64).reshape(-1, 2).tolist()}


def matrices_from_doc(docs: list, shape=None, what="matrix documents") -> np.ndarray:
    """Decode a list of matrix documents of one shape into an (n, rows, cols)
    complex128 stack with one numpy conversion; ``shape``, when given, is the
    stack's required shape.  Raises InvalidDocument for any malformed input."""
    try:
        dims = {(_dimension(m["rows"], "rows"), _dimension(m["cols"], "cols"),
                 len(m["data"])) for m in docs}
        pairs = list(chain.from_iterable(m["data"] for m in docs))
        arity = set(map(len, pairs))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidDocument(f"malformed {what}: {exc}") from exc
    if len(dims) != 1:
        raise InvalidDocument(f"{what} differ in (rows, cols, len(data)): {sorted(dims)}")
    ((rows, cols, size),) = dims
    if rows < 1 or cols < 1 or size != rows * cols or arity != {2}:
        raise InvalidDocument(f"{what}: shape/data mismatch")
    if shape is not None and (len(docs), rows, cols) != shape:
        raise InvalidDocument(
            f"{what} have shape {(len(docs), rows, cols)}, expected {shape}")
    # numpy parses numeric strings, so the types are checked first
    values = list(chain.from_iterable(pairs))
    try:
        if not all(issubclass(t, (int, float)) for t in set(map(type, values))):
            raise TypeError("data entries must be pairs of JSON numbers")
        flat = np.fromiter(values, dtype=np.float64, count=len(values))
    except (TypeError, OverflowError) as exc:
        raise InvalidDocument(f"{what}: {exc}") from exc
    if not np.all(np.isfinite(flat)):
        raise InvalidDocument(f"{what} have non-finite entries")
    return flat.view(np.complex128).reshape(len(docs), rows, cols)


def _dimension(value, what: str) -> int:
    """A JSON integer, never truncated from a float; a bool is no integer."""
    if type(value) is not int:
        raise InvalidDocument(f"{what} must be an integer, got {value!r}")
    return value


def space_to_doc(space: DiscreteSpace) -> dict:
    if space.is_finite:
        return {"kind": "finite", "labels": list(space.labels)}
    return {"kind": "countable", "horizon": space.horizon}


def space_from_doc(doc: dict) -> DiscreteSpace:
    if not isinstance(doc, dict):
        raise InvalidDocument(f"space document must be an object, got {doc!r}")
    kind = doc.get("kind")
    if kind == "finite":
        labels = doc["labels"]
        if not isinstance(labels, list):
            raise InvalidDocument(
                f"space labels must be a JSON array, got {type(labels).__name__}")
        return DiscreteSpace(labels=tuple(map(_label, labels)))
    if kind == "countable":
        return DiscreteSpace(horizon=doc["horizon"])
    raise InvalidDocument(f"unknown space kind {kind!r}")


def measure_to_doc(e: SpectralMeasure) -> dict:
    return {
        "space": space_to_doc(e.space),
        "atoms": [[x, matrix_to_doc(p)] for x, p in zip(e.space.points(), e.atoms)],
        "total": matrix_to_doc(e.total),
    }


def measure_from_doc(doc: dict):
    """Load a spectral measure; returns (measure, worst invariant residual)."""
    try:
        space = space_from_doc(doc["space"])
        atoms = doc["atoms"]
        stack = matrices_from_doc(
            [atoms[i][1] for i in _point_order(space, atoms)] + [doc["total"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidDocument(f"malformed measure document: {exc}") from exc
    try:
        e = SpectralMeasure(space, stack[:-1], total=stack[-1])
    except ShapeMismatch as exc:
        raise InvalidDocument(f"invalid measure document: {exc}") from exc
    return e, e.validate()


def _label(x):
    """A label read from JSON, which writes tuples as arrays: an array is
    read back as a tuple, so labels stay hashable."""
    return tuple(map(_label, x)) if isinstance(x, list) else x


def _point_order(space: DiscreteSpace, entries) -> list:
    """Where each point's atom sits in ``entries``, a document's [label, ...]
    list: one atom per point, in any order.  The count is checked before
    any point is listed, so no document allocates past its own size."""
    if len(entries) != len(space):
        raise InvalidDocument(f"atoms listed: {len(entries)}, points: {len(space)}; "
                              f"a document lists one atom per point")
    labels = [_label(x) for x, _ in entries]
    at = dict(zip(labels, range(len(labels))))
    if len(at) != len(labels):
        repeated = sorted(repr(x) for x, n in Counter(labels).items() if n > 1)
        raise InvalidDocument(f"repeated atom labels {', '.join(repeated)}")
    points = space.points()
    stray = set(at).difference(points)
    if stray:
        raise InvalidDocument(
            f"atom label {min(stray, key=repr)!r} not in the space")
    return [at[x] for x in points]


def nnsm_to_doc(m: NonNegSpectralMeasure) -> dict:
    return {
        "space": space_to_doc(m.space),
        "w1": {
            "ambient_dim": m.w1.ambient_dim,
            "basis": [matrix_to_doc(b) for b in m.w1.basis],
        },
        "target_dim": m.target_dim,
        "atom_maps": [[x, [matrix_to_doc(img) for img in imgs]]
                      for x, imgs in zip(m.space.points(), m.images)],
    }


def nnsm_from_doc(doc: dict):
    """Load an NNSM; returns (measure, worst invariant residual), the exact
    residual of the NNSM definition (``definition_residual``: *-homomorphic
    atom maps with orthogonal units that sum to I; sqrt(k) on a space
    without points).
    A W1 basis not closed under products and adjoints is InvalidDocument."""
    try:
        space = space_from_doc(doc["space"])
        d = _dimension(doc["w1"]["ambient_dim"], "ambient_dim")
        basis = doc["w1"]["basis"]
        w1 = VonNeumannAlgebra(ambient_dim=d, basis=matrices_from_doc(
            basis, (len(basis), d, d), "W1 basis matrices"))
        k = _dimension(doc["target_dim"], "target_dim")
        maps = doc["atom_maps"]
        order = _point_order(space, maps)
        if any(len(imgs) != w1.dim for _, imgs in maps):
            raise InvalidDocument(f"each atom needs {w1.dim} images, one per W1 basis element")
        flat = [m for i in order for m in maps[i][1]]
        shape = (len(flat), k, k)
        images = (matrices_from_doc(flat, shape, "atom images") if flat
                  else np.zeros(shape)).reshape(len(order), w1.dim, k, k)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidDocument(f"malformed NNSM document: {exc}") from exc
    _require_unital_orthonormal_basis(w1)
    try:
        m = NonNegSpectralMeasure(space, w1, images)
    except ShapeMismatch as exc:
        raise InvalidDocument(f"invalid NNSM document: {exc}") from exc
    try:
        return m, definition_residual(m)
    except NotInSpan as exc:
        raise InvalidDocument(
            f"W1 is not closed under products and adjoints: {exc}") from exc


def _require_unital_orthonormal_basis(w1: VonNeumannAlgebra) -> None:
    """Coordinates are inner products with the basis, so a W1 basis must be
    trace-orthonormal: its Gram matrix must be the identity within TAU_ALG.
    A von Neumann algebra is unital, so its span must hold the identity.
    An entry that overflows the Gram matrix gives an inf or NaN gap, which
    fails as well."""
    basis = w1.basis_matrix
    with np.errstate(over="ignore", invalid="ignore"):
        gap = frob_norm(basis.conj() @ basis.T - np.eye(w1.dim))
    if not gap <= TAU_ALG:
        raise InvalidDocument(
            f"W1 basis is not trace-orthonormal: its Gram matrix is "
            f"{gap:.3e} from the identity"
        )
    try:
        w1.coefficients(w1.identity())
    except NotInSpan as exc:
        raise InvalidDocument(f"W1 does not contain the identity: {exc}") from exc


def generator_rule(doc: dict):
    """Named generator-value primitives, array expressions in the block index
    n: poly (powers in float64, exact below 2**53), exp-index, bounded-const."""
    kind = doc.get("kind")
    if kind == "poly":
        coeffs = [complex(re, im) for re, im in doc["coeffs"]]
        return lambda n: sum((c * np.asarray(n, float)**j for j, c in enumerate(coeffs)),
                             np.zeros(np.shape(n), dtype=np.complex128))
    if kind == "exp-index":
        rate = float(doc["rate"])
        return lambda n: np.exp(rate * n)
    if kind == "bounded-const":
        value = complex(doc["value"][0], doc["value"][1])
        return lambda n: np.full(np.shape(n), value)
    raise InvalidDocument(f"unknown generator rule {kind!r}")


def dump(doc: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")


def load(path) -> dict:
    """A document: a JSON object, or InvalidDocument."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        # JSONDecodeError, bad UTF-8 or an integer past Python's digit
        # limit (all ValueError), or nesting past the recursion limit
        except (ValueError, RecursionError) as exc:
            raise InvalidDocument(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidDocument(f"a document is a JSON object, got {type(doc).__name__}")
    return doc

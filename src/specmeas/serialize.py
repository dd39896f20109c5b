"""File formats shared across the repository.

All documents are JSON, written on one line; readers accept any JSON
whitespace, so indented files load too.  Matrices are stored as
{rows, cols, data} with data a flat row-major list of [re, im] pairs.  Each
part of a pair is a JSON number or boolean (an integer of any size within
float range); strings, null, lists and non-finite values are rejected.
Python's float serialization is shortest-round-trip, so values (-0.0 and
subnormals included) survive a round trip losslessly.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .algebra import VonNeumannAlgebra
from .errors import InvalidDocument, NotInSpan, ShapeMismatch, SpaceMismatch
from .linalg import as_matrix, frob_norm
from .measure import DiscreteSpace, SpectralMeasure
from .nnsm import NonNegSpectralMeasure
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
        dims = {(int(m["rows"]), int(m["cols"]), len(m["data"])) for m in docs}
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


def space_to_doc(space: DiscreteSpace) -> dict:
    if space.is_finite:
        return {"kind": "finite", "labels": list(space.labels)}
    return {"kind": "countable", "horizon": space.horizon}


def space_from_doc(doc: dict) -> DiscreteSpace:
    if not isinstance(doc, dict):
        raise InvalidDocument(f"space document must be an object, got {doc!r}")
    kind = doc.get("kind")
    if kind == "finite":
        return DiscreteSpace(labels=tuple(doc["labels"]))
    if kind == "countable":
        return DiscreteSpace(horizon=doc["horizon"])
    raise InvalidDocument(f"unknown space kind {kind!r}")


def measure_to_doc(e: SpectralMeasure) -> dict:
    return {
        "space": space_to_doc(e.space),
        "atoms": [[x, matrix_to_doc(p)] for x, p in zip(e.labels, e.atoms)],
        "total": matrix_to_doc(e.total),
    }


def measure_from_doc(doc: dict):
    """Load a spectral measure; returns (measure, worst invariant residual)."""
    try:
        space = space_from_doc(doc["space"])
        labels = _distinct_labels(x for x, _ in doc["atoms"])
        stack = matrices_from_doc([m for _, m in doc["atoms"]] + [doc["total"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidDocument(f"malformed measure document: {exc}") from exc
    try:
        e = SpectralMeasure(space, labels, stack[:-1], total=stack[-1])
    except (SpaceMismatch, ShapeMismatch) as exc:
        raise InvalidDocument(f"invalid measure document: {exc}") from exc
    return e, e.validate()


def _distinct_labels(raw) -> tuple:
    """Atom labels, each once; JSON round-trips tuples as lists, and labels
    must stay hashable."""
    labels = tuple(tuple(x) if isinstance(x, list) else x for x in raw)
    if len(set(labels)) != len(labels):
        repeated = sorted({repr(x) for x in labels if labels.count(x) > 1})
        raise InvalidDocument(f"repeated atom labels {', '.join(repeated)}")
    return labels


def nnsm_to_doc(m: NonNegSpectralMeasure) -> dict:
    return {
        "space": space_to_doc(m.space),
        "w1": {
            "ambient_dim": m.w1.ambient_dim,
            "basis": [matrix_to_doc(b) for b in m.w1.basis],
        },
        "target_dim": m.target_dim,
        "atom_maps": [
            [x, [matrix_to_doc(img) for img in imgs]]
            for x, imgs in sorted(zip(m.labels, m.images), key=lambda kv: repr(kv[0]))
        ],
    }


def nnsm_from_doc(doc: dict):
    """Load an NNSM; returns (measure, worst invariant residual): the worse of
    E_id's resolution residual and the distance of M(X)(1) from the identity.
    Without atoms M(X)(1) = 0, whose distance sqrt(k) is read off the target
    dimension without building a k x k matrix."""
    try:
        space = space_from_doc(doc["space"])
        d, basis = int(doc["w1"]["ambient_dim"]), doc["w1"]["basis"]
        w1 = VonNeumannAlgebra(ambient_dim=d, basis=tuple(
            matrices_from_doc(basis, (len(basis), d, d), "W1 basis matrices")))
        k = int(doc["target_dim"])
        labels = _distinct_labels(x for x, _ in doc["atom_maps"])
        if any(len(imgs) != w1.dim for _, imgs in doc["atom_maps"]):
            raise InvalidDocument(f"each atom needs {w1.dim} images, one per W1 basis element")
        flat = [m for _, imgs in doc["atom_maps"] for m in imgs]
        shape = (len(flat), k, k)
        images = (matrices_from_doc(flat, shape, "atom images") if flat
                  else np.zeros(shape)).reshape(len(labels), w1.dim, k, k)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidDocument(f"malformed NNSM document: {exc}") from exc
    _require_unital_orthonormal_basis(w1)
    try:
        m = NonNegSpectralMeasure(space, w1, labels, images)
    except (SpaceMismatch, ShapeMismatch) as exc:
        raise InvalidDocument(f"invalid NNSM document: {exc}") from exc
    if not labels:
        return m, float(np.sqrt(k))
    e_id = m.measure_for(m.w1.identity())
    return m, max(e_id.validate(), frob_norm(e_id.total - np.eye(k)))


def _require_unital_orthonormal_basis(w1: VonNeumannAlgebra) -> None:
    """Coordinates are inner products with the basis, so a W1 basis must be
    trace-orthonormal: its Gram matrix must be the identity within TAU_ALG.
    A von Neumann algebra is unital, so its span must hold the identity."""
    basis = w1.basis_matrix
    gap = frob_norm(basis.conj() @ basis.T - np.eye(w1.dim))
    if gap > TAU_ALG:
        raise InvalidDocument(
            f"W1 basis is not trace-orthonormal: its Gram matrix is "
            f"{gap:.3e} from the identity"
        )
    try:
        w1.coefficients(w1.identity())
    except NotInSpan as exc:
        raise InvalidDocument(f"W1 does not contain the identity: {exc}") from exc


def generator_rule(doc: dict):
    """Named generator-value primitives: poly, exp-index, bounded-const."""
    kind = doc.get("kind")
    if kind == "poly":
        coeffs = [complex(re, im) for re, im in doc["coeffs"]]
        return lambda n: sum(c * n**j for j, c in enumerate(coeffs))
    if kind == "exp-index":
        rate = float(doc["rate"])
        return lambda n: complex(np.exp(rate * n))
    if kind == "bounded-const":
        value = complex(doc["value"][0], doc["value"][1])
        return lambda n: value
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

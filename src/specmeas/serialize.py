"""File formats shared across the repository.

All documents are JSON.  Matrices are stored as {rows, cols, data} with data
a flat row-major list of [re, im] pairs; Python's float serialization is
shortest-round-trip, so values survive a round trip losslessly.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import VonNeumannAlgebra
from .errors import InvalidDocument, ShapeMismatch, SpaceMismatch
from .linalg import as_matrix, frob_norm
from .measure import DiscreteSpace, SpectralMeasure
from .nnsm import NonNegSpectralMeasure
from .tolerances import TAU_ALG


def matrix_to_doc(a: np.ndarray) -> dict:
    a = as_matrix(a)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }


def matrix_from_doc(doc: dict) -> np.ndarray:
    try:
        rows, cols, data = int(doc["rows"]), int(doc["cols"]), doc["data"]
    except (KeyError, TypeError) as exc:
        raise InvalidDocument(f"malformed matrix document: {exc}") from exc
    if rows < 1 or cols < 1 or len(data) != rows * cols:
        raise InvalidDocument("matrix document shape/data mismatch")
    flat = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
    if not np.all(np.isfinite(flat)):
        raise InvalidDocument("matrix document has non-finite entries")
    return flat.reshape(rows, cols)


def space_to_doc(space: DiscreteSpace) -> dict:
    if space.is_finite:
        return {"kind": "finite", "labels": list(space.labels)}
    return {"kind": "countable", "horizon": space.horizon}


def space_from_doc(doc: dict) -> DiscreteSpace:
    kind = doc.get("kind")
    if kind == "finite":
        return DiscreteSpace(labels=tuple(doc["labels"]))
    if kind == "countable":
        return DiscreteSpace(horizon=int(doc["horizon"]))
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
        atoms = [matrix_from_doc(m) for _, m in doc["atoms"]]
        total = matrix_from_doc(doc["total"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidDocument(f"malformed measure document: {exc}") from exc
    shapes = {m.shape for m in (*atoms, total)}
    if len(shapes) != 1 or any(rows != cols for rows, cols in shapes):
        raise InvalidDocument(
            f"measure matrices must be square and of one dimension, got "
            f"shapes {sorted(shapes)}"
        )
    stack = np.array(atoms, dtype=np.complex128).reshape((-1,) + total.shape)
    try:
        e = SpectralMeasure(space, labels, stack, total=total)
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
            for x, imgs in sorted(m.atom_images.items(), key=lambda kv: repr(kv[0]))
        ],
    }


def nnsm_from_doc(doc: dict):
    """Load an NNSM; returns (measure, worst compression residual)."""
    try:
        space = space_from_doc(doc["space"])
        w1 = VonNeumannAlgebra(
            ambient_dim=int(doc["w1"]["ambient_dim"]),
            basis=tuple(matrix_from_doc(m) for m in doc["w1"]["basis"]),
        )
        target_dim = int(doc["target_dim"])
        labels = _distinct_labels(x for x, _ in doc["atom_maps"])
        atom_images = dict(zip(labels, (
            np.stack([matrix_from_doc(img) for img in imgs])
            for _, imgs in doc["atom_maps"]
        )))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidDocument(f"malformed NNSM document: {exc}") from exc
    _require_orthonormal_basis(w1)
    _require_atom_maps(space, w1, target_dim, atom_images)
    m = NonNegSpectralMeasure(
        space=space, w1=w1, target_dim=target_dim, atom_images=atom_images
    )
    e_id = m.measure_for(m.w1.identity())
    return m, e_id.validate()


def _require_orthonormal_basis(w1: VonNeumannAlgebra) -> None:
    """Coordinates are inner products with the basis, so a W1 basis must be
    trace-orthonormal: its Gram matrix must be the identity within TAU_ALG."""
    shape = (w1.ambient_dim, w1.ambient_dim)
    bad = [b.shape for b in w1.basis if b.shape != shape]
    if bad:
        raise InvalidDocument(f"W1 basis matrices must be {shape}, got {bad}")
    basis = w1.basis_matrix
    gap = frob_norm(basis.conj() @ basis.T - np.eye(w1.dim))
    if gap > TAU_ALG:
        raise InvalidDocument(
            f"W1 basis is not trace-orthonormal: its Gram matrix is "
            f"{gap:.3e} from the identity"
        )


def _require_atom_maps(space, w1, target_dim, atom_images) -> None:
    """Every atom label lies in the space and maps each W1 basis element to
    a target_dim x target_dim image."""
    shape = (w1.dim, target_dim, target_dim)
    for x, imgs in atom_images.items():
        if x not in space:
            raise InvalidDocument(f"atom label {x!r} not in the space")
        if imgs.shape != shape:
            raise InvalidDocument(
                f"atom {x!r} images have shape {imgs.shape}, expected {shape}"
            )


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
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidDocument(f"not valid JSON: {exc}") from exc

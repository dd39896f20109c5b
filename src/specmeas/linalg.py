"""Dense complex linear algebra with exact-tolerance contracts.

Matrices are plain ``numpy.ndarray`` of dtype complex128.  The functions here
supply the substrate for everything else: hermitian eigendecomposition with
cluster merging, and the positive/negative and real/imaginary splittings.
A resolution is stored as one (n, d, d) stack of projections beside the
array of its values; ``resolution_residual`` checks any such stack in one
batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigSolverFailure, NonHermitianInput, ShapeMismatch
from .tolerances import DELTA_CLUSTER, TAU_HERM, TAU_PROJ


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array and validate finiteness."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d array, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeMismatch(f"degenerate shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ShapeMismatch("matrix has non-finite entries")
    return m


def require_square(a: np.ndarray) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"expected square matrix, got {m.shape}")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    return np.conj(a.T)


def frob_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=np.complex128), "fro"))


def op_norm(a) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(a, dtype=np.complex128), 2))


def hermiticity_residual(a: np.ndarray) -> float:
    a = require_square(a)
    return frob_norm(a - adjoint(a)) / (1.0 + frob_norm(a))


def require_hermitian(a: np.ndarray, tol: float = TAU_HERM) -> np.ndarray:
    """Validate hermiticity and return the symmetrized matrix.

    Symmetrization absorbs accumulated round-off; residuals beyond ``tol``
    are genuine errors and raise.
    """
    a = require_square(a)
    if hermiticity_residual(a) > tol:
        raise NonHermitianInput(
            f"hermiticity residual {hermiticity_residual(a):.3e} exceeds {tol:.1e}"
        )
    return (a + adjoint(a)) / 2.0


def is_projection(p: np.ndarray, tol: float = TAU_PROJ) -> bool:
    p = require_square(p)
    return frob_norm(p @ p - p) <= tol and frob_norm(p - adjoint(p)) <= tol


def resolution_residual(stack: np.ndarray) -> float:
    """Worst idempotence, hermiticity or pairwise-orthogonality residual of
    an (n, d, d) projection stack: the norms of P_i P_i - P_i, P_i - P_i* and
    P_i P_j (i > j) are taken in one call; an empty stack gives 0."""
    later, earlier = np.nonzero(np.tri(len(stack), k=-1, dtype=bool))
    residuals = np.concatenate([
        stack @ stack - stack,
        stack - np.conj(np.swapaxes(stack, 1, 2)),
        stack[later] @ stack[earlier],
    ])
    return float(np.linalg.norm(residuals, axis=(1, 2)).max(initial=0.0))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Resolution of identity of a hermitian matrix.

    ``values[i]`` is the eigenvalue of ``projections[i]``, strictly
    increasing in i; the (n, d, d) stack ``projections`` holds mutually
    orthogonal eigenprojections summing to the identity.
    """

    values: np.ndarray
    projections: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return np.tensordot(self.values, self.projections, axes=1)

    def validate(self, source: np.ndarray | None = None) -> float:
        """Return the worst invariant residual (0 is perfect)."""
        worst = resolution_residual(self.projections)
        if np.any(np.diff(self.values) <= 0):
            worst = max(worst, 1.0)
        eye = np.eye(self.projections.shape[1])
        worst = max(worst, frob_norm(self.projections.sum(axis=0) - eye))
        if source is not None:
            scale = 1.0 + frob_norm(source)
            worst = max(worst, frob_norm(self.reconstruct() - source) / scale)
        return worst


def eig_hermitian(a: np.ndarray, tol: float = TAU_HERM) -> SpectralDecomposition:
    """Eigendecomposition of a hermitian matrix with near-degenerate merging.

    Eigenvalues closer than DELTA_CLUSTER*(1+||A||_2) are merged into a single
    projection; otherwise degenerate subspaces would split into factors that
    are not idempotent within TAU_PROJ.
    """
    a = require_hermitian(a, tol)
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigSolverFailure(str(exc)) from exc
    scale = 1.0 + max(abs(vals[0]), abs(vals[-1]))
    values, projections = [], []
    for i, j in clusters(vals, DELTA_CLUSTER * scale):
        block = vecs[:, i:j]
        proj = block @ adjoint(block)
        projections.append((proj + adjoint(proj)) / 2.0)
        values.append(float(np.mean(vals[i:j])))
    return SpectralDecomposition(np.array(values), np.stack(projections))


def clusters(vals: np.ndarray, gap: float) -> list[tuple[int, int]]:
    """(start, stop) index pairs of the clusters of ascending ``vals``: a
    cluster closes where the next value is at least ``gap`` above the last."""
    v = vals.tolist()
    bounds = [0, *(j for j in range(1, len(v)) if v[j] - v[j - 1] >= gap), len(v)]
    return list(zip(bounds[:-1], bounds[1:]))


def positive_negative_parts(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a hermitian matrix as A = A_+ - A_- with A_± psd and A_+A_- = 0.

    One eigendecomposition; each part weights the eigenprojection stack by
    max(±lambda, 0) in one contraction.
    """
    dec = eig_hermitian(a)
    return (np.tensordot(np.maximum(dec.values, 0.0), dec.projections, axes=1),
            np.tensordot(np.maximum(-dec.values, 0.0), dec.projections, axes=1))


def star_decompose(
    a: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decompose A = re+ - re- + i*im+ - i*im- into four psd parts.

    A zero hermitian half splits into two zero parts without an
    eigendecomposition.
    """
    a = require_square(a)
    zero = np.zeros_like(a)
    parts = ()
    for h in ((a + adjoint(a)) / 2.0, (a - adjoint(a)) / 2.0j):
        parts += positive_negative_parts(h) if h.any() else (zero, zero)
    return parts


def random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = random_complex(rng, n, n)
    return (a + adjoint(a)) / 2.0


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))

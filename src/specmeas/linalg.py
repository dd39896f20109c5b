"""Dense complex linear algebra with exact-tolerance contracts.

Matrices are plain ``numpy.ndarray`` of dtype complex128.  The functions here
supply the substrate for everything else: hermitian eigendecomposition with
cluster merging, and the positive/negative and real/imaginary splittings.
A resolution is stored as one (n, d, d) stack of projections beside the
array of its values; ``resolution_residual`` checks any such stack in one
batch.  Stacked routes: ``require_hermitian`` and ``eig_hermitian`` take a
matrix or an (n, d, d) stack (a stack gives a list of decompositions); the
norms, ``projection_residual`` and ``resolution_residual`` take leading axes
and return one value per leading index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigSolverFailure, NonHermitianInput, ShapeMismatch
from .tolerances import DELTA_CLUSTER, TAU_HERM


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


def frob_norm(a):
    """Frobenius norm of a matrix, or the array of the norms of each matrix
    of an (..., d, d) stack."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim > 2:
        return np.linalg.norm(a, axis=(-2, -1))
    return float(np.linalg.norm(a, "fro"))


def op_norm(a):
    """Largest singular value of a matrix, or the array of those of each
    matrix of an (..., d, d) stack."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim > 2:
        return np.linalg.norm(a, 2, axis=(-2, -1))
    return float(np.linalg.norm(a, 2))


def require_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate hermiticity of a matrix, or of each matrix of an (n, d, d)
    stack, and return the symmetrized input.

    Symmetrization absorbs accumulated round-off; a residual
    ||A - A*|| / (1 + ||A||) beyond TAU_HERM is a genuine error and raises.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim == 3 and a.shape[1] == a.shape[2] and a.size:
        as_matrix(a.reshape(-1, a.shape[2]))  # finiteness, in one call
    else:
        a = require_square(a)
    adj = np.conj(np.swapaxes(a, -1, -2))
    residual = np.max(frob_norm(a - adj) / (1.0 + frob_norm(a)))
    if residual > TAU_HERM:
        raise NonHermitianInput(
            f"hermiticity residual {residual:.3e} exceeds {TAU_HERM:.1e}"
        )
    return (a + adj) / 2.0


def projection_residual(a):
    """The worse of ||P P - P|| and ||P - P*|| (Frobenius) for a matrix, or
    the array of those of each matrix of an (..., d, d) stack."""
    a = np.asarray(a, dtype=np.complex128)
    return np.maximum(frob_norm(a @ a - a),
                      frob_norm(a - np.conj(np.swapaxes(a, -1, -2))))


def resolution_residual(stack: np.ndarray):
    """Worst idempotence, hermiticity or pairwise-orthogonality residual of
    an (n, d, d) projection stack: the norms of P_i P_i - P_i, P_i - P_i* and
    P_i P_j (i > j) are taken in one call; an empty stack gives 0.  An
    (..., n, d, d) stack gives the array of the worst residual of each
    (n, d, d) stack in it."""
    later, earlier = np.nonzero(np.tri(stack.shape[-3], k=-1, dtype=bool))
    # each kind of residual is reduced before the next is formed, so a
    # stack of stacks holds the temporaries of one kind at a time
    out = np.maximum(
        projection_residual(stack).max(axis=-1, initial=0.0),
        np.linalg.norm(stack[..., later, :, :] @ stack[..., earlier, :, :],
                       axis=(-2, -1)).max(axis=-1, initial=0.0),
    )
    return float(out) if stack.ndim == 3 else out


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


def eig_hermitian(a: np.ndarray):
    """Eigendecomposition of a hermitian matrix with near-degenerate merging,
    or the list of those of each matrix of an (n, d, d) stack.

    Eigenvalues closer than DELTA_CLUSTER*(1+||A||_2) are merged into a single
    projection; otherwise degenerate subspaces would split into factors that
    are not idempotent within TAU_PROJ.  A stack takes one eigh and one
    rank-one product; only a cluster of two or more forms its own projection.
    """
    a = require_hermitian(a)
    stack = a[None] if a.ndim == 2 else a
    try:
        vals, vecs = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigSolverFailure(str(exc)) from exc
    # every rank-one eigenprojection v v*, symmetrized as range_projection
    # symmetrizes a cluster's projection
    cols = np.swapaxes(vecs, -1, -2)
    rank_one = cols[..., :, None] @ np.conj(cols[..., None, :])
    rank_one = (rank_one + np.conj(np.swapaxes(rank_one, -1, -2))) / 2.0
    out = []
    for v, vec, ones in zip(vals, vecs, rank_one):
        bounds = clusters(v, DELTA_CLUSTER * (1.0 + max(abs(v[0]), abs(v[-1]))))
        if len(bounds) < len(v):
            v = np.array([np.mean(v[i:j]) for i, j in bounds])
            ones = np.stack([ones[i] if j == i + 1 else
                             range_projection(vec[:, i:j]) for i, j in bounds])
        out.append(SpectralDecomposition(v, ones))
    return out[0] if a.ndim == 2 else out


def range_projection(block: np.ndarray) -> np.ndarray:
    """The projection onto the span of the orthonormal columns of ``block``,
    symmetrized to absorb round-off."""
    proj = block @ adjoint(block)
    return (proj + adjoint(proj)) / 2.0


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

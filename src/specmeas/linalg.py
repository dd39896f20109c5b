"""Dense complex linear algebra with exact-tolerance contracts.

Matrices are plain ``numpy.ndarray`` of dtype complex128.  The functions here
supply the substrate for everything else: hermitian eigendecomposition with
cluster merging, and the positive/negative and real/imaginary splittings.
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


@dataclass(frozen=True)
class SpectralDecomposition:
    """Resolution of identity of a hermitian matrix.

    ``pairs`` holds (eigenvalue, eigenprojection) with strictly increasing
    eigenvalues and mutually orthogonal projections summing to the identity.
    """

    pairs: tuple[tuple[float, np.ndarray], ...]

    @property
    def dim(self) -> int:
        return self.pairs[0][1].shape[0]

    @property
    def eigenvalues(self) -> list[float]:
        return [lam for lam, _ in self.pairs]

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for lam, p in self.pairs:
            out += lam * p
        return out

    def validate(self, source: np.ndarray | None = None) -> float:
        """Return the worst invariant residual (0 is perfect)."""
        worst = 0.0
        total = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for i, (lam_i, p_i) in enumerate(self.pairs):
            worst = max(worst, frob_norm(p_i @ p_i - p_i))
            worst = max(worst, frob_norm(p_i - adjoint(p_i)))
            total += p_i
            if i > 0 and lam_i <= self.pairs[i - 1][0]:
                worst = max(worst, 1.0)
            for _, p_j in self.pairs[:i]:
                worst = max(worst, frob_norm(p_i @ p_j))
        worst = max(worst, frob_norm(total - np.eye(self.dim)))
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
    gap = DELTA_CLUSTER * scale
    pairs: list[tuple[float, np.ndarray]] = []
    i = 0
    n = len(vals)
    while i < n:
        j = i + 1
        while j < n and vals[j] - vals[j - 1] < gap:
            j += 1
        block = vecs[:, i:j]
        proj = block @ adjoint(block)
        proj = (proj + adjoint(proj)) / 2.0
        lam = float(np.mean(vals[i:j]))
        pairs.append((lam, proj))
        i = j
    return SpectralDecomposition(pairs=tuple(pairs))


def positive_negative_parts(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a hermitian matrix as A = A_+ - A_- with A_± psd and A_+A_- = 0.

    One eigendecomposition; each part weights the eigenprojection stack by
    max(±lambda, 0) in one contraction.
    """
    pairs = eig_hermitian(a).pairs
    lam = np.array([mu for mu, _ in pairs])
    projs = np.stack([p for _, p in pairs])
    return (np.tensordot(np.maximum(lam, 0.0), projs, axes=1),
            np.tensordot(np.maximum(-lam, 0.0), projs, axes=1))


def star_decompose(
    a: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decompose A = re+ - re- + i*im+ - i*im- into four psd parts."""
    a = require_square(a)
    re = (a + adjoint(a)) / 2.0
    im = (a - adjoint(a)) / 2.0j
    re_plus, re_minus = positive_negative_parts(re)
    im_plus, im_minus = positive_negative_parts(im)
    return re_plus, re_minus, im_plus, im_minus


def random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = random_complex(rng, n, n)
    return (a + adjoint(a)) / 2.0


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))

"""Finite-dimensional von Neumann algebras as concrete matrix *-subalgebras.

Provides bicommutant closure, projection enumeration/sampling, linear
extension from projection families, limiting sequences of hermitian
operators, and joint diagonalization of commuting normal matrices.  Both
resolutions are projection stacks: a limiting sequence is its operator's
eigen-resolution plus a tag grid over ell, and a joint diagonalization is a
table of joint values beside its eigenprojection stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EigSolverFailure,
    InconsistentAssignment,
    NotCommuting,
    NonHermitianInput,
    NotInSpan,
    NotNormal,
    ShapeMismatch,
)
from .linalg import (
    SpectralDecomposition,
    adjoint,
    clusters,
    eig_hermitian,
    frob_norm,
    is_projection,
    op_norm,
    range_projection,
    require_hermitian,
    require_square,
)
from .tolerances import (
    CELL_EDGE_SLACK,
    DELTA_CLUSTER,
    LIMIT_BOUND_SLACK,
    TAU_ALG,
    TAU_EXT,
    TAU_HERM,
    TAU_RANK,
)


def _vec(a: np.ndarray) -> np.ndarray:
    return a.reshape(-1)


def _null_space(a: np.ndarray, cutoff: float = TAU_RANK) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of a.

    The cutoff is absolute; callers normalize their constraint rows so that
    genuine constraints have singular values of order one while round-off
    noise stays many orders below the cutoff.  ``a`` must have at least as
    many rows as columns, or the thin SVD misses part of the null space.
    """
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > cutoff))
    return adjoint(vh)[:, rank:]


@dataclass(frozen=True)
class VonNeumannAlgebra:
    """*-closed unital matrix algebra with a trace-orthonormal basis.

    The basis is orthonormal with respect to <A,B> = tr(B* A), so projecting
    onto the span is a single product with the stacked basis matrix.
    """

    ambient_dim: int
    basis: tuple[np.ndarray, ...]
    contains_identity: bool = True

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def basis_matrix(self) -> np.ndarray:
        """(dim, d^2) matrix whose rows are the vectorized basis elements."""
        return np.array([_vec(b) for b in self.basis], dtype=np.complex128).reshape(
            self.dim, self.ambient_dim**2
        )

    def _project(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of the rows of ``flat`` and their distances to the span."""
        coeffs = flat @ self.basis_matrix.conj().T
        return coeffs, np.linalg.norm(flat - coeffs @ self.basis_matrix, axis=-1)

    def coefficients(self, a: np.ndarray, tol: float = TAU_ALG) -> np.ndarray:
        """Coordinates of ``a`` in the basis, or of each matrix in an
        (n, d, d) stack ``a`` (one row of the result per matrix).

        Raises NotInSpan when a target is farther than ``tol`` from the span.
        """
        single = np.ndim(a) == 2
        stack = require_square(a)[None] if single else np.asarray(a)
        if stack.shape[1:] != (self.ambient_dim, self.ambient_dim):
            raise ShapeMismatch(
                f"expected dim {self.ambient_dim}, got shape {stack.shape[1:]}"
            )
        flat = stack.reshape(len(stack), -1)
        coeffs, resid = self._project(flat)
        # written so that a NaN residual (a non-finite stack) fails as well
        if not np.all(resid <= tol * (1.0 + np.linalg.norm(flat, axis=1))):
            raise NotInSpan(f"membership residual {max(resid):.3e}")
        return coeffs[0] if single else coeffs

    def membership_residual(self, a: np.ndarray) -> float:
        return float(self._project(_vec(a))[1])

    def hermitian_elements(self, draws: np.ndarray) -> np.ndarray:
        """The (n, d, d) stack of hermitian parts of sum_j c_j B_j, one per
        (2, dim) slice of the (n, 2, dim) real ``draws``, with
        c = draws[:, 0] + 1j * draws[:, 1]."""
        coeffs = draws[:, 0] + 1j * draws[:, 1]
        # summed row by row, in the basis order, rather than by a matmul:
        # each element is then bit-for-bit the sequential sum over the
        # basis, and the projections sampled from it do not move
        a = (coeffs[:, :, None] * self.basis_matrix).sum(axis=1).reshape(
            len(draws), self.ambient_dim, self.ambient_dim
        )
        return (a + np.conj(np.swapaxes(a, 1, 2))) / 2.0

    def random_hermitian_element(self, rng: np.random.Generator) -> np.ndarray:
        return self.hermitian_elements(rng.standard_normal((1, 2, self.dim)))[0]

    def identity(self) -> np.ndarray:
        return np.eye(self.ambient_dim, dtype=np.complex128)


def _span_to_algebra(vecs: np.ndarray, dim: int) -> VonNeumannAlgebra:
    """Build an algebra from an orthonormal set of vectorized matrices."""
    basis = tuple(vecs[:, j].reshape(dim, dim) for j in range(vecs.shape[1]))
    return VonNeumannAlgebra(ambient_dim=dim, basis=basis)


def commutant_of_matrices(mats: list[np.ndarray], dim: int) -> VonNeumannAlgebra:
    """Commutant {X : XS = SX for all S in mats and their adjoints}."""
    mats = [require_square(m) for m in mats]
    for m in mats:
        if m.shape[0] != dim:
            raise ShapeMismatch(f"generator dim {m.shape[0]} != ambient {dim}")
    kept = [(m, norm) for m in mats if (norm := frob_norm(m)) > 1e-300]
    if not kept:
        return _span_to_algebra(np.eye(dim * dim, dtype=np.complex128), dim)
    # each generator, then its adjoint, unit-normalized so that genuine
    # constraints have O(1) singular values
    s = np.stack([m for m, _ in kept])
    norms = np.array([norm for _, norm in kept])[:, None, None]
    t = np.stack([s / norms, np.conj(np.swapaxes(s, 1, 2)) / norms], axis=1)
    t = t.reshape(-1, dim, dim)
    # vec(XT - TX) in row-major layout: entry ((i, k), (j, l)) of T's rows
    # is eye[i, j] T[l, k] - T[i, j] eye[k, l], the products that
    # kron(eye, T.T) - kron(T, eye) forms, taken for every T at once
    eye = np.eye(dim)
    eye_t = eye[None, :, None, :, None] * np.swapaxes(t, 1, 2)[:, None, :, None, :]
    t_eye = t[:, :, None, :, None] * eye[None, None, :, None, :]
    constraint = (eye_t - t_eye).reshape(-1, dim * dim)
    return _span_to_algebra(_null_space(constraint), dim)


def commutant(w: VonNeumannAlgebra) -> VonNeumannAlgebra:
    return commutant_of_matrices(list(w.basis), w.ambient_dim)


def bicommutant(generators: list[np.ndarray], ambient_dim: int) -> VonNeumannAlgebra:
    """The von Neumann algebra generated by ``generators``: {gens}''."""
    first = commutant_of_matrices(list(generators), ambient_dim)
    return commutant(first)


@dataclass(frozen=True)
class ProjectionFamily:
    """A list of hermitian projections verified inside an algebra."""

    algebra: VonNeumannAlgebra
    members: tuple[np.ndarray, ...]
    spans_algebra: bool = False

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def factors(self) -> tuple:
        """(u, s, v, null): one SVD of the stacked member columns vec(P_i),
        cut at the absolute TAU_RANK and kept on the family.

        The columns equal u diag(s) v* on the kept rank, and the columns of
        ``null`` are an orthonormal basis of the member relations
        {c : sum c_i P_i = 0}.
        """
        cols = np.stack([_vec(p) for p in self.members], axis=1)
        u, s, vh = np.linalg.svd(cols)
        r = int(np.sum(s > TAU_RANK))
        v = adjoint(vh)
        return u[:, :r], s[:r], v[:, :r], v[:, r:]

    def validate(self) -> float:
        worst = 0.0
        for p in self.members:
            worst = max(worst, frob_norm(p @ p - p), frob_norm(p - adjoint(p)))
            worst = max(worst, self.algebra.membership_residual(p))
        if self.spans_algebra:
            worst = max(worst, self.span_deficit())
        return worst

    def span_deficit(self) -> float:
        """Worst distance from an algebra basis element to the member span."""
        if not self.members:
            return math.inf
        cols = np.stack([_vec(p) for p in self.members], axis=1)
        targets = np.stack([_vec(b) for b in self.algebra.basis], axis=1)
        coeffs, *_ = np.linalg.lstsq(cols, targets, rcond=None)
        return float(np.linalg.norm(cols @ coeffs - targets, axis=0).max())


def sample_projections(
    w: VonNeumannAlgebra, n: int, seed: int
) -> ProjectionFamily:
    """Seeded sample of spectral projections of random hermitian elements.

    Always includes 0 and the identity; keeps sampling until the members span
    the algebra when a spanning set of projections exists (or a retry cap is
    hit).  Deterministic for a fixed seed.  Attempts run a chunk at a time:
    the n + 2 - len(members) that are certain to be made while the family
    is short, then one at a time until the members span.
    """
    rng = np.random.default_rng(seed)
    d = w.ambient_dim
    members: list[np.ndarray] = [np.zeros((d, d), dtype=np.complex128)]
    if w.contains_identity:
        members.append(w.identity())
    cap = 8 * (n + w.dim) + 64
    attempts = 0
    while True:
        short = n + 2 - len(members)
        spans = short <= 0 and _spans(members, w)
        if spans or attempts == cap:
            break
        size = min(max(short, 1), cap - attempts)
        attempts += size
        members += _sampled_members(w, rng, size)
    if short > 0:
        spans = _spans(members, w)
    return ProjectionFamily(algebra=w, members=tuple(members), spans_algebra=spans)


def _sampled_members(
    w: VonNeumannAlgebra, rng: np.random.Generator, size: int
) -> list[np.ndarray]:
    """The projections kept from ``size`` attempts.

    Each attempt draws a hermitian element h of w (two standard_normal(dim)
    draws) and a uniform u, and proposes the sum of h's eigenprojections
    whose (cluster-merged) eigenvalue is at least lo + (hi - lo) u, where lo
    and hi are the least and the greatest; a proposal is kept when it is a
    projection within TAU_PROJ.  Every attempt is drawn first, then the
    chunk is decomposed by one stacked eigh.
    """
    draws = np.empty((size, 2, w.dim))
    u = np.empty(size)
    for i in range(size):
        rng.standard_normal(out=draws[i])
        u[i] = rng.random()
    h = w.hermitian_elements(draws)
    # eig_hermitian's input checks, over the whole chunk
    if not np.all(np.isfinite(h)):
        raise ShapeMismatch("matrix has non-finite entries")
    herm = np.linalg.norm(h - np.conj(np.swapaxes(h, 1, 2)), axis=(1, 2))
    if np.any(herm > TAU_HERM * (1.0 + np.linalg.norm(h, axis=(1, 2)))):
        raise NonHermitianInput(f"hermiticity residual {herm.max():.3e}")
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigSolverFailure(str(exc)) from exc
    # every rank-one eigenprojection v v* of the chunk, symmetrized as
    # range_projection symmetrizes a cluster's projection
    cols = np.swapaxes(vecs, 1, 2)
    rank_one = cols[..., :, None] @ np.conj(cols[..., None, :])
    rank_one = (rank_one + np.conj(np.swapaxes(rank_one, 2, 3))) / 2.0
    proposals = []
    for v, vec, ones, frac in zip(vals, vecs, rank_one, u):
        bounds = clusters(v, DELTA_CLUSTER * (1.0 + max(abs(v[0]), abs(v[-1]))))
        if len(bounds) == len(v):
            means, projs = v, ones
        else:
            means = [float(np.mean(v[i:j])) for i, j in bounds]
            projs = np.stack([ones[i] if j == i + 1 else
                              range_projection(vec[:, i:j]) for i, j in bounds])
        t = means[0] + (means[-1] - means[0]) * frac
        # the clusters at or above t; none when round-off puts t above hi
        proposals.append(projs[np.searchsorted(means, t):].sum(axis=0))
    keep = is_projection(np.stack(proposals))
    return [p for p, kept in zip(proposals, keep) if kept]


def _spans(members: list[np.ndarray], w: VonNeumannAlgebra) -> bool:
    fam = ProjectionFamily(algebra=w, members=tuple(members))
    return fam.span_deficit() <= TAU_ALG


def decompose_over_family(
    family: ProjectionFamily, a: np.ndarray, tol: float = TAU_ALG
) -> np.ndarray:
    """Minimum-norm coordinates over the members of ``a``, or of each matrix
    in an (n, d, d) stack ``a`` (one column of the result per matrix).

    The family's pseudo-inverse is applied factor by factor, since forming
    it first loses digits to 1/s on ill-conditioned families.  Raises
    NotInSpan when a target is farther than ``tol`` from the span.
    """
    single = np.ndim(a) == 2
    stack = require_square(a)[None] if single else a
    flat = stack.reshape(len(stack), -1).T
    u, s, v, _ = family.factors
    proj = adjoint(u) @ flat
    coeffs = v @ (proj / s[:, None])
    resid = np.linalg.norm(flat - u @ proj, axis=0)
    # written so that a NaN residual (a non-finite stack) fails as well
    if not np.all(resid <= tol * (1.0 + np.linalg.norm(flat, axis=0))):
        raise NotInSpan(f"decomposition residual {max(resid):.3e}")
    return coeffs[:, 0] if single else coeffs


def linear_extend(
    family: ProjectionFamily,
    assignment: list[np.ndarray],
    a: np.ndarray,
    tol: float = TAU_EXT,
) -> np.ndarray:
    """Extend P_i -> assignment[i] linearly to ``a`` in the family's span,
    or to each matrix of an (n, d, d) stack ``a``.

    The extension is well defined exactly when the assignment sends every
    member relation sum c_i P_i = 0 to zero; a violation beyond ``tol``
    raises InconsistentAssignment.  Any two coordinate vectors of ``a``
    differ by such a relation, so the value is the contraction of the
    assignment with the minimum-norm coordinates of ``a``.
    """
    if len(assignment) != len(family.members):
        raise ShapeMismatch("assignment length != family size")
    values = np.stack(assignment)
    null = family.factors[-1]
    viol = np.tensordot(null.T, values, axes=(1, 0))
    worst = max(np.linalg.norm(viol, axis=(1, 2)), default=0.0)
    if worst > tol * (1.0 + max(np.linalg.norm(values, axis=(1, 2)))):
        raise InconsistentAssignment(
            f"assignment breaks a member relation by {worst:.3e}"
        )
    return np.tensordot(decompose_over_family(family, a), values, axes=(0, 0))


@dataclass(frozen=True)
class LimitingSequence:
    """Riemann-sum approximants S_l of a hermitian operator.

    Partitions are nested dyadic refinements of [a-1, b], where a and b are
    the least and the greatest eigenvalue.  Over the eigen-resolution
    A = sum_i lambda_i P_i, S_l(A) = sum_i zeta_i(l) P_i, where the tag
    zeta_i(l) is the right endpoint of the cell that holds lambda_i ("mid"
    picks its midpoint).  So a sequence is its ``resolution`` plus one
    (n_ell, n_values) tag grid, ``term(ells)``; eigenvalues that share a
    cell share a tag.
    """

    source: np.ndarray
    resolution: SpectralDecomposition
    zeta_rule: str = "right"

    @property
    def span(self) -> float:
        values = self.resolution.values
        return float(values[-1] - (values[0] - 1.0))

    def refinement_level(self, ell: int) -> int:
        """Dyadic level: mesh <= min(1/ell, span) and strictly below 1."""
        target = min(1.0 / ell, 1.0)
        r = max(1, math.ceil(math.log2(self.span / target)))
        while self.span / 2**r >= target:
            r += 1
        return r

    def mesh(self, ells) -> np.ndarray:
        """The cell width at each ell of ``ells``."""
        levels = np.array([self.refinement_level(ell) for ell in ells])
        return self.span / 2.0**levels

    def term(self, ells) -> np.ndarray:
        """The (len(ells), n_values) tag grid: entry (l, i) is zeta_i(ells[l])."""
        mesh = self.mesh(ells)[:, None]
        left = self.resolution.values[0] - 1.0
        # cell j covers (left + (j-1)*mesh, left + j*mesh], j = 1..span/mesh
        j = np.ceil((self.resolution.values - left) / mesh - CELL_EDGE_SLACK)
        right = left + np.clip(j, 1.0, self.span / mesh) * mesh
        return right if self.zeta_rule == "right" else right - mesh / 2.0

    def approximants(self, ells) -> np.ndarray:
        """The (len(ells), d, d) stack of S_l(A) for l in ``ells``."""
        return np.tensordot(self.term(ells), self.resolution.projections, axes=1)

    def error(self, ells) -> np.ndarray:
        """||A - S_l(A)|| for each l in ``ells``, from one batched SVD."""
        return np.linalg.norm(self.source - self.approximants(ells), ord=2,
                              axis=(1, 2))


def limiting_sequence(
    a: np.ndarray, ell_max: int = 64, zeta_rule: str = "right"
) -> LimitingSequence:
    """Limiting sequence of a hermitian matrix, valid for every ell >= 1."""
    a = require_hermitian(a)
    seq = LimitingSequence(source=a, resolution=eig_hermitian(a),
                           zeta_rule=zeta_rule)
    # The 1/ell bound is structural for the right-endpoint rule; verify the
    # stored range anyway and refuse silently wrong constructions.
    ells = np.array([1, ell_max])
    slack = LIMIT_BOUND_SLACK * (1.0 + abs(seq.resolution.values[-1]))
    if np.any(seq.error(ells) > 1.0 / ells + slack):
        raise AssertionError("limiting sequence failed its 1/ell bound")
    return seq


@dataclass(frozen=True)
class CharacterAtlas:
    """Joint eigenstructure of commuting normals.

    Row i of the (n_points, n_generators) table ``values`` holds the joint
    eigenvalues of point i, one per generator, and ``projections[i]`` of the
    (n_points, d, d) stack is its joint eigenprojection.  The projections
    are mutually orthogonal and sum to the identity; distinct points have
    distinct value rows.
    """

    values: np.ndarray
    projections: np.ndarray

    def reconstruct(self, gen_index: int) -> np.ndarray:
        return np.tensordot(self.values[:, gen_index], self.projections, axes=1)


def _split_by_hermitian(
    blocks: list[np.ndarray], h: np.ndarray, gap: float
) -> list[np.ndarray]:
    """Refine orthonormal column blocks by eigenspaces of h restricted."""
    new_blocks = []
    for v in blocks:
        if v.shape[1] == 1:
            new_blocks.append(v)
            continue
        b = adjoint(v) @ h @ v
        b = (b + adjoint(b)) / 2.0
        vals, vecs = np.linalg.eigh(b)
        new_blocks += [v @ vecs[:, i:j] for i, j in clusters(vals, gap)]
    return new_blocks


def joint_diagonalize(
    normals: list[np.ndarray],
    ambient_dim: int | None = None,
    tol: float = TAU_ALG,
) -> CharacterAtlas:
    """Joint eigenprojections and eigenvalue tuples of commuting normals.

    Splits the space recursively by the hermitian and antihermitian parts of
    each generator, which realizes the refinement deterministically.
    """
    normals = [require_square(n) for n in normals]
    if not normals:
        if ambient_dim is None:
            raise ShapeMismatch("ambient_dim required for an empty generator list")
        return CharacterAtlas(
            values=np.zeros((1, 0), dtype=np.complex128),
            projections=np.eye(ambient_dim, dtype=np.complex128)[None],
        )
    n_dim = normals[0].shape[0]
    if ambient_dim is not None and ambient_dim != n_dim:
        raise ShapeMismatch("ambient_dim disagrees with generator shape")
    scale = 1.0 + max(op_norm(m) for m in normals)
    for i, a in enumerate(normals):
        if frob_norm(a @ adjoint(a) - adjoint(a) @ a) > tol * scale**2:
            raise NotNormal(f"generator {i} is not normal")
        for k, b in enumerate(normals[:i]):
            if frob_norm(a @ b - b @ a) > tol * scale**2:
                raise NotCommuting(f"generators {k} and {i} do not commute")
            if frob_norm(a @ adjoint(b) - adjoint(b) @ a) > tol * scale**2:
                raise NotCommuting(f"generator {i} vs adjoint of {k}")
    gap = DELTA_CLUSTER * scale
    blocks = [np.eye(n_dim, dtype=np.complex128)]
    for m in normals:
        re = (m + adjoint(m)) / 2.0
        im = (m - adjoint(m)) / 2.0j
        blocks = _split_by_hermitian(blocks, re, gap)
        blocks = _split_by_hermitian(blocks, im, gap)
    # Merge blocks whose value tuples coincide (within the cluster gap).
    merged: list[tuple[tuple[complex, ...], list[np.ndarray]]] = []
    for v in blocks:
        values = tuple(complex(np.trace(adjoint(v) @ m @ v)) / v.shape[1]
                       for m in normals)
        for mv, vs in merged:
            if all(abs(a - b) < gap for a, b in zip(values, mv)):
                vs.append(v)
                break
        else:
            merged.append((values, [v]))
    merged.sort(key=lambda it: tuple((z.real, z.imag) for z in it[0]))
    cols = [np.hstack(vs) for _, vs in merged]
    projs = np.stack([v @ adjoint(v) for v in cols])
    return CharacterAtlas(
        values=np.array([values for values, _ in merged], dtype=np.complex128),
        projections=(projs + np.conj(np.swapaxes(projs, 1, 2))) / 2.0,
    )

"""Finite-dimensional von Neumann algebras as concrete matrix *-subalgebras.

Provides the generated algebra {gens}'' (grown as the span of words in the
generators and their adjoints), projection sampling, linear extension from
projection families (one SVD per family; a family is one member stack, and
its members are named by index), limiting sequences of hermitian
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
    InconsistentAssignment,
    NotCommuting,
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
    op_norm,
    projection_residual,
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
    TAU_PROJ,
    TAU_RANK,
)


@dataclass(frozen=True)
class VonNeumannAlgebra:
    """*-closed unital matrix algebra with a trace-orthonormal basis.

    The basis is orthonormal with respect to <A,B> = tr(B* A), so projecting
    onto the span is a single product with the stacked basis matrix.
    """

    ambient_dim: int
    basis: np.ndarray
    contains_identity: bool = True

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def basis_matrix(self) -> np.ndarray:
        """(dim, d^2) matrix whose rows are the vectorized basis elements."""
        return self.basis.reshape(self.dim, self.ambient_dim**2)

    @cached_property
    def _basis_adjoint(self) -> np.ndarray:
        """The (d^2, dim) conjugate transpose of ``basis_matrix``, kept."""
        return self.basis_matrix.conj().T

    def _project(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of the rows of ``flat`` and their distances to the span;
        each row is its own (1, d^2) product, bit-equal in any stack."""
        coeffs = np.matmul(flat[..., None, :], self._basis_adjoint)[..., 0, :]
        return coeffs, frob_norm(flat - coeffs @ self.basis_matrix, axis=-1)

    def coefficients(self, a: np.ndarray) -> np.ndarray:
        """Coordinates of ``a`` in the basis, or of each matrix in an
        (n, d, d) stack ``a`` (one row of the result per matrix, each equal
        to the matrix's own coordinates; n may be 0).

        Raises NotInSpan when a target is farther than TAU_ALG from the span.
        """
        single = np.ndim(a) == 2
        stack = require_square(a)[None] if single else np.asarray(a)
        if stack.shape[1:] != (self.ambient_dim, self.ambient_dim):
            raise ShapeMismatch(
                f"expected dim {self.ambient_dim}, got shape {stack.shape[1:]}"
            )
        flat = stack.reshape(len(stack), self.ambient_dim**2)
        coeffs, resid = self._project(flat)
        # written so that a NaN residual (a non-finite stack) fails as well
        if not np.all(resid <= TAU_ALG * (1.0 + frob_norm(flat, axis=1))):
            raise NotInSpan(f"membership residual {np.max(resid):.3e}")
        return coeffs[0] if single else coeffs

    def membership_residual(self, a: np.ndarray):
        """Distance of a matrix, or of each matrix of an (n, d, d) stack, to
        the span."""
        resid = self._project(np.reshape(a, (*np.shape(a)[:-2], self.ambient_dim**2)))[1]
        return float(resid) if np.ndim(a) == 2 else resid

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
        return (a + adjoint(a)) / 2.0

    def identity(self) -> np.ndarray:
        return np.eye(self.ambient_dim, dtype=np.complex128)


def bicommutant(generators: list[np.ndarray], ambient_dim: int) -> VonNeumannAlgebra:
    """The von Neumann algebra generated by ``generators``: {gens}''.

    In finite dimensions {gens}'' is the unital *-algebra that the generators
    and their adjoints span (von Neumann's double commutant theorem), so the
    basis grows as the span of words.  It starts from I/sqrt(d); each layer
    multiplies the previous layer by every nonzero generator and its
    adjoint, each of unit Frobenius norm, projects the basis out of the
    products twice and keeps the directions whose singular value is above
    TAU_RANK.  A layer that adds nothing ends the growth.
    """
    d = ambient_dim
    gens = [require_square(m) for m in generators]
    for m in gens:
        if m.shape[0] != d:
            raise ShapeMismatch(f"generator dim {m.shape[0]} != ambient {d}")
    kept = [m / norm for m in gens if (norm := frob_norm(m)) > 1e-300]
    letters = np.array(kept + [adjoint(m) for m in kept])
    basis = np.eye(d, dtype=np.complex128)[None] / math.sqrt(d)
    layer = basis
    while len(letters) and len(layer):
        words = (layer[:, None] @ letters).reshape(-1, d * d)
        flat = basis.reshape(len(basis), -1)
        for _ in range(2):
            words = words - (words @ flat.conj().T) @ flat
        _, s, vh = np.linalg.svd(words, full_matrices=False)
        layer = vh[s > TAU_RANK].reshape(-1, d, d)
        basis = np.concatenate([basis, layer])
    return VonNeumannAlgebra(ambient_dim=d, basis=basis)


@dataclass(frozen=True)
class ProjectionFamily:
    """Hermitian projections verified inside an algebra, held as one
    complex128 (n, d, d) stack ``members``: member i is ``members[i]``, and
    n is 0 for an empty family.  A sequence of (d, d) matrices is coerced
    to that stack."""

    algebra: VonNeumannAlgebra
    members: np.ndarray

    def __post_init__(self):
        d = self.algebra.ambient_dim
        object.__setattr__(self, "members", np.asarray(
            self.members, dtype=np.complex128).reshape(-1, d, d))

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
        cols = self.members.reshape(len(self), -1).T
        u, s, vh = np.linalg.svd(cols)
        r = int(np.sum(s > TAU_RANK))
        v = adjoint(vh)
        return u[:, :r], s[:r], v[:, :r], v[:, r:]

    def validate(self) -> float:
        """Worst member, membership and (when spanning) span residual."""
        flat = self.members.reshape(len(self), self.algebra.ambient_dim**2)
        _, distance = self.algebra._project(flat)
        worst = max(projection_residual(self.members).max(initial=0.0),
                    distance.max(initial=0.0))
        if self.spans_algebra:
            worst = max(worst, self.span_deficit())
        return worst

    def span_deficit(self) -> float:
        """Worst distance from an algebra basis element to the member span,
        read off the kept factors: ||B - u u* B|| over the basis columns B."""
        if not len(self):
            return math.inf
        u = self.factors[0]
        targets = self.algebra.basis_matrix.T
        return float(frob_norm(targets - u @ (adjoint(u) @ targets),
                               axis=0).max())

    @cached_property
    def spans_algebra(self) -> bool:
        return self.span_deficit() <= TAU_ALG


def sample_projections(
    w: VonNeumannAlgebra, n: int, seed: int
) -> ProjectionFamily:
    """Seeded sample of spectral projections of random hermitian elements.

    Members 0 and 1 are always the exact 0 and the identity; keeps sampling
    until the members span the algebra when a spanning set of projections
    exists (or a retry cap is hit).  Deterministic for a fixed seed.
    Attempts run a chunk at a time: those certain to be made while the
    family is short of n + 2 members or of dim w + 1 (with 0 among them it
    cannot span), then one at a time until the members span.  The family
    that passed (or was last) is returned with the factors its test
    computed.
    """
    rng = np.random.default_rng(seed)
    members = np.stack([np.zeros_like(w.identity()), w.identity()])
    cap = 8 * (n + w.dim) + 64
    attempts = 0
    while True:
        family = ProjectionFamily(algebra=w, members=members)
        short = max(n + 2, w.dim + 1) - len(members)
        if (short <= 0 and family.spans_algebra) or attempts == cap:
            return family
        size = min(max(short, 1), cap - attempts)
        attempts += size
        members = np.concatenate([members, _sampled_members(w, rng, size)])


def _sampled_members(
    w: VonNeumannAlgebra, rng: np.random.Generator, size: int
) -> np.ndarray:
    """The (kept, d, d) stack of projections kept from ``size`` attempts.

    Each attempt draws a hermitian element h of w (two standard_normal(dim)
    draws) and a uniform u, and proposes the sum of h's eigenprojections
    whose (cluster-merged) eigenvalue is at least lo + (hi - lo) u, where lo
    and hi are the least and the greatest; a proposal is kept when it is a
    projection within TAU_PROJ.  Every attempt is drawn first, then the
    chunk is decomposed by one eig_hermitian call.
    """
    draws = np.empty((size, 2, w.dim))
    u = np.empty(size)
    for i in range(size):
        rng.standard_normal(out=draws[i])
        u[i] = rng.random()
    proposals = []
    for dec, frac in zip(eig_hermitian(w.hermitian_elements(draws)), u):
        lo, hi = dec.values[0], dec.values[-1]
        # the clusters at or above t; none when round-off puts t above hi
        cut = np.searchsorted(dec.values, lo + (hi - lo) * frac)
        proposals.append(dec.projections[cut:].sum(axis=0))
    proposals = np.stack(proposals)
    return proposals[projection_residual(proposals) <= TAU_PROJ]


def decompose_over_family(family: ProjectionFamily, a: np.ndarray) -> np.ndarray:
    """Minimum-norm coordinates over the members of ``a``, or of each matrix
    in an (n, d, d) stack ``a`` (one column of the result per matrix).

    The family's pseudo-inverse is applied factor by factor, since forming
    it first loses digits to 1/s on ill-conditioned families.  Raises
    NotInSpan when a target is farther than TAU_ALG from the span.
    """
    single = np.ndim(a) == 2
    stack = require_square(a)[None] if single else a
    flat = stack.reshape(len(stack), family.algebra.ambient_dim**2).T
    u, s, v, _ = family.factors
    proj = adjoint(u) @ flat
    coeffs = v @ (proj / s[:, None])
    resid = frob_norm(flat - u @ proj, axis=0)
    # written so that a NaN residual (a non-finite stack) fails as well
    if not np.all(resid <= TAU_ALG * (1.0 + frob_norm(flat, axis=0))):
        raise NotInSpan(f"decomposition residual {np.max(resid):.3e}")
    return coeffs[:, 0] if single else coeffs


def linear_extend(
    family: ProjectionFamily,
    assignment,
    a: np.ndarray,
) -> np.ndarray:
    """Extend P_i -> assignment[i] linearly to ``a`` in the family's span,
    or to each matrix of an (m, d, d) stack ``a``.

    The assignment is (n_members, *batch, k, k), the result (*batch, [m,]
    k, k).  The extension is well defined exactly when the assignment sends
    every member relation sum c_i P_i = 0 to zero; a violation beyond
    TAU_EXT (1 + max_i ||assignment[i]||), per batch index, raises
    InconsistentAssignment.  Any two coordinate vectors of ``a`` differ by
    such a relation, so the value is the contraction of the assignment with
    the minimum-norm coordinates of ``a``.
    """
    values = np.asarray(assignment)
    if len(values) != len(family.members):
        raise ShapeMismatch("assignment length != family size")
    viol = np.tensordot(family.factors[-1].T, values, axes=(1, 0))
    worst = frob_norm(viol).max(axis=0, initial=0.0)
    scale = 1.0 + frob_norm(values).max(axis=0)
    # written so that a NaN assignment fails as well
    if not np.all(worst <= TAU_EXT * scale):
        raise InconsistentAssignment(
            f"assignment breaks a member relation by {worst.max():.3e}"
        )
    coords = decompose_over_family(family, a)
    # one (m, n) @ (n, k^2) product per batch index, on a contiguous copy
    # (a strided one sums in another order at k = 1): each value is the
    # unbatched one, where one product over the whole batch moves round-off
    n, *batch, k, _ = values.shape
    flat = np.ascontiguousarray(np.moveaxis(values, 0, -3)).reshape(
        *batch, n, k * k)
    return np.matmul(coords.reshape(n, -1).T, flat).reshape(
        *batch, *np.shape(a)[:-2], k, k)


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
        return op_norm(self.source - self.approximants(ells))


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


def joint_diagonalize(normals: list[np.ndarray]) -> CharacterAtlas:
    """Joint eigenprojections and eigenvalue tuples of commuting normals,
    at least one, or ShapeMismatch.

    Splits the space recursively by the hermitian and antihermitian parts of
    each generator, which realizes the refinement deterministically.
    """
    normals = [require_square(n) for n in normals]
    if not normals:
        raise ShapeMismatch("joint_diagonalize needs at least one generator")
    stack = np.stack(normals)
    scale = 1.0 + float(op_norm(stack).max())
    adjoints = [adjoint(m) for m in normals]
    bound = TAU_ALG * scale**2
    for i, (a, a_adj) in enumerate(zip(normals, adjoints)):
        if frob_norm(a @ a_adj - a_adj @ a) > bound:
            raise NotNormal(f"generator {i} is not normal")
        for k, (b, b_adj) in enumerate(zip(normals[:i], adjoints)):
            if frob_norm(a @ b - b @ a) > bound:
                raise NotCommuting(f"generators {k} and {i} do not commute")
            if frob_norm(a @ b_adj - b_adj @ a) > bound:
                raise NotCommuting(f"generator {i} vs adjoint of {k}")
    gap = DELTA_CLUSTER * scale
    # the hermitian and antihermitian parts in turn; the first part's own
    # eigenspaces are the first blocks
    parts = [h for m, m_adj in zip(normals, adjoints)
             for h in ((m + m_adj) / 2.0, (m - m_adj) / 2.0j)]
    vals, vecs = np.linalg.eigh(parts[0])
    blocks = [vecs[:, i:j] for i, j in clusters(vals, gap)]
    for h in parts[1:]:
        blocks = _split_by_hermitian(blocks, h, gap)
    # each block is one point: blocks split from different clusters of a
    # part differ in that part's mean by at least the gap
    points = [(tuple(z / v.shape[1] for z in
                     np.trace(adjoint(v) @ stack @ v, axis1=1, axis2=2).tolist()), v)
              for v in blocks]
    # sort on the values snapped to the gap, so round-off in the last bits
    # cannot reorder points whose values are equal in some coordinate
    points.sort(key=lambda it: tuple(
        (round(z.real / gap), round(z.imag / gap)) for z in it[0]))
    return CharacterAtlas(
        values=np.array([values for values, _ in points], dtype=np.complex128),
        projections=np.stack([range_projection(v) for _, v in points]),
    )

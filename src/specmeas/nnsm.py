"""Non-negative spectral measures and bounded integration.

An NNSM assigns to every point x of a discrete space a linear map
Phi_x: W1 -> B(K), stored through the images of W1's trace-orthonormal basis
as one (n_points, dim W1, k, k) stack indexed like ``space.points()``,
the format of a SpectralMeasure.  Compressions M_P(Delta) = M(Delta)(P)
are spectral measures, and the product rule M_P(D1) M_Q(D2) =
M_{PQ}(D1 n D2) ties the family together.  At singletons, with
M(X)(1) = I, that rule is the whole definition: each Phi_x is a
*-homomorphism, Phi_x(1) Phi_y(1) = 0 for x != y and sum_x Phi_x(1) = I,
which ``definition_residual`` checks exactly (positivity follows).  The compressions along a projection family share the
NNSM's space, so they are one SpectralMeasure batched over the members,
and E_P(Delta) for every member is one ``measure.evaluate`` call; M_A(Delta)
for any A in W1 is ``evaluate(m.measure_for(A), Delta)``.
A set Delta is a boolean mask over the space's points, as in ``measure``:
D1 n D2 is ``d1 & d2``, and ``random_sets`` draws a (count, n_points) stack.
Operator fields store each scalar function as its value table over the
same points, so integrating one reads the columns under Delta's mask.
A batch of fields is one OperatorField whose term slots hold stacks, and
``integrate`` returns one integral per batch index.
The checks of Zalar's conditions (1)-(3) on the compressions return plain
residual arrays; ``harness`` names the rows and builds the reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .algebra import (
    ProjectionFamily,
    VonNeumannAlgebra,
    decompose_over_family,
    limiting_sequence,
    linear_extend,
)
from .errors import NotSpanning, ShapeMismatch
from .linalg import adjoint, frob_norm, op_norm, require_square, star_decompose
from .measure import (DiscreteSpace, SpectralMeasure, evaluate, matrix_stack,
                      require_mask)
from .tolerances import (
    CONDITION3_CONSTANT,
    RESIDUAL_FLOOR,
    TAU_EXT,
    TAU_PROJ,
)


@dataclass(frozen=True)
class NonNegSpectralMeasure:
    """Atomic non-negative spectral measure M: Bor(X) -> B(W1, B(K)).

    ``images[i]`` is Phi_x for the i-th point x of ``space.points()``,
    stored as the (dim W1, k, k) images of W1's basis elements: one
    (n_points, dim W1, k, k) stack, with the zero map at a point that
    carries no mass.  Phi_x(A) for every point at once is one contraction
    of A's coordinates against the stack.
    """

    space: DiscreteSpace
    w1: VonNeumannAlgebra
    images: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "images", matrix_stack(
            self.images, (len(self.space), self.w1.dim)))

    @property
    def target_dim(self) -> int:
        return self.images.shape[-1]

    def _values(self, a: np.ndarray) -> np.ndarray:
        """Phi_x(A) for every point x, as an (n_points, k, k) stack, or
        (n, n_points, k, k) for an (n, d, d) stack ``a``: one (n, 1, dim) @
        (dim, n_points k^2) matmul, each matrix's row product on its own."""
        coeffs = self.w1.coefficients(a)
        n_points, dim, k, _ = self.images.shape
        flat = np.moveaxis(self.images, 1, 0).reshape(dim, n_points * k * k)
        return np.matmul(coeffs[..., None, :], flat).reshape(
            *coeffs.shape[:-1], n_points, k, k)

    def apply(self, label, a: np.ndarray) -> np.ndarray:
        """Phi_x(A) for A in W1; the zero map at a label that is not a point."""
        coeffs = self.w1.coefficients(require_square(a))
        points = self.space.points()
        if label not in points:
            return np.zeros((self.target_dim, self.target_dim), dtype=np.complex128)
        return np.tensordot(coeffs, self.images[points.index(label)], axes=(0, 0))

    def measure_for(self, p: np.ndarray) -> SpectralMeasure:
        """The compression M_P as a SpectralMeasure, or for an (n, d, d)
        stack ``p`` one SpectralMeasure batched over the stack (n may be 0),
        bit-for-bit the single compressions stacked."""
        return SpectralMeasure(self.space, self._values(p))


def definition_residual(m: NonNegSpectralMeasure) -> float:
    """Worst Frobenius residual of the NNSM definition over the points x, y
    and W1's basis B: multiplicativity, Phi_x(B_i) Phi_x(B_j) =
    sum_l c_ij^l Phi_x(B_l) with c_ij^l = tr(B_l* B_i B_j); *-preservation,
    Phi_x(B_i*) = Phi_x(B_i)*; orthogonality, Phi_x(1) Phi_y(1) = 0 for
    x != y; unitality, sum_x Phi_x(1) = I.  An atom's dim^2 products are one
    broadcast matmul, compared with one (dim^2, dim) @ (dim, k^2) product;
    products go atom by atom, so only one atom's are held.  On a space
    without points it is sqrt(k), with no k x k array.  NotInSpan when W1's
    basis is not closed under products and adjoints."""
    n, dim, k, _ = m.images.shape
    if n == 0:
        return float(np.sqrt(k))
    w1, images = m.w1, m.images
    d = w1.ambient_dim
    structure = w1.coefficients(
        (w1.basis[:, None] @ w1.basis[None]).reshape(dim * dim, d, d))
    multiplicative = [frob_norm(phi[:, None] @ phi[None] - (
        structure @ phi.reshape(dim, k * k)).reshape(dim, dim, k, k)).max()
        for phi in images]
    star_images = m._values(adjoint(w1.basis))
    star = frob_norm(np.moveaxis(star_images, 0, 1) - adjoint(images)).max()
    units = m._values(w1.identity())
    orthogonal = [np.delete(frob_norm(u @ units), x) for x, u in enumerate(units)]
    unital = frob_norm(units.sum(axis=0) - np.eye(k))
    return float(np.hstack([multiplicative, star, unital, *orthogonal]).max())


@dataclass(frozen=True)
class OperatorField:
    """Finite sum of elementary tensors f_i (x) A_i in B (x) W1, or a batch
    of such sums.

    Each term slot is (values, A): f_i as its value table, a complex128 row
    (..., n_points) indexed like ``space.points()`` (the labels of a finite
    space or range(horizon) of a countable one), and A_i as a (..., d, d)
    ndarray in W1; a scalar block model's coefficients are 1x1 matrices.
    The leading axes of every row and coefficient broadcast to the field's
    batch shape, one sum per batch index, and a sum with fewer terms than
    the field has slots holds an exact-zero row and coefficient there.
    The bounded theory integrates a field against an NNSM (``integrate``),
    the unbounded one applies it to finitely supported vectors
    (``blocks.i_m_apply``).
    """

    terms: tuple  # of (values ndarray, coefficient ndarray)

    def __add__(self, other: "OperatorField") -> "OperatorField":
        return OperatorField(terms=self.terms + other.terms)

    def scale(self, lam: complex) -> "OperatorField":
        return OperatorField(terms=tuple((lam * v, a) for v, a in self.terms))

    def product(self, other: "OperatorField") -> "OperatorField":
        return OperatorField(terms=tuple(
            (v * w, a @ b) for v, a in self.terms for w, b in other.terms))

    def star(self) -> "OperatorField":
        return OperatorField(terms=tuple(
            (np.conj(v), adjoint(a)) for v, a in self.terms))


@dataclass(frozen=True)
class FamilyMeasures:
    """A projection family beside its compressions: ``compressions`` is one
    SpectralMeasure batched over the members, E_{P_i} at leading index i.
    The compressions of an NNSM ``m`` are ``m.measure_for(family.stack)``.
    """

    family: ProjectionFamily
    compressions: SpectralMeasure

    def extend_at(self, a: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """E_A(Delta) by linear extension over the family (exact route), or
        E_A(Delta) for each matrix of an (n, d, d) stack ``a``.

        The assignment P_i -> E_P_i(Delta) is evaluated once per call.
        """
        return linear_extend(self.family, evaluate(self.compressions, delta), a)


def random_sets(space: DiscreteSpace, rng: np.random.Generator,
                count: int) -> np.ndarray:
    """``count`` random sets of the space's points as one (count, n_points)
    mask, each point in with probability 1/2: one draw of n_points uniforms
    per set."""
    return rng.random((count, len(space))) < 0.5


def condition1_check(
    fam: FamilyMeasures, trials: int = 16, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Linear relations among projections must transfer to the measures.

    Seeded random combinations T = sum λ_i P_i are re-expressed by their
    minimum-norm coordinates μ over the family; the two coefficient vectors
    must induce the same measure values on each trial's random set Delta_t.
    The sets are drawn first, then every λ in one call; both sides of every
    trial come from one (2 trials, n n_points) @ (n n_points, k^2) product of
    the weights λ_i [x in Delta_t] (and μ_i [x in Delta_t]) with the
    compression atoms, the sets' own masks as the atom masks, the rule
    ``evaluate`` reads.  Returns the (trials,) residual and tol arrays; a
    trial holds when its residual is at most its tol.
    """
    if trials < 1:
        raise ValueError(f"condition (1) needs at least one trial, got {trials}")
    family, comp = fam.family, fam.compressions
    if not family.spans_algebra:
        raise NotSpanning("condition (1) checks need a spanning family")
    rng = np.random.default_rng(seed)
    deltas = random_sets(comp.space, rng, trials)
    lams = rng.standard_normal((trials, len(family)))
    mus = decompose_over_family(
        family, np.tensordot(lams, family.stack, axes=1)).T
    weights = np.stack([lams, mus])[..., None] * deltas[:, None, :]
    k = comp.atoms.shape[-1]
    lhs, rhs = (weights.reshape(2 * trials, -1)
                @ comp.atoms.reshape(-1, k * k)).reshape(2, trials, k, k)
    scale = 1.0 + np.maximum(frob_norm(lhs), frob_norm(rhs))
    return frob_norm(lhs - rhs), TAU_EXT * scale


def condition2_check(fam: FamilyMeasures, deltas: np.ndarray) -> np.ndarray:
    """The uniform bound k_Delta = sup_P ||E_P(Delta)|| for each set of a
    (count, n_points) stack, as a (count,) array; condition (2) wants it at
    most one.  Every E_P(Delta) is the atoms under Delta's mask summed as
    ``evaluate`` sums them: one masked sum and one stacked ``op_norm``."""
    comp = fam.compressions
    n_points = len(comp.space)
    stack = require_mask(deltas, getattr(deltas, "shape", ())[:-1] + (n_points,))
    if stack.ndim != 2:
        raise ShapeMismatch(f"expected a (count, {n_points}) stack of sets, "
                            f"got shape {stack.shape}")
    values = np.where(stack[:, None, :, None, None], comp.atoms, 0.0).sum(axis=-3)
    return op_norm(values).max(axis=-1, initial=0.0)


CONDITION3_ELLS = (1, 2, 4, 8, 16, 32, 64)  # the levels condition (3) samples


def condition3_check(
    fam: FamilyMeasures,
    p: np.ndarray,
    q: np.ndarray,
    d1: np.ndarray,
    d2: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Limiting-sequence route to the product rule.

    PQ is split into four positive parts; at each ell of CONDITION3_ELLS the
    Riemann sum of linear-extension values over D1 n D2 is compared with
    E_P(D1) E_Q(D2).  Returns the Frobenius residual at each ell and the
    bound c/ell_max on the last one, c = CONDITION3_CONSTANT * (1+dim).
    """
    family = fam.family
    i_p = _family_index(family, p)
    i_q = _family_index(family, q)
    comp = fam.compressions
    lhs = evaluate(comp, d1)[i_p] @ evaluate(comp, d2)[i_q]
    inter = d1 & d2
    parts = star_decompose(p @ q)
    ell_max = CONDITION3_ELLS[-1]
    seqs = [limiting_sequence(part, ell_max=ell_max) for part in parts]
    signs = [1.0, -1.0, 1.0j, -1.0j]
    sums = _riemann_sums(fam, list(zip(signs, seqs)), CONDITION3_ELLS, inter)
    # one norm per ell: a stacked norm sums in another order
    residuals = np.array([frob_norm(lhs - rhs) for rhs in sums])
    dim = family.algebra.ambient_dim
    return residuals, CONDITION3_CONSTANT * (1.0 + dim) / ell_max


def _riemann_sums(
    fam: FamilyMeasures, weighted_seqs: list, ells, delta: np.ndarray
) -> np.ndarray:
    """For each ell, the Riemann sum over (w, seq) in ``weighted_seqs`` of
    w * E_{S_l}(Delta), as a (len(ells), k, k) stack.

    Extension is linear, so E_{S_l}(Delta) = sum_i zeta_i(l) E_{P_i}(Delta)
    over seq's eigenprojections P_i: every sequence's projection stack is
    extended in one ``extend_at`` call and contracted with the tag grids.
    """
    grid = np.hstack([w * seq.term(ells) for w, seq in weighted_seqs])
    stack = np.concatenate([seq.resolution.projections for _, seq in weighted_seqs])
    return np.tensordot(grid, fam.extend_at(stack, delta), axes=1)


def _family_index(family: ProjectionFamily, p: np.ndarray) -> int:
    for i, member in enumerate(family.members):
        if member.shape == p.shape and frob_norm(member - p) <= TAU_PROJ:
            return i
    raise NotSpanning("projection is not a family member")


def decay_rate(residuals: np.ndarray) -> float:
    """Slope of -log(residual) vs log(ell) over CONDITION3_ELLS, from the
    residuals above RESIDUAL_FLOOR; inf when fewer than two are."""
    kept = residuals > RESIDUAL_FLOOR
    if np.count_nonzero(kept) < 2:
        return float("inf")
    xs = np.log(np.array(CONDITION3_ELLS)[kept])
    slope = np.polyfit(xs, np.log(residuals[kept]), 1)[0]
    return float(-slope)


def assemble_from_family(
    fam: FamilyMeasures, w1: VonNeumannAlgebra
) -> NonNegSpectralMeasure:
    """Build the unique NNSM with M_P = E_P over a spanning family.

    Phi_x is the linear extension of P -> E_P({x}) to W1: one linear_extend
    call, with the compression atoms as an assignment batched over the
    atoms, checks each atom against the member relations (condition (1)
    certifies well-definedness; a violation raises InconsistentAssignment)
    and maps the W1 basis to the (n_points, dim W1, k, k) image stack.
    """
    family, comp = fam.family, fam.compressions
    if not family.spans_algebra:
        raise NotSpanning("assembly needs a spanning family")
    return NonNegSpectralMeasure(comp.space, w1,
                                 linear_extend(family, comp.atoms, w1.basis))


def extension_by_limit(
    fam: FamilyMeasures,
    a: np.ndarray,
    delta: np.ndarray,
    ell: int = 4096,
    zeta_rule: str = "right",
) -> np.ndarray:
    """E_A(Delta) as the limiting-sequence value at a large ell.

    For positive A this realizes lim_l E_{S_l(A)}(Delta); the companion exact
    value is FamilyMeasures.extend_at.
    """
    seq = limiting_sequence(a, ell_max=1, zeta_rule=zeta_rule)
    return _riemann_sums(fam, [(1.0, seq)], [ell], delta)[0]


def integrate(m: NonNegSpectralMeasure, field_: OperatorField,
              delta: np.ndarray) -> np.ndarray:
    """Integral of an operator field over a (n_points,) set Delta,
    sum_i sum_{x in Delta} f_i(x) Phi_x(A_i), as a (*batch, k, k) stack over
    the field's batch shape; a field with no terms integrates to a (k, k)
    zero.

    Each f_i is a value row with one entry per point of the space, indexed
    like the image stack; a row of another length raises ShapeMismatch.
    Each slot's coordinates are its rows of one ``coefficients`` call, the
    weights f_i(x) c(A_i) of the points in Delta are summed in slot order,
    and one (batch, n dim) @ (n dim, k^2) ``np.dot`` meets them with the
    image stack; rows and stack are gathered only when Delta misses a point.
    """
    mask = require_mask(delta, (len(m.space),))
    if not field_.terms:
        return np.zeros((m.target_dim,) * 2, dtype=np.complex128)
    inside = slice(None) if mask.all() else np.flatnonzero(mask)
    rows = [np.asarray(v, dtype=np.complex128) for v, _ in field_.terms]
    if any(row.ndim < 1 or row.shape[-1] != len(m.space) for row in rows):
        raise ShapeMismatch(f"value rows index the space's {len(m.space)} points")
    slots = [np.asarray(a) for _, a in field_.terms]
    flat = [a.reshape(-1, *a.shape[-2:]) for a in slots]
    if any(f.shape[1:] != flat[0].shape[1:] for f in flat):
        raise ShapeMismatch("term slots hold matrices of different shapes")
    coeffs = m.w1.coefficients(np.concatenate(flat))
    ends = [0, *accumulate(len(f) for f in flat)]
    parts = [row[..., inside, None] * coeffs[i:j].reshape(*a.shape[:-2], 1, m.w1.dim)
             for row, a, i, j in zip(rows, slots, ends, ends[1:])]
    weights = sum(parts[1:], parts[0])
    (*lead, n_in, dim), k = weights.shape, m.target_dim
    return np.dot(weights.reshape(math.prod(lead), n_in * dim),
                  m.images[inside].reshape(n_in * dim, k * k)).reshape(*lead, k, k)

"""Non-negative spectral measures and bounded integration.

An NNSM assigns to every atom x of a discrete space a linear map
Phi_x: W1 -> B(K), stored through the images of W1's trace-orthonormal basis
as distinct labels beside one (n_atoms, dim W1, k, k) stack, the format of a
SpectralMeasure.  Compressions M_P(Delta) = M(Delta)(P) are spectral
measures, and the product rule M_P(D1) M_Q(D2) = M_{PQ}(D1 n D2) ties the
family together.  At singletons, with M(X)(1) = I, that rule is the whole
definition: each Phi_x is a *-homomorphism, Phi_x(1) Phi_y(1) = 0 for
x != y and sum_x Phi_x(1) = I, which ``definition_residual`` checks exactly
(positivity follows).  The compressions along a projection family share the
NNSM's labels, so they are one SpectralMeasure batched over the members,
and E_P(Delta) for every member is one ``measure.evaluate`` call; M_A(Delta)
for any A in W1 is ``evaluate(m.measure_for(A), Delta)``.
A set Delta is a boolean mask over the space's points, as in ``measure``:
D1 n D2 is ``d1 & d2``, and ``random_sets`` draws a (count, n_points) stack.
Operator fields store each scalar function as its value table over the
same points, so integrating one reads the columns of the atoms in Delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .measure import (DiscreteSpace, SpectralMeasure, atoms_in, evaluate,
                      labelled_stack, require_mask)
from .tolerances import (
    CONDITION3_CONSTANT,
    RESIDUAL_FLOOR,
    TAU_EXT,
    TAU_NORM_SLACK,
    TAU_PROJ,
)


@dataclass(frozen=True)
class NonNegSpectralMeasure:
    """Atomic non-negative spectral measure M: Bor(X) -> B(W1, B(K)).

    ``images[i]`` is Phi_x for the atom x = ``labels[i]``, stored as the
    (dim W1, k, k) images of W1's basis elements: the labels are distinct
    points of ``space`` beside one (n_atoms, dim W1, k, k) stack, and a
    point without a label has the zero map.  Phi_x(A) for every atom at
    once is one contraction of A's coordinates against the stack.
    """

    space: DiscreteSpace
    w1: VonNeumannAlgebra
    labels: tuple
    images: np.ndarray

    def __post_init__(self):
        labels, images = labelled_stack(
            self.space, self.labels, self.images, (len(self.labels), self.w1.dim))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "images", images)

    @property
    def target_dim(self) -> int:
        return self.images.shape[-1]

    def _values(self, a: np.ndarray) -> np.ndarray:
        """Phi_x(A) for every stored atom x, as an (n_atoms, k, k) stack, or
        (n, n_atoms, k, k) for an (n, d, d) stack ``a``: one (n, 1, dim) @
        (dim, n_atoms k^2) matmul, each matrix's row product on its own."""
        coeffs = self.w1.coefficients(a)
        n_atoms, dim, k, _ = self.images.shape
        flat = np.moveaxis(self.images, 1, 0).reshape(dim, n_atoms * k * k)
        return np.matmul(coeffs[..., None, :], flat).reshape(
            *coeffs.shape[:-1], n_atoms, k, k)

    def apply(self, label, a: np.ndarray) -> np.ndarray:
        """Phi_x(A) for A in W1."""
        coeffs = self.w1.coefficients(require_square(a))
        if label not in self.labels:
            return np.zeros((self.target_dim, self.target_dim), dtype=np.complex128)
        return np.tensordot(coeffs, self.images[self.labels.index(label)], axes=(0, 0))

    def measure_for(self, p: np.ndarray) -> SpectralMeasure:
        """The compression M_P as a SpectralMeasure, or for an (n, d, d)
        stack ``p`` one SpectralMeasure batched over the stack (n may be 0),
        bit-for-bit the single compressions stacked."""
        return SpectralMeasure(self.space, self.labels, self._values(p))


def definition_residual(m: NonNegSpectralMeasure) -> float:
    """Worst Frobenius residual of the NNSM definition over the atoms x, y
    and W1's basis B: multiplicativity, Phi_x(B_i) Phi_x(B_j) =
    sum_l c_ij^l Phi_x(B_l) with c_ij^l = tr(B_l* B_i B_j); *-preservation,
    Phi_x(B_i*) = Phi_x(B_i)*; orthogonality, Phi_x(1) Phi_y(1) = 0 for
    x != y; unitality, sum_x Phi_x(1) = I.  An atom's dim^2 products are one
    broadcast matmul, compared with one (dim^2, dim) @ (dim, k^2) product;
    products go atom by atom, so only one atom's are held.  Without atoms it
    is sqrt(k), with no k x k array.  NotInSpan when W1's basis is not
    closed under products and adjoints."""
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
    star_images = m._values(np.conj(np.swapaxes(w1.basis, 1, 2)))
    star = frob_norm(np.moveaxis(star_images, 0, 1)
                     - np.conj(np.swapaxes(images, 2, 3))).max()
    units = m._values(w1.identity())
    orthogonal = [np.delete(frob_norm(u @ units), x) for x, u in enumerate(units)]
    unital = frob_norm(units.sum(axis=0) - np.eye(k))
    return float(np.hstack([multiplicative, star, unital, *orthogonal]).max())


@dataclass(frozen=True)
class OperatorField:
    """Finite sum of elementary tensors f_i (x) A_i in B (x) W1.

    f_i is a scalar function on the space, stored as its value table: a 1-d
    complex128 array indexed like ``space.points()``, that is the labels of
    a finite space or range(horizon) of a countable one.  A_i is a square
    ndarray in W1; a scalar block model's coefficients are 1x1 matrices.
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


@dataclass(frozen=True)
class CheckEntry:
    name: str
    residual: float
    tol: float
    passed: bool
    flags: tuple = ()


def check_entry(name, residual, tol, flags=()) -> CheckEntry:
    """A named check that passes when residual <= tol."""
    return CheckEntry(
        name=name, residual=float(residual), tol=float(tol),
        passed=bool(residual <= tol), flags=tuple(flags),
    )


def family_entries(names, residuals, tols) -> list[CheckEntry]:
    """One check per name from a family's residual and tol arrays, in
    order."""
    return [check_entry(name, r, t)
            for name, r, t in zip(names, residuals, tols, strict=True)]


@dataclass(frozen=True)
class VerificationReport:
    """A labelled list of checks; passes when every check passes."""

    scenario: str
    checks: tuple  # of CheckEntry
    wall_ms: int = 0
    schema: int = 1

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def to_doc(self) -> dict:
        """The report as a JSON document; a non-finite residual or tol is
        written as null, since JSON has no NaN or infinity."""
        return {
            "schema": self.schema,
            "scenario": self.scenario,
            "checks": [
                {
                    "name": c.name,
                    "residual": _finite_or_none(c.residual),
                    "tol": _finite_or_none(c.tol),
                    "pass": bool(c.passed),
                    "flags": list(c.flags),
                }
                for c in self.checks
            ],
            "pass": self.passed,
            "wall_ms": int(self.wall_ms),
        }


def _finite_or_none(value) -> float | None:
    value = float(value)
    return value if math.isfinite(value) else None


def random_sets(space: DiscreteSpace, rng: np.random.Generator,
                count: int) -> np.ndarray:
    """``count`` random sets of the space's points as one (count, n_points)
    mask, each point in with probability 1/2: one draw of n_points uniforms
    per set."""
    return rng.random((count, len(space.points()))) < 0.5


def condition1_check(
    fam: FamilyMeasures, trials: int = 16, seed: int = 0
) -> VerificationReport:
    """Linear relations among projections must transfer to the measures.

    Seeded random combinations T = sum λ_i P_i are re-expressed by their
    minimum-norm coordinates μ over the family; the two coefficient vectors
    must induce the same measure values on each trial's random set Delta_t.
    The sets are drawn first, then every λ in one call; both sides of every
    trial come from one (2 trials, n n_atoms) @ (n n_atoms, k^2) product of
    the weights λ_i [x in Delta_t] (and μ_i [x in Delta_t]) with the
    compression atoms, the (trials, n_atoms) atom mask read off the sets by
    ``atoms_in``, the rule ``evaluate`` reads.
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
    mask = atoms_in(comp.space, comp.labels, deltas, (trials,))
    weights = np.stack([lams, mus])[..., None] * mask[:, None, :]
    k = comp.atoms.shape[-1]
    lhs, rhs = (weights.reshape(2 * trials, -1)
                @ comp.atoms.reshape(-1, k * k)).reshape(2, trials, k, k)
    scale = 1.0 + np.maximum(frob_norm(lhs), frob_norm(rhs))
    return VerificationReport(scenario="condition1", checks=tuple(family_entries(
        [f"condition1[trial{t}]" for t in range(trials)],
        frob_norm(lhs - rhs), TAU_EXT * scale)))


def condition2_check(fam: FamilyMeasures, deltas: np.ndarray) -> VerificationReport:
    """Witness the uniform bound k_Delta = sup_P ||E_P(Delta)|| per set of
    a (count, n_points) stack of sets.

    Entry ``condition2[delta{i}]`` carries k_Delta for the i-th set and
    passes when it is at most one (up to TAU_NORM_SLACK).
    """
    # each row is one set, which ``evaluate`` checks in turn
    n_points = len(fam.compressions.space.points())
    stack = require_mask(deltas, getattr(deltas, "shape", ())[:-1] + (n_points,))
    entries = []
    for i, delta in enumerate(stack):
        k = op_norm(evaluate(fam.compressions, delta)).max(initial=0.0)
        entries.append(check_entry(
            f"condition2[delta{i}]", k, 1.0 + TAU_NORM_SLACK,
        ))
    return VerificationReport(scenario="condition2", checks=tuple(entries))


@dataclass(frozen=True)
class Condition3Report:
    residual_by_ell: tuple  # of (ell, residual)
    fitted_rate: float
    passed: bool


def condition3_check(
    fam: FamilyMeasures,
    p: np.ndarray,
    q: np.ndarray,
    d1: np.ndarray,
    d2: np.ndarray,
    ell_max: int = 64,
) -> Condition3Report:
    """Limiting-sequence route to the product rule.

    PQ is split into four positive parts; at each ell the Riemann sum of
    linear-extension values over D1 n D2 is compared with E_P(D1) E_Q(D2).
    Passes when the ell_max residual is <= c/ell_max with
    c = CONDITION3_CONSTANT * (1+dim); the log-log decay rate is recorded.
    """
    family = fam.family
    i_p = _family_index(family, p)
    i_q = _family_index(family, q)
    comp = fam.compressions
    lhs = evaluate(comp, d1)[i_p] @ evaluate(comp, d2)[i_q]
    inter = d1 & d2
    parts = star_decompose(p @ q)
    seqs = [limiting_sequence(part, ell_max=ell_max) for part in parts]
    signs = [1.0, -1.0, 1.0j, -1.0j]
    ells = sorted({1, 2, 4, 8, 16, 32, ell_max, ell_max // 2} - {0})
    sums = _riemann_sums(fam, list(zip(signs, seqs)), ells, inter)
    residuals = [(ell, frob_norm(lhs - rhs)) for ell, rhs in zip(ells, sums)]
    dim = family.algebra.ambient_dim
    bound = CONDITION3_CONSTANT * (1.0 + dim) / ell_max
    final = residuals[-1][1]
    rate = _fit_decay_rate(residuals)
    return Condition3Report(
        residual_by_ell=tuple(residuals),
        fitted_rate=rate,
        passed=final <= bound,
    )


def _riemann_sums(
    fam: FamilyMeasures, weighted_seqs: list, ells: list, delta: np.ndarray
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


def _fit_decay_rate(residuals) -> float:
    """Slope of -log(residual) vs log(ell); inf when already at round-off."""
    pts = [(ell, r) for ell, r in residuals if r > RESIDUAL_FLOOR]
    if len(pts) < 2:
        return float("inf")
    xs = np.log([ell for ell, _ in pts])
    ys = np.log([r for _, r in pts])
    slope = np.polyfit(xs, ys, 1)[0]
    return float(-slope)


def assemble_from_family(
    fam: FamilyMeasures, w1: VonNeumannAlgebra
) -> NonNegSpectralMeasure:
    """Build the unique NNSM with M_P = E_P over a spanning family.

    Phi_x is the linear extension of P -> E_P({x}) to W1: one linear_extend
    call, with the compression atoms as an assignment batched over the
    atoms, checks each atom against the member relations (condition (1)
    certifies well-definedness; a violation raises InconsistentAssignment)
    and maps the W1 basis to the (n_atoms, dim W1, k, k) image stack.
    """
    family, comp = fam.family, fam.compressions
    if not family.spans_algebra:
        raise NotSpanning("assembly needs a spanning family")
    m = NonNegSpectralMeasure(comp.space, w1, comp.labels,
                              linear_extend(family, comp.atoms, w1.basis))
    # round trip on the family itself: Phi_x(P_i) must give back E_P_i({x})
    got = np.tensordot(w1.coefficients(family.stack), m.images, axes=(1, 1))
    miss = np.linalg.norm(got - comp.atoms, axis=(2, 3))
    bad = miss > TAU_EXT * (1.0 + np.linalg.norm(comp.atoms, axis=(2, 3)))
    if np.any(bad):
        x = comp.labels[np.nonzero(bad)[1][0]]
        raise NotSpanning(f"reassembly misses E_P({x!r}) by {miss.max():.3e}")
    return m


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


def integrate(m: NonNegSpectralMeasure, fields, delta: np.ndarray) -> np.ndarray:
    """Integral of an operator field over a (n_points,) set Delta,
    sum_i sum_{x in Delta} f_i(x) Phi_x(A_i), as a (k, k) array; or of each
    field of a sequence, as an (n_fields, k, k) stack.  A field with no terms
    integrates to zero.

    Each f_i is a value row with one entry per point of the space; a row of
    another length raises ShapeMismatch.  The columns of the stored atoms in
    Delta (``atoms_in``) are read from the rows, the coordinates of every A_i
    of every field come from one stacked ``coefficients`` call, and each
    field's weights sum_i f_i(x) c(A_i) meet the image stack in one
    contraction.
    """
    inside = np.flatnonzero(atoms_in(m.space, m.labels, delta))
    single = isinstance(fields, OperatorField)
    batch = [fields] if single else list(fields)
    terms = [t for f in batch for t in f.terms]
    out = np.zeros((len(batch),) + (m.target_dim,) * 2, dtype=np.complex128)
    if terms:
        points = m.space.points()
        rows = [np.asarray(v, dtype=np.complex128) for v, _ in terms]
        if any(r.shape != (len(points),) for r in rows):
            raise ShapeMismatch(f"value rows index the space's {len(points)} points")
        columns = [points.index(m.labels[i]) for i in inside]
        fvals = np.stack(rows)[:, columns]
        coeffs = m.w1.coefficients(np.stack([a for _, a in terms]))
        products = fvals[:, :, None] * coeffs[:, None, :]
        # row n of ``picks`` selects the terms of field n
        owner = np.repeat(np.arange(len(batch)), [len(f.terms) for f in batch])
        picks = owner == np.arange(len(batch))[:, None]
        weights = picks @ products.reshape(len(terms), len(inside) * m.w1.dim)
        out = np.tensordot(
            weights.reshape(len(batch), len(inside), m.w1.dim),
            m.images[inside], axes=([1, 2], [0, 1]),
        )
    return out[0] if single else out

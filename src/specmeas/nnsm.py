"""Non-negative spectral measures and bounded integration.

An NNSM assigns to every atom x of a discrete space a linear map
Phi_x: W1 -> B(K), stored through the images of W1's trace-orthonormal basis
as distinct labels beside one (n_atoms, dim W1, k, k) stack, the format of a
SpectralMeasure.  Compressions M_P(Delta) = M(Delta)(P) are spectral
measures, and the product rule M_P(D1) M_Q(D2) = M_{PQ}(D1 n D2) ties the
family together.  The compressions along a projection family share the
NNSM's labels, so they are one SpectralMeasure batched over the members,
and E_P(Delta) for every member is one ``measure.evaluate`` call; M_A(Delta)
for any A in W1 is ``evaluate(m.measure_for(A), Delta)``.
Operator fields store each scalar function as its value table over the
space's points, so integrating one reads the stored atoms' columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    ProjectionFamily,
    VonNeumannAlgebra,
    decompose_over_family,
    limiting_sequence,
    linear_extend,
)
from .errors import (AlgebraMismatch, InfiniteSet, NotSpanning,
                     ShapeMismatch, SpaceMismatch)
from .linalg import adjoint, frob_norm, op_norm, require_square, star_decompose
from .measure import (BorelSet, DiscreteSpace, SpectralMeasure, borel,
                      evaluate, labelled_stack)
from .tolerances import (
    CONDITION3_CONSTANT,
    RESIDUAL_FLOOR,
    TAU_EXT,
    TAU_NORM_SLACK,
    TAU_PROJ,
    TAU_RECON,
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

    def extend_at(self, a: np.ndarray, delta: BorelSet) -> np.ndarray:
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
        return {
            "schema": self.schema,
            "scenario": self.scenario,
            "checks": [
                {
                    "name": c.name,
                    "residual": float(c.residual),
                    "tol": float(c.tol),
                    "pass": bool(c.passed),
                    "flags": list(c.flags),
                }
                for c in self.checks
            ],
            "pass": self.passed,
            "wall_ms": int(self.wall_ms),
        }


def random_sets(space: DiscreteSpace, rng: np.random.Generator, count: int):
    """``count`` random subsets of a finite space, each point in with
    probability 1/2; takes len(space) uniforms per set, all in one draw."""
    pts = space.points()
    return [borel(space, [p for p, m in zip(pts, mask) if m])
            for mask in rng.random((count, len(pts))) < 0.5]


def check_nnsm(
    m: NonNegSpectralMeasure,
    family: ProjectionFamily,
    set_pairs: int = 8,
    seed: int = 0,
) -> VerificationReport:
    """Validate the defining identity of an NNSM against a projection family.

    Per projection: the compression must be a spectral measure (orthogonal
    idempotent atoms).  Per sampled (P, Q, D1, D2): the product rule, with
    every M_{PQ} taken from one ``measure_for`` stack.
    """
    if family.algebra.ambient_dim != m.w1.ambient_dim:
        raise AlgebraMismatch("family lives in a different algebra")
    if not family.members:
        raise NotSpanning("the product rule needs a family member")
    rng = np.random.default_rng(seed)
    comp = m.measure_for(family.stack)
    entries = family_entries(
        [f"spectral-measure[P{i}]" for i in range(len(family.members))],
        comp.validate(), TAU_RECON * (1.0 + frob_norm(comp.total)))
    sets = random_sets(m.space, rng, 2 * set_pairs)
    pairs = [(int(rng.integers(len(family))), int(rng.integers(len(family))))
             for _ in range(set_pairs)]
    products = m.measure_for(np.array(
        [family.stack[i] @ family.stack[j] for i, j in pairs]).reshape(
            set_pairs, *family.stack.shape[1:]))
    for t, (i, j) in enumerate(pairs):
        d1, d2 = sets[2 * t], sets[2 * t + 1]
        lhs = evaluate(comp, d1)[i] @ evaluate(comp, d2)[j]
        rhs = evaluate(products, d1.intersect(d2))[t]
        scale = 1.0 + max(frob_norm(lhs), frob_norm(rhs))
        entries.append(check_entry(
            f"product-rule[P{i},P{j},pair{t}]", frob_norm(lhs - rhs),
            TAU_RECON * scale,
        ))
    return VerificationReport(scenario="check-nnsm", checks=tuple(entries))


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
    compression atoms, the atom mask being the one ``evaluate`` takes.
    """
    family, comp = fam.family, fam.compressions
    if not family.spans_algebra:
        raise NotSpanning("condition (1) checks need a spanning family")
    rng = np.random.default_rng(seed)
    deltas = random_sets(comp.space, rng, trials)
    lams = rng.standard_normal((trials, len(family)))
    mus = decompose_over_family(
        family, np.tensordot(lams, family.stack, axes=1)).T
    mask = np.array([[x in d.members for x in comp.labels] for d in deltas])
    weights = np.stack([lams, mus])[..., None] * mask[:, None, :]
    k = comp.atoms.shape[-1]
    lhs, rhs = (weights.reshape(2 * trials, -1)
                @ comp.atoms.reshape(-1, k * k)).reshape(2, trials, k, k)
    scale = 1.0 + np.maximum(frob_norm(lhs), frob_norm(rhs))
    return VerificationReport(scenario="condition1", checks=tuple(family_entries(
        [f"condition1[trial{t}]" for t in range(trials)],
        frob_norm(lhs - rhs), TAU_EXT * scale)))


def condition2_check(
    fam: FamilyMeasures, deltas: list[BorelSet]
) -> VerificationReport:
    """Witness the uniform bound k_Delta = sup_P ||E_P(Delta)|| per set.

    Entry ``condition2[delta{i}]`` carries k_Delta for the i-th set and
    passes when it is at most one (up to TAU_NORM_SLACK).
    """
    entries = []
    for i, delta in enumerate(deltas):
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
    d1: BorelSet,
    d2: BorelSet,
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
    inter = d1.intersect(d2)
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
    fam: FamilyMeasures, weighted_seqs: list, ells: list, delta: BorelSet
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
    delta: BorelSet,
    ell: int = 4096,
    zeta_rule: str = "right",
) -> np.ndarray:
    """E_A(Delta) as the limiting-sequence value at a large ell.

    For positive A this realizes lim_l E_{S_l(A)}(Delta); the companion exact
    value is FamilyMeasures.extend_at.
    """
    seq = limiting_sequence(a, ell_max=1, zeta_rule=zeta_rule)
    return _riemann_sums(fam, [(1.0, seq)], [ell], delta)[0]


def integrate(
    m: NonNegSpectralMeasure, fields, delta: BorelSet
) -> np.ndarray:
    """Integral of an operator field, sum_i sum_{x in Delta} f_i(x) Phi_x(A_i),
    as a (k, k) array; or of each field of a sequence, as an (n_fields, k, k)
    stack.  A field with no terms integrates to zero.

    Each f_i is a value row with one entry per point of the space; a row of
    another length, or a stored atom in Delta that is not among the points
    (past a countable space's horizon), raises ShapeMismatch.  The columns of the stored atoms in
    Delta are read from the rows, the coordinates of every A_i of every field
    come from one stacked ``coefficients`` call, and each field's weights
    sum_i f_i(x) c(A_i) meet the image stack in one contraction.
    """
    if delta.space != m.space:
        raise SpaceMismatch("set over a different space")
    if delta.cofinite:
        raise InfiniteSet("bounded integration needs a finite set")
    single = isinstance(fields, OperatorField)
    batch = [fields] if single else list(fields)
    terms = [t for f in batch for t in f.terms]
    out = np.zeros((len(batch),) + (m.target_dim,) * 2, dtype=np.complex128)
    if terms:
        points = m.space.points()
        rows = [np.asarray(v, dtype=np.complex128) for v, _ in terms]
        inside = [i for i, x in enumerate(m.labels) if x in delta]
        if any(r.shape != (len(points),) for r in rows) or any(
                m.labels[i] not in points for i in inside):
            raise ShapeMismatch(f"value rows index the space's {len(points)} "
                                "points; Delta's stored atoms must be among them")
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


def positivity_deficit(m: NonNegSpectralMeasure, a: np.ndarray) -> float:
    """Most negative eigenvalue over atoms of Phi_x(A) for positive A."""
    values = m._values(a)
    herm = (values + np.conj(np.swapaxes(values, 1, 2))) / 2.0
    return -float(np.linalg.eigvalsh(herm)[:, 0].min(initial=0.0))

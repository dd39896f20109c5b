"""Seeded scenarios and the four verification pipelines.

Scenarios are generated oracle-first: a ground-truth measure is built, the
representation is induced by integration against it, and the pipeline must
reconstruct the measure from the representation alone.  Reports carry every
residual; a failing stage never aborts the pipeline.  Kinds C' and D
share one pipeline, ``verify_theorem_d``: C' is its scalar case, the block
model over W = C*1.  Kinds A, C' and D draw the random inputs of each check
family as one stack: *-polynomials by ``blocks.random_star_polynomials``
and domain vectors by ``_random_domain_vectors``.  Every batch of operator
fields, B's included, is one OperatorField whose term slots hold stacks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

from . import blocks
from .algebra import (
    ProjectionFamily,
    bicommutant,
    joint_diagonalize,
    sample_projections,
)
from .errors import CapExceeded, InvalidDocument, SpecmeasError
from .linalg import (
    adjoint,
    frob_norm,
    op_norm,
    random_hermitian,
    random_unitary,
)
from .measure import DiscreteSpace, SpectralMeasure
from .nnsm import (
    CheckEntry,
    FamilyMeasures,
    NonNegSpectralMeasure,
    OperatorField,
    VerificationReport,
    assemble_from_family,
    check_entry,
    condition1_check,
    condition2_check,
    condition3_check,
    family_entries,
    integrate,
    random_sets,
    _family_index,
)
from .serialize import generator_rule, load, measure_from_doc, nnsm_from_doc
from .tolerances import (
    MIN_DECAY_RATE,
    TAU_DOC,
    TAU_EXACT,
    TAU_EXT,
    TAU_MATCH,
    TAU_RECON,
    VERDICT_TOL,
)

MAX_H_DIM = 4
MAX_K_DIM = 16
MAX_SPACE = 8
MAX_HORIZON = 64
MIN_HORIZON = 8  # the least horizon that C' and D draw
MIN_FAULT_H_DIM = 2  # condition (1) and a non-normal block need matrices


@dataclass(frozen=True)
class Caps:
    h_dim: int = MAX_H_DIM
    k_dim: int = MAX_K_DIM
    space: int = 6
    horizon: int = 32

    def __post_init__(self):
        if self.h_dim > MAX_H_DIM:
            raise CapExceeded(f"dim H cap {self.h_dim} > {MAX_H_DIM}")
        if self.k_dim > MAX_K_DIM:
            raise CapExceeded(f"dim K cap {self.k_dim} > {MAX_K_DIM}")
        if self.space > MAX_SPACE:
            raise CapExceeded(f"|X| cap {self.space} > {MAX_SPACE}")
        if self.horizon > MAX_HORIZON:
            raise CapExceeded(f"horizon cap {self.horizon} > {MAX_HORIZON}")
        if min(self.h_dim, self.k_dim, self.space, self.horizon) < 1:
            raise CapExceeded("caps must be positive")
        if self.horizon < MIN_HORIZON:
            raise CapExceeded(f"horizon cap {self.horizon} < {MIN_HORIZON}")
        if self.k_dim < self.h_dim:  # kind B fits an atom of dim H into K
            raise CapExceeded(f"dim K cap {self.k_dim} < dim H cap {self.h_dim}")


@dataclass(frozen=True)
class Scenario:
    """Deterministic test case: the oracle plus the induced representation."""

    kind: str  # "A" | "B" | "Cprime" | "D"
    seed: int
    space: DiscreteSpace
    payload: dict = field(default_factory=dict)
    fault: str | None = None

    @property
    def scenario_id(self) -> str:
        tag = f"{self.kind}-{self.seed}"
        return tag if self.fault is None else f"{tag}-fault:{self.fault}"


def _bool_entry(name, ok: bool, flags=()) -> CheckEntry:
    """A verdict row, for a check that has no residual: 0 or 1 against
    VERDICT_TOL."""
    return check_entry(name, 0.0 if ok else 1.0, VERDICT_TOL, flags)


# ---------------------------------------------------------------------------
# scenario generation


def gen_scenario(kind: str, seed: int, caps: Caps = Caps()) -> Scenario:
    rng = np.random.default_rng(seed)
    if kind == "A":
        return _gen_a(seed, rng, caps)
    if kind == "B":
        return _gen_b(seed, rng, caps)
    if kind == "Cprime":
        return _gen_c(seed, rng, caps, with_algebra=False)
    if kind == "D":
        return _gen_c(seed, rng, caps, with_algebra=True)
    raise ValueError(f"unknown scenario kind {kind!r}")


def _gen_a(seed, rng, caps) -> Scenario:
    d = int(rng.integers(1, caps.h_dim + 1))
    n_gen = int(rng.integers(1, 4))
    n_pts = int(rng.integers(1, min(d, caps.space) + 1))
    u = random_unitary(rng, d)
    # each coordinate belongs to one of n_pts characters; every character
    # gets at least one coordinate and a distinct joint value tuple
    owner = list(range(n_pts)) + [
        int(rng.integers(n_pts)) for _ in range(d - n_pts)
    ]
    values = _distinct_tuples(rng, n_pts, n_gen)
    images = {}
    for g in range(n_gen):
        diag = np.array([values[owner[i]][g] for i in range(d)])
        images[f"b{g}"] = u @ np.diag(diag) @ adjoint(u)
    space = DiscreteSpace(labels=tuple(range(n_pts)))
    return Scenario(
        kind="A", seed=seed, space=space,
        payload={"images": images, "values": values},
    )


def _distinct_tuples(rng, n_pts, n_gen):
    values = []
    while len(values) < n_pts:
        tup = tuple(
            complex(rng.integers(-3, 4), rng.integers(-3, 4))
            for _ in range(n_gen)
        )
        if all(max(abs(a - b) for a, b in zip(tup, v)) > 0.5 for v in values):
            values.append(tup)
    return values


def _gen_b(seed, rng, caps) -> Scenario:
    h = int(rng.integers(1, caps.h_dim + 1))
    n_atoms = int(rng.integers(1, min(caps.space, caps.k_dim // h) + 1))
    k = h * n_atoms
    # W1 is either the full matrix algebra or a maximal abelian one
    if h > 1 and rng.integers(2):
        gens = [random_hermitian(rng, h), random_hermitian(rng, h)]
    else:
        gens = [random_hermitian(rng, h)]
    w1 = bicommutant(gens, h)
    u = random_unitary(rng, k)
    space = DiscreteSpace(labels=tuple(range(n_atoms)))
    # Phi_x(b) = U (b (x) D_x) U* with D_x the x-th diagonal unit: b sits on
    # the rows and columns x, x + n_atoms, ... of atom x's block
    placed = np.zeros((n_atoms, w1.dim, k, k), dtype=np.complex128)
    for x in range(n_atoms):
        placed[x, :, x::n_atoms, x::n_atoms] = w1.basis
    images = u @ placed @ adjoint(u)
    oracle = NonNegSpectralMeasure(space, w1, images)
    return Scenario(
        kind="B", seed=seed, space=space,
        payload={"oracle": oracle},
    )


def _gen_c(seed, rng, caps, with_algebra: bool) -> Scenario:
    horizon = int(rng.integers(MIN_HORIZON, caps.horizon + 1))
    n_gen = int(rng.integers(1, 3))
    gens = {}
    for g in range(n_gen):
        kind_pick = int(rng.integers(3))
        if kind_pick == 0:
            coeffs = [[float(rng.integers(-2, 3)), 0.0] for _ in range(3)]
            gens[f"g{g}"] = generator_rule({"kind": "poly", "coeffs": coeffs})
        elif kind_pick == 1:
            gens[f"g{g}"] = generator_rule(
                {"kind": "exp-index", "rate": -float(rng.uniform(0.1, 1.0))}
            )
        else:
            gens[f"g{g}"] = generator_rule(
                {"kind": "bounded-const",
                 "value": [float(rng.integers(-2, 3)), float(rng.integers(-2, 3))]}
            )
    w = blocks.scalars()
    if with_algebra:
        # 2..3, within the cap; at h >= 3 this is the draw integers(2, 4)
        dim = int(rng.integers(min(2, caps.h_dim), min(3, caps.h_dim) + 1))
        w = bicommutant(
            [random_hermitian(rng, dim), random_hermitian(rng, dim)], dim
        )
    model = blocks.BlockModel(
        space=DiscreteSpace(horizon=horizon),
        generators=gens,
        w=w,
    )
    kind = "D" if with_algebra else "Cprime"
    return Scenario(
        kind=kind, seed=seed, space=model.space,
        payload={"model": model},
    )


def number_operator_scenario(horizon: int = 32) -> Scenario:
    """The canonical diagonal model: one generator f(k) = k."""
    model = blocks.BlockModel(
        space=DiscreteSpace(horizon=horizon),
        generators={"num": generator_rule(
            {"kind": "poly", "coeffs": [[0.0, 0.0], [1.0, 0.0]]})},
    )
    return Scenario(
        kind="Cprime", seed=-1, space=model.space,
        payload={"model": model},
    )


# ---------------------------------------------------------------------------
# fault injection


FAULT_CLASSES = (
    "non-idempotent-projection",
    "broken-condition1",
    "non-normal-block",
    "denormalized-m",
)


def inject_fault(scenario: Scenario, fault: str, magnitude: float = 1e-3) -> Scenario:
    """Corrupt a scenario so a named check must catch it."""
    rng = np.random.default_rng(scenario.seed ^ 0x5EED)
    if fault in ("non-idempotent-projection", "denormalized-m"):
        oracle: NonNegSpectralMeasure = scenario.payload["oracle"]
        i = int(rng.integers(len(scenario.space)))
        images = oracle.images.copy()
        if fault == "denormalized-m":
            images[i] = (1.0 + magnitude) * images[i]
        else:
            images[i] = images[i] + magnitude * np.eye(oracle.target_dim)
        bad = NonNegSpectralMeasure(oracle.space, oracle.w1, images)
        return replace(scenario, payload={"oracle": bad}, fault=fault)
    if fault == "broken-condition1":
        # the compressions themselves get corrupted after derivation, no
        # linear Phi_x can express the fault; record the directive only
        payload = dict(scenario.payload)
        payload["measure_bump"] = magnitude
        return replace(scenario, payload=payload, fault=fault)
    if fault == "non-normal-block":
        model: blocks.BlockModel = scenario.payload["model"]
        n_bad = int(rng.integers(model.horizon))
        payload = dict(scenario.payload)
        payload["field"] = _non_normal_field(model, n_bad, magnitude)
        return replace(scenario, payload=payload, fault=fault)
    raise ValueError(f"unknown fault class {fault!r}")


def _non_normal_field(model, n_bad, magnitude):
    dim = model.block_dim
    if dim < 2:
        raise ValueError("non-normal block faults need a matrix block model")
    nil = np.zeros((dim, dim), dtype=np.complex128)
    nil[0, 1] = magnitude

    spike = np.zeros(model.horizon, dtype=np.complex128)
    spike[n_bad] = 1.0
    # the bare nilpotent spike keeps the non-normality visible against the
    # scale-aware residual regardless of the generators' growth
    return OperatorField(terms=((spike, nil),))


# ---------------------------------------------------------------------------
# *-polynomial test set (kind A)


def _generator_monomials(n_names):
    """The generators, their adjoints and the pairwise products as
    *-polynomials (codes, coeffs) in the slots of ``random_star_polynomials``
    at degree 3: one monomial of coefficient 1 each."""
    gens = 2 * np.arange(n_names)  # the codes of the generators
    codes = np.full((2 * n_names + n_names ** 2, 3, 3), 2 * n_names)
    codes[:2 * n_names, 0, 0] = np.concatenate([gens, gens + 1])
    codes[2 * n_names:, 0, 0] = np.repeat(gens, n_names)
    codes[2 * n_names:, 0, 1] = np.tile(gens, n_names)
    coeffs = np.zeros(codes.shape[:2], dtype=np.complex128)
    coeffs[:, 0] = 1.0
    return codes, coeffs


# ---------------------------------------------------------------------------
# pipelines


def verify_theorem_a(scenario: Scenario) -> VerificationReport:
    """Bounded commutative case: ρ(b) = ∫ f_b dE for a constructed E."""
    t0 = time.perf_counter()
    images: dict = scenario.payload["images"]
    names = sorted(images)
    d = images[names[0]].shape[0]
    rng = np.random.default_rng(scenario.seed + 1)
    try:
        atlas = joint_diagonalize([images[n] for n in names])
    except SpecmeasError as exc:
        return _finish(scenario, [_bool_entry(
            f"diagonalize[{type(exc).__name__}]", False, flags=(str(exc),))], t0)
    # (i) representation on the *-polynomial test set, the fixed monomials
    # and six drawn polynomials: a product over the code slots of the
    # images' table against the atlas-weighted projections
    drawn = blocks.random_star_polynomials(rng, len(names), 6, degree=3)
    codes, coeffs = (np.concatenate(pair)
                     for pair in zip(_generator_monomials(len(names)), drawn))
    mats = blocks.factor_table([images[n] for n in names], np.eye(d))
    lhs = coeffs[..., None, None] * np.eye(d)
    for s in range(codes.shape[-1]):
        lhs = lhs @ mats[codes[..., s]]
    lhs = lhs.sum(axis=1)
    weights = blocks.star_values(
        codes, coeffs, blocks.factor_table(atlas.values.T, np.ones(len(atlas.values))))
    rhs = (weights[..., None, None] * atlas.projections).sum(axis=1)
    checks = family_entries(
        [f"represent[poly{t}]" for t in range(len(codes))],
        frob_norm(lhs - rhs), TAU_RECON * (1.0 + frob_norm(lhs)))
    # (ii) atoms lie in the generated algebra
    w = bicommutant([images[n] for n in names], d)
    n_pts = len(atlas.projections)
    checks += family_entries(
        [f"atom-membership[{i}]" for i in range(n_pts)],
        w.membership_residual(atlas.projections), np.full(n_pts, TAU_RECON))
    # (iii) uniqueness: diagonalizing the generators again, in a permuted
    # order, must give every point back with the same projection; points
    # match when their value rows agree within TAU_MATCH.  The identity
    # order would repeat the first call on the same list, so it reuses it
    order = rng.permutation(len(names))
    again = atlas if np.array_equal(order, np.arange(len(names))) else (
        joint_diagonalize([images[names[g]] for g in order]))
    again_values = again.values[:, np.argsort(order)]
    dist = np.abs(atlas.values[:, None] - again_values[None]).max(axis=2)
    near = dist < TAU_MATCH
    miss = frob_norm(atlas.projections - again.projections[near.argmax(axis=1)])
    checks += family_entries(
        [f"uniqueness[atom{i}]" for i in range(n_pts)],
        np.where(near.any(axis=1), miss, 1.0), np.full(n_pts, TAU_EXT))
    return _finish(scenario, checks, t0)


def _derive_family_measures(
    rho, oracle: NonNegSpectralMeasure, seed: int, n: int = 10
) -> FamilyMeasures:
    """E_P from the representation alone: E_P({x}) = ρ(1_x ⊗ P)."""
    fam = sample_projections(oracle.w1, n=n, seed=seed)
    # one ρ call over the (member, point) indicator fields 1_x (x) P: the
    # one-hot rows against the member stack
    one_hot = np.eye(len(oracle.space), dtype=np.complex128)
    values = rho(OperatorField(terms=((one_hot, fam.stack[:, None]),)))
    return FamilyMeasures(fam, SpectralMeasure(oracle.space, values))


def verify_theorem_b(scenario: Scenario) -> VerificationReport:
    """Bounded 𝒲₁-valued case: reconstruct M from ρ and round-trip it.

    Each check family is one residual array beside one tol array, with one
    row per family member, atom or field."""
    t0 = time.perf_counter()
    checks = [c for family in _theorem_b_families(scenario) for c in family]
    return _finish(scenario, checks, t0)


def _theorem_b_families(scenario: Scenario):
    """Kind B's check families as lists of rows, in report order; a failed
    assembly yields its flagged row and ends the pipeline.  Each stage runs
    only when the next family is asked for, so a reader may stop early."""
    oracle: NonNegSpectralMeasure = scenario.payload["oracle"]
    whole = np.ones(len(oracle.space), dtype=bool)

    def rho(field_: OperatorField) -> np.ndarray:
        return integrate(oracle, field_, whole)

    rng = np.random.default_rng(scenario.seed + 2)
    # (1)+(2): compressions from ρ, each a spectral measure
    fm = _derive_family_measures(rho, oracle, seed=scenario.seed + 3)
    comp = fm.compressions
    yield family_entries(
        [f"compression[P{i}]" for i in range(len(fm.family.members))],
        comp.validate(), TAU_RECON * (1.0 + frob_norm(comp.total)))
    # (3) assemble M; (round trip vs the oracle atom maps).  supp E_P lies
    # in supp E_id by construction: E_P({x}) = Phi_x(P) is 0 where Phi_x(1) is
    try:
        rebuilt = assemble_from_family(fm, oracle.w1)
    except SpecmeasError as exc:
        yield [_bool_entry(f"assemble[{type(exc).__name__}]", False,
                           flags=(str(exc),))]
        return
    # both measures are indexed by space.points(); the worst basis image
    # per point
    yield family_entries(
        [f"reconstruction[{x}]" for x in oracle.space.points()],
        frob_norm(rebuilt.images - oracle.images).max(axis=1),
        TAU_EXT * (1.0 + frob_norm(oracle.images[:, 0])))
    # (4) normalization
    yield [check_entry(
        "normalization",
        frob_norm(rebuilt.measure_for(oracle.w1.identity()).total
                  - np.eye(rebuilt.target_dim)),
        TAU_RECON * (1.0 + rebuilt.target_dim),
    )]
    # (5) representation on random fields
    fields, rows, elements = _random_fields(rng, oracle, 20, 5)
    lhs = rho(fields)
    yield family_entries(
        [f"represent[F{t}]" for t in range(len(lhs))],
        frob_norm(lhs - integrate(rebuilt, fields, whole)),
        TAU_RECON * (1.0 + frob_norm(lhs)))
    # (6) boundedness witness for rho_b: fields b (x) A and b (x) id per t
    unit = np.broadcast_to(oracle.w1.identity(), elements.shape)
    rho_b = op_norm(rho(OperatorField(
        terms=((rows[:, None], np.stack([elements, unit], axis=1)),))))
    bound = rho_b[:, 1] * op_norm(elements)
    yield family_entries(
        [f"rho_b-bound[{t}]" for t in range(len(elements))],
        np.maximum(0.0, rho_b[:, 0] - bound), TAU_RECON * (1.0 + bound))


def _random_fields(rng, m: NonNegSpectralMeasure, n_fields: int, count: int):
    """``n_fields`` random operator fields as one field of three stacked
    term slots, then ``count`` (value row, hermitian element of W1) pairs,
    as (field, rows, elements).  A field draws its term count by
    integers(1, 4), then a standard_normal row per term: a value row's real
    and imaginary parts point by point, then an element's 2 * dim W1 draws.
    Term t of field i is draw row t * n_fields + i; a missing term's row is
    zero, an exact-zero value row and element.  One hermitian_elements call
    builds every element."""
    n, d = len(m.space), m.w1.ambient_dim
    width = 2 * n + 2 * m.w1.dim
    draws = np.zeros((3 * n_fields + count, width))
    for i in range(n_fields):
        terms = int(rng.integers(1, 4))
        draws[i::n_fields][:terms] = rng.standard_normal((terms, width))
    draws[3 * n_fields:] = rng.standard_normal((count, width))
    rows = np.ascontiguousarray(draws[:, :2 * n]).view(np.complex128)
    elements = m.w1.hermitian_elements(
        draws[:, 2 * n:].reshape(len(draws), 2, m.w1.dim))
    field_ = OperatorField(terms=tuple(zip(
        rows[:3 * n_fields].reshape(3, n_fields, n),
        elements[:3 * n_fields].reshape(3, n_fields, d, d))))
    return field_, rows[3 * n_fields:], elements[3 * n_fields:]


def verify_theorem_c(scenario: Scenario) -> VerificationReport:
    """Unbounded commutative case: kind D's pipeline on a scalar block
    model, the model over W = C*1.  The name stays while
    ``perfbench/tracing.py`` traces it (``TRACED``), and goes once that
    entry does (ROADMAP item 6)."""
    return verify_theorem_d(scenario)


def _rho_polynomial(model, codes, coeffs, x) -> blocks.DomainVector:
    """ρ(p) x for each *-polynomial of a (checks, monomials, slots) code
    stack, on its vector of a (checks, ...) stack: one ρ per factor slot,
    right to left, on each monomial's ``factor_rows`` row (the constant's
    row of ones is exact), then per monomial its coefficient, the monomials
    summed in order."""
    unit = model.w.identity()
    y = blocks.DomainVector(x.block[:, None])
    for s in reversed(range(codes.shape[-1])):
        y = blocks.rho_apply(model, model.factor_rows[codes[..., s]], unit, y)
    terms = np.moveaxis(coeffs[..., None, None] * y.block, 1, 0)
    return blocks.DomainVector(sum(terms[1:], terms[0]))


def _truncate_to_eps(coeffs, eps):
    """D0 density witness for the (infinitely supported) target whose block
    coefficients are the rows of ``coeffs``: keep the rows below the
    smallest horizon h >= 1 whose tail is within eps, and return that member
    with its tail norm.  The tail norms of every h come from one reverse
    cumulative sum; the returned tail sums the dropped rows in order.  The
    rows' masses are the inner products of a stack of one-block vectors."""
    kept = np.array(coeffs, dtype=np.complex128)
    rows = blocks.DomainVector(kept[:, None])
    mass = rows.inner(rows).real
    tails = np.sqrt(np.cumsum(mass[::-1])[::-1])
    within = np.flatnonzero(tails[1:] <= eps)
    horizon = int(within[0]) + 1 if within.size else len(coeffs)
    kept[horizon:] = 0.0
    return blocks.DomainVector(kept), float(np.sqrt(sum(mass[horizon:].tolist())))


def _random_domain_vectors(rng, model, count) -> blocks.DomainVector:
    """A stack of ``count`` vectors, each supported on min(3, horizon)
    distinct blocks, a uniform subset: the first blocks of the argsort of one
    row of uniforms per vector.  One standard normal draw then holds every
    component's real and imaginary parts."""
    horizon, dim = model.horizon, model.block_dim
    picks = np.argsort(rng.random((count, horizon)), axis=1)[:, :3]
    parts = rng.standard_normal((*picks.shape, dim, 2)).view(np.complex128)
    block = np.zeros((count, horizon, dim), dtype=np.complex128)
    block[np.arange(count)[:, None], picks] = parts[..., 0]
    return blocks.DomainVector(block)


def verify_theorem_d(scenario: Scenario) -> VerificationReport:
    """Unbounded case on a block model, 𝒲-valued (kind D) or scalar (kind
    C', 𝒲 = C*1): ρ(p ⊗ A) x on D0 against the integral of the field p ⊗ A,
    for six drawn *-polynomials p in the generators, coefficients A and
    vectors x.  ρ(b ⊗ A) acts on block n as f_b(n) * A, so integrability,
    domain inclusion and support containment hold for every drawn model and
    no row tests them; an injected field's integrability row leads the
    report."""
    t0 = time.perf_counter()
    model: blocks.BlockModel = scenario.payload["model"]
    checks: list[CheckEntry] = []
    injected = scenario.payload.get("field")
    if injected is not None:
        checks.append(_injected_row(model, injected))
    rng = np.random.default_rng(scenario.seed + 7)
    xs = _random_domain_vectors(rng, model, 6)
    codes, coeffs = blocks.random_star_polynomials(
        rng, len(model.generators), 6, degree=3)
    dim = model.block_dim
    a = rng.standard_normal((6, dim, dim, 2)).view(np.complex128)[..., 0]
    # the ρ side takes ρ(1 ⊗ A), then ρ(p ⊗ 1) one factor slot at a time;
    # the integral side reads the block actions p(n) * A of the field and
    # never calls ρ.  The tolerance scales with the integral side.  Unused
    # monomial slots are constant monomials of coefficient 0, exact zeros in
    # every sum
    lhs = _rho_polynomial(model, codes, coeffs,
                          blocks.rho_apply(model, model.factor_rows[-1], a, xs))
    field_ = OperatorField(terms=(
        (blocks.star_values(codes, coeffs, model.factor_rows), a),))
    rhs = blocks.i_m_apply(field_, model, xs)
    checks += family_entries([f"represent[x{t}]" for t in range(len(codes))],
                             lhs.sub(rhs).norm(), TAU_EXACT * (1.0 + rhs.norm()))
    return _finish(scenario, checks, t0)


def _injected_row(model, field_) -> CheckEntry:
    """An injected field's integrability row: its worst blockwise normality
    residual against TAU_RECON, named by the block that holds it."""
    resid, worst = blocks.integrability_check(model, field_)
    return check_entry(f"integrable[injected;block{worst}]", resid, TAU_RECON)


def _finish(scenario, checks, t0) -> VerificationReport:
    wall = int(round(1000.0 * (time.perf_counter() - t0)))
    return VerificationReport(
        scenario=scenario.scenario_id, checks=tuple(checks), wall_ms=wall,
    )


VERIFIERS = {
    "A": verify_theorem_a,
    "B": verify_theorem_b,
    "Cprime": verify_theorem_c,
    "D": verify_theorem_d,
}


def run_scenario(kind: str, seed: int, caps: Caps = Caps()) -> VerificationReport:
    return VERIFIERS[kind](gen_scenario(kind, seed, caps))


def run_suite(
    kind: str, seed: int, count: int, caps: Caps = Caps()
) -> list[VerificationReport]:
    """Independent scenarios seed..seed+count-1, reports sorted by id."""
    reports = [run_scenario(kind, s, caps) for s in range(seed, seed + count)]
    return sorted(reports, key=attrgetter("scenario"))


def characterization_reports(
    scenario: Scenario, tuples: int = 4
) -> list[VerificationReport]:
    """Conditions (1)-(3) on a kind-B oracle family, one report per facet."""
    oracle: NonNegSpectralMeasure = scenario.payload["oracle"]
    fam = sample_projections(oracle.w1, n=10, seed=scenario.seed + 9)
    fm = FamilyMeasures(fam, oracle.measure_for(fam.stack))
    rng = np.random.default_rng(scenario.seed + 10)
    checks: list[CheckEntry] = []
    checks += condition1_check(fm, trials=8, seed=scenario.seed + 11).checks
    checks += condition2_check(fm, random_sets(oracle.space, rng, 4)).checks
    for t in range(tuples):
        p = fam.members[int(rng.integers(len(fam.members)))]
        q = fam.members[int(rng.integers(len(fam.members)))]
        d1, d2 = random_sets(oracle.space, rng, 2)
        rep3 = condition3_check(fm, p, q, d1, d2, ell_max=64)
        checks.append(_bool_entry(
            f"condition3[tuple{t};rate={rep3.fitted_rate:.2f}]",
            rep3.passed and (rep3.fitted_rate >= MIN_DECAY_RATE),
        ))
    return [VerificationReport(
        scenario=f"{scenario.scenario_id}-conditions", checks=tuple(checks),
    )]


def fault_report(fault: str, seed: int, caps: Caps = Caps()) -> VerificationReport:
    """Inject one fault class and report whether a named check caught it."""
    if fault not in FAULT_CLASSES:
        raise ValueError(f"unknown fault class {fault!r}")
    if caps.h_dim < MIN_FAULT_H_DIM:
        raise CapExceeded(f"fault injection needs dim H cap >= {MIN_FAULT_H_DIM}")
    if fault == "non-normal-block":
        base = gen_scenario("D", seed, caps)
        bad = inject_fault(base, fault)
        row = _injected_row(bad.payload["model"], bad.payload["field"])
        detected = not row.passed
        detail = row.name
    elif fault == "broken-condition1":
        base = _gen_b_nondegenerate(seed, caps)
        bad = inject_fault(base, fault)
        oracle: NonNegSpectralMeasure = bad.payload["oracle"]
        fam = sample_projections(oracle.w1, n=10, seed=seed + 9)
        # adjoin complements: the relations P + (id - P) - id = 0 bind the
        # identity, so a bump on E_id must surface as a condition-1 violation
        eye = np.eye(oracle.w1.ambient_dim, dtype=np.complex128)
        aug = fam.members + tuple(eye - p for p in fam.members[2:])
        fam = ProjectionFamily(algebra=fam.algebra, members=aug)
        comp = oracle.measure_for(fam.stack)
        # the bump on the first point's atom leaves E_id(X) as it was
        atoms = comp.atoms.copy()
        atoms[_family_index(fam, eye), 0] += (
            bad.payload["measure_bump"] * np.eye(oracle.target_dim))
        fm = FamilyMeasures(fam, replace(comp, atoms=atoms))
        rep = condition1_check(fm, trials=24, seed=seed + 13)
        detected = not rep.passed
        detail = "condition1"
    else:
        base = gen_scenario("B", seed, caps)
        bad = inject_fault(base, fault)
        # the first failing family decides, so no later stage runs
        detected = any(not c.passed for family in _theorem_b_families(bad)
                       for c in family)
        detail = "theorem-b-pipeline"
    return VerificationReport(
        scenario=f"fault:{fault}-{seed}",
        checks=(_bool_entry(f"fault-detected[{detail}]", detected),),
    )


def _gen_b_nondegenerate(seed: int, caps: Caps) -> Scenario:
    # scalar W1 has unique decompositions, so condition (1) is vacuous there;
    # walk deterministic sub-seeds until the algebra has dim >= 2; dim H is
    # the first draw of _gen_b, so only the sub-seed returned is generated
    for j in range(64):
        sub = (seed << 6) + j
        if np.random.default_rng(sub).integers(1, caps.h_dim + 1) >= 2:
            return gen_scenario("B", sub, caps)
    raise SpecmeasError("could not generate a nondegenerate kind-B scenario")


def check_measure_file(path) -> VerificationReport:
    """Validate a serialized spectral measure or NNSM document.  Entries
    near the float range overflow to an inf or NaN residual, which fails its
    check, so the read and check run with NumPy's overflow warnings off."""
    checks: list[CheckEntry] = []
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            doc = load(path)
            if "atom_maps" in doc:
                _, resid = nnsm_from_doc(doc)
                kind = "nnsm"
            else:
                _, resid = measure_from_doc(doc)
                kind = "spectral-measure"
        checks.append(check_entry(
            f"{kind}-invariants", resid, TAU_DOC,
        ))
    except (InvalidDocument, KeyError, TypeError) as exc:
        checks.append(_bool_entry(f"document[{type(exc).__name__}]", False,
                                  flags=(str(exc),)))
    return VerificationReport(scenario=f"check-measure:{path}", checks=tuple(checks))

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmeas import algebra, harness, linalg, measure, nnsm
from specmeas.errors import NotSpanning, ShapeMismatch
from specmeas.tolerances import TAU_ALG, TAU_DOC, TAU_NORM_SLACK, TAU_PROJ

from conftest import (hermitian_element, member_measure, point_mask, stacked_fields,
                      tensor_model)


def family_for(m: nnsm.NonNegSpectralMeasure, seed: int = 0) -> algebra.ProjectionFamily:
    return algebra.sample_projections(m.w1, n=10, seed=seed)


def family_measures_for(m: nnsm.NonNegSpectralMeasure, seed: int = 0) -> nnsm.FamilyMeasures:
    fam = family_for(m, seed)
    return nnsm.FamilyMeasures(fam, m.measure_for(fam.members))


def test_tensor_model_is_valid_nnsm():
    m, _, _ = tensor_model(seed=1)
    assert nnsm.definition_residual(m) <= TAU_DOC
    eye = np.eye(m.target_dim)
    total = m.measure_for(m.w1.identity()).total
    assert linalg.frob_norm(total - eye) <= 1e-8 * (
        1 + m.target_dim)


def test_compression_of_zero_and_identity():
    m, _, _ = tensor_model(seed=2)
    z = np.zeros((m.w1.ambient_dim,) * 2, dtype=complex)
    e0 = m.measure_for(z)
    assert linalg.frob_norm(e0.total) <= 1e-12
    e1 = m.measure_for(m.w1.identity())
    assert np.allclose(e1.total, np.eye(m.target_dim), atol=1e-10)


def test_m_a_linear_in_a():
    m, _, rng = tensor_model(seed=3)
    a = hermitian_element(m.w1, rng)
    b = hermitian_element(m.w1, rng)
    delta = point_mask(m.space, {0, 2})
    def m_a(x):
        return measure.evaluate(m.measure_for(x), delta)

    lhs = m_a(2.0 * a + 1j * b)
    rhs = 2.0 * m_a(a) + 1j * m_a(b)
    assert linalg.frob_norm(lhs - rhs) <= 1e-10 * (1 + linalg.frob_norm(rhs))


def test_condition1_passes_on_model():
    m, _, _ = tensor_model(seed=4)
    fm = family_measures_for(m)
    residual, tol = nnsm.condition1_check(fm)
    assert np.all(residual <= tol)


def test_condition2_unit_bound():
    m, _, _ = tensor_model(seed=5)
    fm = family_measures_for(m)
    space = m.space
    deltas = np.stack([point_mask(space, {0}), point_mask(space, {1, 2}),
                       point_mask(space, space.points())])
    k = nnsm.condition2_check(fm, deltas)
    # compressions of projections have norm at most one
    assert np.max(k) <= 1.0 + 1e-9


def test_condition2_entries_match_reference_and_can_fail():
    m, _, _ = tensor_model(seed=5)
    fm = family_measures_for(m)
    space = m.space
    deltas = np.stack([point_mask(space, {0}), point_mask(space, {1, 2}),
                       point_mask(space, space.points()), point_mask(space, ())])
    k = nnsm.condition2_check(fm, deltas)
    assert k.shape == (len(deltas),)
    comp = fm.compressions
    measures = [member_measure(comp, i) for i in range(len(fm.family.members))]
    for k_delta, delta in zip(k, deltas):
        want = max(linalg.op_norm(measure.evaluate(e, delta))
                   for e in measures)
        assert k_delta == want
    assert np.all(k <= 1.0 + TAU_NORM_SLACK)
    # doubling the largest compression pushes k_X to 2
    i = max(range(len(measures)),
            key=lambda j: linalg.op_norm(measures[j].total))
    atoms, totals = comp.atoms.copy(), comp.total.copy()
    atoms[i] *= 2.0
    totals[i] *= 2.0
    bad = nnsm.condition2_check(nnsm.FamilyMeasures(
        fm.family, measure.SpectralMeasure(space, atoms, totals)),
        deltas)
    assert not np.all(bad <= 1.0 + TAU_NORM_SLACK)
    assert bad[2] == pytest.approx(2.0)
    assert not bad[2] <= 1.0 + TAU_NORM_SLACK and bad[3] <= 1.0 + TAU_NORM_SLACK


def test_condition2_equals_the_per_set_loop():
    # one masked sum and one stacked op_norm give each set's k_Delta bit for
    # bit as one evaluate call and one op_norm per set; the empty set, the
    # whole space and a one-set stack included
    models = [harness.gen_scenario("B", seed).payload["oracle"] for seed in range(30)]
    models += [tensor_model(seed=s, h_dim=h, n_atoms=n)[0]
               for s, (h, n) in enumerate([(1, 1), (1, 3), (2, 1), (3, 2)])]
    for t, m in enumerate(models):
        fm = family_measures_for(m, seed=t)
        n = len(m.space)
        sets = np.concatenate([nnsm.random_sets(m.space, np.random.default_rng(t), 5),
                               [np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]])
        want = [linalg.op_norm(measure.evaluate(fm.compressions, d)).max(initial=0.0)
                for d in sets]
        got = nnsm.condition2_check(fm, sets)
        assert got.shape == (len(sets),)
        assert np.array(want).tobytes() == got.tobytes()
        for d, k in zip(sets, want):
            assert nnsm.condition2_check(fm, d[None]).tobytes() == np.float64(k).tobytes()
        assert nnsm.condition2_check(fm, sets[:0]).shape == (0,)
        with pytest.raises(ShapeMismatch):
            nnsm.condition2_check(fm, sets[0])


def test_operator_field_one_by_one_coefficients():
    # a scalar model's coefficients are 1x1 matrices, and stay 1x1
    fv = np.arange(4, dtype=complex) * (1.0 + 1.0j)
    gv = np.full(4, 1.0j)
    f = nnsm.OperatorField(terms=((fv, np.array([[2.0 - 1.0j]])),))
    g = nnsm.OperatorField(terms=((gv, np.array([[0.5 + 0.5j]])),))
    fields = (f.star(), f.product(g), f.scale(3.0), f + g,
              f.star().product(g.scale(1.0j)))
    for field_ in fields:
        for v, a in field_.terms:
            assert a.shape == (1, 1) and a.dtype == np.complex128
            assert v.shape == (4,) and v.dtype == np.complex128
    # the value rows follow the array algebra: conj, pointwise product, scale
    ((fs, cs),) = f.star().terms
    assert cs[0, 0] == 2.0 + 1.0j and np.array_equal(fs, np.conj(fv))
    assert fs[3] == 3.0 - 3.0j
    ((fp, cp),) = f.product(g).terms
    assert cp[0, 0] == (2.0 - 1.0j) * (0.5 + 0.5j) and np.array_equal(fp, fv * gv)
    assert fp[2] == -2.0 + 2.0j
    ((fl, cl),) = f.scale(3.0).terms
    assert cl[0, 0] == 2.0 - 1.0j and np.array_equal(fl, 3.0 * fv)
    assert fl[2] == 6.0 + 6.0j
    (_, cf), (_, cg) = (f + g).terms
    assert (cf[0, 0], cg[0, 0]) == (2.0 - 1.0j, 0.5 + 0.5j)


def test_condition3_converges():
    m, _, _ = tensor_model(seed=6)
    fam = family_for(m)
    fm = nnsm.FamilyMeasures(fam, m.measure_for(fam.members))
    d1 = point_mask(m.space, {0, 1})
    d2 = point_mask(m.space, {1, 2})
    residuals, bound = nnsm.condition3_check(fm, 2, 3, d1, d2)
    assert residuals[-1] <= bound
    assert residuals[-1] <= 10.0 * (1 + m.w1.ambient_dim) / 64.0
    # residuals decay like 1/ell or better (or sit at round-off)
    assert nnsm.decay_rate(residuals) >= 0.8


def test_assemble_round_trip():
    m, _, rng = tensor_model(seed=7)
    fam = family_for(m)
    fm = nnsm.FamilyMeasures(fam, m.measure_for(fam.members))
    rebuilt = nnsm.assemble_from_family(fm, m.w1)
    for x in m.space.points():
        for _ in range(3):
            a = hermitian_element(m.w1, rng)
            got = rebuilt.apply(x, a)
            want = m.apply(x, a)
            assert linalg.frob_norm(got - want) <= 1e-8 * (1 + linalg.frob_norm(want))


def test_assemble_needs_spanning_family():
    m, _, _ = tensor_model(seed=8)
    small = algebra.ProjectionFamily(
        algebra=m.w1,
        members=(np.zeros((m.w1.ambient_dim,) * 2, dtype=complex),),
    )
    assert not small.spans_algebra
    fm = nnsm.FamilyMeasures(small, m.measure_for(small.members))
    with pytest.raises(NotSpanning):
        nnsm.assemble_from_family(fm, m.w1)


def test_extension_by_limit_matches_exact():
    m, _, rng = tensor_model(seed=9)
    fam = family_for(m)
    fm = nnsm.FamilyMeasures(fam, m.measure_for(fam.members))
    a = hermitian_element(m.w1, rng)
    delta = point_mask(m.space, {0, 2})
    exact = fm.extend_at(a, delta)
    approx = nnsm.extension_by_limit(fm, a, delta, ell=1 << 17)
    assert linalg.frob_norm(approx - exact) <= 1e-5 * (1 + linalg.frob_norm(exact))
    mid = nnsm.extension_by_limit(fm, a, delta, ell=1 << 17, zeta_rule="mid")
    assert linalg.frob_norm(mid - exact) <= 1e-5 * (1 + linalg.frob_norm(exact))


def test_integrate_laws():
    m, _, rng = tensor_model(seed=10)
    delta = point_mask(m.space, m.space.points())
    a = hermitian_element(m.w1, rng)
    b = hermitian_element(m.w1, rng)
    pts = np.array(m.space.points(), dtype=complex)
    f = nnsm.OperatorField(terms=((pts + 1.0, a),))
    g = nnsm.OperatorField(terms=((1.0 / (pts + 1.0), b),))
    i_f = nnsm.integrate(m, f, delta)
    i_g = nnsm.integrate(m, g, delta)
    # additivity
    both = nnsm.integrate(m, f + g, delta)
    assert linalg.frob_norm(both - (i_f + i_g)) <= 1e-9 * (1 + linalg.frob_norm(both))
    # star law
    i_fs = nnsm.integrate(m, f.star(), delta)
    assert linalg.frob_norm(i_fs - linalg.adjoint(i_f)) <= 1e-9 * (
        1 + linalg.frob_norm(i_f))
    # product law holds because the field values at distinct atoms multiply
    # through disjoint projections in the tensor model
    i_fg = nnsm.integrate(m, f.product(g), delta)
    assert linalg.frob_norm(i_fg - i_f @ i_g) <= 1e-8 * (1 + linalg.frob_norm(i_fg))


def test_integrate_positivity():
    m, _, rng = tensor_model(seed=11)
    c = linalg.random_complex(rng, m.w1.ambient_dim, m.w1.ambient_dim)
    pos = c @ linalg.adjoint(c)
    if m.w1.membership_residual(pos) > TAU_ALG * (1 + linalg.frob_norm(pos)):
        pos = m.w1.identity()
    for x in m.space.points():
        phi = _ref_phi(m, x, pos)
        assert np.linalg.eigvalsh((phi + linalg.adjoint(phi)) / 2)[0] >= -1e-9
    field = nnsm.OperatorField(terms=((np.ones(len(m.space.points())), pos),))
    val = nnsm.integrate(m, field, point_mask(m.space, m.space.points()))
    assert np.linalg.eigvalsh((val + linalg.adjoint(val)) / 2)[0] >= -1e-9


@pytest.mark.parametrize("seed", range(4))
def test_stacked_family_values_equal_per_member_evaluate(seed):
    # the compressions batched over the members evaluate each member as its
    # slices do on their own
    m, _, rng = tensor_model(seed=seed, n_atoms=4)
    comp = family_measures_for(m, seed=seed).compressions
    sets = np.concatenate([nnsm.random_sets(m.space, rng, 6), [
        point_mask(m.space, ()), point_mask(m.space, m.space.points())]])
    for delta in sets:
        values = measure.evaluate(comp, delta)
        assert values.shape == (len(comp.atoms),) + (m.target_dim,) * 2
        for i, value in enumerate(values):
            assert np.array_equal(value, measure.evaluate(
                member_measure(comp, i), delta))


def test_measure_for_a_stack_equals_the_stacked_single_measures():
    # each matrix of the stack is contracted on its own, so the batched
    # compressions are bit-equal to the single ones stacked
    for seed in range(4):
        m, _, rng = tensor_model(seed=seed, n_atoms=4)
        stack = np.concatenate([
            family_for(m, seed=seed).members,
            [hermitian_element(m.w1, rng) for _ in range(3)]])
        batch = m.measure_for(stack)
        singles = [m.measure_for(p) for p in stack]
        assert batch.space == m.space
        assert np.array_equal(batch.atoms, np.stack([e.atoms for e in singles]))
        assert np.array_equal(batch.total, np.stack([e.total for e in singles]))


def test_empty_family_is_an_empty_batch_and_a_typed_error():
    oracle = harness.gen_scenario("B", 0).payload["oracle"]
    for m in (tensor_model(seed=5)[0], oracle):
        empty = algebra.ProjectionFamily(algebra=m.w1, members=())
        assert empty.members.shape == (0, m.w1.ambient_dim, m.w1.ambient_dim)
        batch = m.measure_for(empty.members)
        k = m.target_dim
        assert batch.space == m.space
        assert batch.atoms.shape == (0, len(m.space), k, k)
        assert batch.total.shape == (0, k, k)


def test_condition1_detects_broken_linearity():
    # corrupt one compression so linear relations no longer transfer
    m, _, _ = tensor_model(seed=13)
    fam = family_for(m)
    comp = m.measure_for(fam.members)
    bad_atoms = comp.atoms.copy()
    bad_atoms[1, 0] = bad_atoms[1, 0] + 0.25 * np.eye(m.target_dim)
    fm = nnsm.FamilyMeasures(fam, replace(comp, atoms=bad_atoms))
    residual, tol = nnsm.condition1_check(fm, trials=24)
    assert not np.all(residual <= tol)


def test_delta_is_a_boolean_point_mask():
    # Delta is a bool array indexed like space.points(), the form of a
    # block mask K; anything else is ShapeMismatch, never coerced to bool
    m, rng = _model_with_a_zero_map(seed=18)
    fm = family_measures_for(m)
    a = hermitian_element(m.w1, rng)
    field_ = _random_field(rng, m, 2)
    delta = point_mask(m.space, {0, 2, 3})
    n = len(delta)
    wrong = [delta.tolist(), frozenset({0, 2, 3}), delta.astype(int), True,
             delta[:-1], np.append(delta, True), np.stack([delta, delta])]
    consumers = [
        lambda d: measure.evaluate(m.measure_for(a), d),
        lambda d: nnsm.integrate(m, field_, d),
        lambda d: nnsm.integrate(m, stacked_fields([field_, field_]), d),
        lambda d: fm.extend_at(a, d),
        lambda d: nnsm.extension_by_limit(fm, a, d, ell=16),
        lambda d: nnsm.condition3_check(fm, 2, 3, d, delta),
        lambda d: nnsm.condition3_check(fm, 2, 3, delta, d),
    ]
    for bad in wrong:
        for consume in consumers:
            with pytest.raises(ShapeMismatch):
                consume(bad)
    # condition (2) takes a (count, n_points) stack of sets
    for bad in wrong[:-1] + [[delta, delta], np.stack([delta[:-1]] * 2), delta]:
        with pytest.raises(ShapeMismatch):
            nnsm.condition2_check(fm, bad)
    # each consumer reads the atoms under Delta's mask: the point with the
    # zero map adds nothing, and the empty set gives zero
    with_3 = [consume(delta) for consume in consumers[:5]]
    without_3 = [consume(point_mask(m.space, {0, 2})) for consume in consumers[:5]]
    for got, want in zip(with_3, without_3):
        assert np.array_equal(got, want)
    assert not measure.evaluate(m.measure_for(a), np.zeros(n, dtype=bool)).any()
    assert not nnsm.integrate(m, field_, np.zeros(n, dtype=bool)).any()
    k = nnsm.condition2_check(fm, np.stack([delta, np.zeros(n, dtype=bool)]))
    assert np.all(k <= 1.0 + TAU_NORM_SLACK) and k[1] == 0.0


def test_random_sets_is_one_uniform_draw():
    # random_sets is the (count, n_points) mask of one uniform draw
    for space in (measure.DiscreteSpace(labels=("a", "b", "c")),
                  measure.DiscreteSpace(horizon=7)):
        sets = nnsm.random_sets(space, np.random.default_rng(5), 4)
        want = np.random.default_rng(5).random((4, len(space.points()))) < 0.5
        assert sets.dtype == np.bool_ and np.array_equal(sets, want)


def test_condition1_needs_a_trial():
    fm = family_measures_for(harness.gen_scenario("B", 3).payload["oracle"])
    for trials in (0, -2):
        with pytest.raises(ValueError, match="at least one trial"):
            nnsm.condition1_check(fm, trials=trials)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5_000), h_dim=st.integers(1, 3), n_atoms=st.integers(1, 4))
def test_tensor_model_product_rule_random(seed, h_dim, n_atoms):
    m, _, rng = tensor_model(seed=seed, h_dim=h_dim, n_atoms=n_atoms)
    assert nnsm.definition_residual(m) <= TAU_DOC
    # each compression along a family is a spectral measure, and
    # M_P(D1) M_Q(D2) = M_PQ(D1 n D2) for members P, Q, summed here atom by
    # atom from the per-atom reference maps
    def m_at(a, delta):
        return sum((_ref_phi(m, x, a) for x in delta),
                   np.zeros((m.target_dim,) * 2, dtype=complex))

    family = family_for(m, seed=seed + 1)
    comp = m.measure_for(family.members)
    assert np.all(comp.validate() <= 1e-8 * (1 + linalg.frob_norm(comp.total)))
    members = family.members
    for _ in range(4):
        p, q = (members[int(rng.integers(len(members)))] for _ in range(2))
        d1, d2 = ({x for x in m.space.points() if rng.random() < 0.5} for _ in range(2))
        lhs, rhs = m_at(p, d1) @ m_at(q, d2), m_at(p @ q, d1 & d2)
        assert linalg.frob_norm(lhs - rhs) <= 1e-8 * (
            1 + max(linalg.frob_norm(lhs), linalg.frob_norm(rhs)))


@pytest.mark.parametrize("fault", ["denormalized-m", "non-idempotent-projection"])
@pytest.mark.parametrize("seed", range(4))
def test_injected_oracle_faults_fail_the_definition(fault, seed):
    scenario = harness.gen_scenario("B", seed)
    assert nnsm.definition_residual(scenario.payload["oracle"]) <= TAU_DOC
    bad = harness.inject_fault(scenario, fault).payload["oracle"]
    assert nnsm.definition_residual(bad) > TAU_DOC


# Per-atom reference loops for the stacked NNSM contractions: coordinates by
# one vdot per basis element, then one weighted image sum per (term, atom).
# The stacked routes sum in another order, so agreement is up to a tolerance
# fixed from complex128 round-off on these O(10)-sized sums.
REF_TOL = 1e-12


def _ref_phi(m, x, a):
    coeffs = [np.vdot(b, a) for b in m.w1.basis]
    return sum(c * img for c, img in zip(coeffs, m.images[m.space.points().index(x)]))


def _ref_integrate(m, field_, delta):
    out = np.zeros((m.target_dim,) * 2, dtype=complex)
    for v, a in field_.terms:
        for i, x in enumerate(m.space.points()):
            if delta[i]:
                out += v[i] * _ref_phi(m, x, a)
    return out


def _close(got, want):
    return linalg.frob_norm(got - want) <= REF_TOL * (1 + linalg.frob_norm(want))


def _model_with_a_zero_map(seed):
    # point 3 belongs to the space but carries no mass: its map is zero
    m, _, rng = tensor_model(seed=seed, n_atoms=3)
    space = measure.DiscreteSpace(labels=(0, 1, 2, 3))
    images = np.concatenate([m.images, np.zeros_like(m.images[:1])])
    return nnsm.NonNegSpectralMeasure(space, m.w1, images), rng


def _random_field(rng, m, n_terms):
    terms = []
    for _ in range(n_terms):
        fv = np.array([complex(*rng.standard_normal(2))
                       for _ in m.space.points()])
        a = hermitian_element(m.w1, rng) + 1j * hermitian_element(m.w1, rng)
        terms.append((fv, a))
    return nnsm.OperatorField(terms=tuple(terms))


@pytest.mark.parametrize("seed", range(6))
def test_stacked_nnsm_matches_per_atom_reference(seed):
    m, rng = _model_with_a_zero_map(seed)
    sets = [point_mask(m.space, m.space.points()), point_mask(m.space, {0, 2, 3}),
            point_mask(m.space, {3}), point_mask(m.space, set())]
    for delta in sets:
        for n_terms in (1, 2, 4):
            field_ = _random_field(rng, m, n_terms)
            assert _close(nnsm.integrate(m, field_, delta),
                          _ref_integrate(m, field_, delta))
        a = hermitian_element(m.w1, rng)
        want = sum((_ref_phi(m, x, a) for x, on in zip(m.space.points(), delta) if on),
                   np.zeros((m.target_dim,) * 2, dtype=complex))
        assert _close(measure.evaluate(m.measure_for(a), delta), want)
    p = algebra.sample_projections(m.w1, n=3, seed=seed).members[-1]
    e_p = m.measure_for(p)
    assert e_p.atoms.shape[0] == 4 and not e_p.atoms[3].any()
    for x, atom in zip(m.space.points(), e_p.atoms):
        assert _close(atom, _ref_phi(m, x, p))
    assert _close(e_p.total, sum(_ref_phi(m, x, p) for x in m.space.points()))
    assert linalg.frob_norm(m.apply(3, p)) == 0.0
    assert _close(m.measure_for(m.w1.identity()).total, np.eye(m.target_dim))


def test_integrate_makes_one_coefficients_call(monkeypatch):
    m, rng = _model_with_a_zero_map(seed=14)
    shapes = []
    original = algebra.VonNeumannAlgebra.coefficients
    d = m.w1.ambient_dim

    def counted(self, a):
        shapes.append(np.shape(a))
        return original(self, a)

    monkeypatch.setattr(algebra.VonNeumannAlgebra, "coefficients", counted)
    for n_terms in (1, 3, 7):
        field_ = _random_field(rng, m, n_terms)
        shapes.clear()
        nnsm.integrate(m, field_, point_mask(m.space, {1, 3}))
        assert shapes == [(n_terms, d, d)]
    # a batch of fields makes one call too, over every field's every slot
    batch = stacked_fields([_random_field(rng, m, n_terms) for n_terms in (1, 3, 7)])
    shapes.clear()
    nnsm.integrate(m, batch, point_mask(m.space, {1, 3}))
    assert shapes == [(3 * 7, d, d)]


@pytest.mark.parametrize("seed", range(4))
def test_batched_integrate_matches_per_field_reference(seed):
    m, rng = _model_with_a_zero_map(seed)
    sets = [point_mask(m.space, m.space.points()), point_mask(m.space, {0, 2, 3}),
            point_mask(m.space, {3}), point_mask(m.space, set())]
    k = m.target_dim
    for delta in sets:
        for n_fields in (1, 3, 7):
            fields = [_random_field(rng, m, 1 + (seed + i) % 4)
                      for i in range(n_fields)]
            got = nnsm.integrate(m, stacked_fields(fields), delta)
            assert got.shape == (n_fields, k, k)
            for g, field_ in zip(got, fields):
                assert _close(g, _ref_integrate(m, field_, delta))
            # one field alone gives the (k, k) value its batch row holds
            alone = nnsm.integrate(m, fields[-1], delta)
            assert alone.shape == (k, k) and _close(alone, got[-1])


def test_integrate_empty_field_and_empty_batch():
    m, rng = _model_with_a_zero_map(seed=15)
    k = m.target_dim
    whole = point_mask(m.space, m.space.points())
    empty = nnsm.OperatorField(terms=())
    zero = nnsm.integrate(m, empty, whole)
    assert zero.shape == (k, k) and not zero.any()
    f, g = _random_field(rng, m, 2), _random_field(rng, m, 3)
    none = nnsm.OperatorField(terms=tuple((v[:0], a[:0]) for v, a in
                                          stacked_fields([f]).terms))
    assert nnsm.integrate(m, none, whole).shape == (0, k, k)
    got = nnsm.integrate(m, stacked_fields([f, empty, g]), whole)
    assert not got[1].any()
    assert _close(got[0], _ref_integrate(m, f, whole))
    assert _close(got[2], _ref_integrate(m, g, whole))


def _split_tensordot_integrate(m, field_, delta):
    """``integrate`` by an earlier route: the points in Delta always
    gathered, one coefficients call cut into slots by np.split, and
    np.tensordot against m.images[inside]."""
    inside = np.flatnonzero(delta)
    if not field_.terms:
        return np.zeros((m.target_dim,) * 2, dtype=np.complex128)
    rows = [np.asarray(v, dtype=np.complex128) for v, _ in field_.terms]
    slots = [np.asarray(a) for _, a in field_.terms]
    flat = [a.reshape(-1, *a.shape[-2:]) for a in slots]
    coeffs = np.split(m.w1.coefficients(np.concatenate(flat)),
                      np.cumsum([len(f) for f in flat[:-1]]))
    parts = [row[..., inside, None] * c.reshape(*a.shape[:-2], 1, m.w1.dim)
             for row, a, c in zip(rows, slots, coeffs)]
    weights = sum(parts[1:], parts[0])
    return np.tensordot(weights, m.images[inside], axes=([-2, -1], [0, 1]))


def _models(seed):
    """One model per route through ``integrate``: a finite space whose
    points all carry mass, one with a zero map at a point, and a countable
    space."""
    m, _, _ = tensor_model(seed=seed, n_atoms=3)
    zero_map, _ = _model_with_a_zero_map(seed)
    countable = nnsm.NonNegSpectralMeasure(
        measure.DiscreteSpace(horizon=3), m.w1, m.images)
    return [m, zero_map, countable]


@pytest.mark.parametrize("seed", range(3))
def test_integrate_equals_the_split_tensordot_route_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for m in _models(seed):
        points = m.space.points()
        one_hot = nnsm.OperatorField(terms=((
            np.eye(len(points), dtype=np.complex128),
            algebra.sample_projections(m.w1, n=4, seed=seed).members[:, None]),))
        fields = [_random_field(rng, m, 1), _random_field(rng, m, 3),
                  stacked_fields([_random_field(rng, m, 1) for _ in range(4)]),
                  stacked_fields([_random_field(rng, m, 1 + t % 3) for t in range(5)]),
                  one_hot]
        sets = [np.ones(len(points), dtype=bool), point_mask(m.space, {0, 2}),
                np.zeros(len(points), dtype=bool)]
        for delta in sets:
            for field_ in fields:
                got = nnsm.integrate(m, field_, delta)
                want = _split_tensordot_integrate(m, field_, delta)
                assert got.shape == want.shape and np.array_equal(got, want)


def test_integrate_and_m_a_reject_a_set_from_another_space():
    # a set of another space is a mask of another length
    m, rng = _model_with_a_zero_map(seed=16)
    other = measure.DiscreteSpace(labels=tuple(range(7)))
    foreign = point_mask(other, other.points())
    field_ = nnsm.OperatorField(
        terms=((np.ones(len(m.space.points())), m.w1.identity()),))
    with pytest.raises(ShapeMismatch):
        nnsm.integrate(m, field_, foreign)
    with pytest.raises(ShapeMismatch):
        nnsm.integrate(m, stacked_fields([field_]), foreign)
    with pytest.raises(ShapeMismatch):
        measure.evaluate(m.measure_for(m.w1.identity()), foreign)


def _per_cell_terms(part, ell):
    """The (zeta, R) cells of S_l(part) with a nonzero resolution increment,
    built cell by cell from the interval and the eigenvalues: the cells are
    the dyadic refinement of [lo - 1, hi] with mesh < min(1/ell, 1)."""
    dec = linalg.eig_hermitian(part)
    left, hi = dec.values[0] - 1.0, dec.values[-1]
    ncells = 2
    while (hi - left) / ncells >= min(1.0 / ell, 1.0):
        ncells *= 2
    mesh = (hi - left) / ncells
    cells = {}
    for lam, proj in zip(dec.values, dec.projections):
        j = min(max(int(np.ceil((lam - left) / mesh - 1e-12)), 1), ncells)
        cells[j] = cells.get(j, 0) + proj
    return [(left + j * mesh, r_proj) for j, r_proj in sorted(cells.items())]


def test_condition3_matches_per_cell_reference():
    # condition3_check extends each part's eigenprojection stack once and
    # contracts it with the tag grids; the reference extends the summed
    # projection of one Riemann cell at a time
    m, _, _ = tensor_model(seed=6)
    fam = family_for(m)
    fm = nnsm.FamilyMeasures(fam, m.measure_for(fam.members))
    p, q = fam.members[2], fam.members[3]
    d1 = point_mask(m.space, {0, 1})
    d2 = point_mask(m.space, {1, 2})
    residuals, _ = nnsm.condition3_check(fm, 2, 3, d1, d2)
    lhs = measure.evaluate(m.measure_for(p), d1) @ measure.evaluate(m.measure_for(q), d2)
    parts = linalg.star_decompose(p @ q)
    inter = d1 & d2
    for ell, resid in zip(nnsm.CONDITION3_ELLS, residuals):
        rhs = sum(
            sign * zeta * fm.extend_at(r_proj, inter)
            for sign, part in zip([1.0, -1.0, 1.0j, -1.0j], parts)
            for zeta, r_proj in _per_cell_terms(part, ell)
        )
        assert abs(linalg.frob_norm(lhs - rhs) - resid) <= 1e-10


def test_condition3_reads_the_drawn_member_not_an_earlier_duplicate(monkeypatch):
    # an abelian W1 family whose member i is a near-duplicate of an earlier
    # sampled member i0; with the Riemann sums at zero the residuals are the
    # left side ||E_{P_i}(X) E_{P_i}(X)||, which must follow member i alone
    oracle = harness.gen_scenario("B", 5).payload["oracle"]
    assert oracle.w1.dim == oracle.w1.ambient_dim == 3
    fam = algebra.sample_projections(oracle.w1, n=10, seed=5 + 9)
    members = fam.members
    i = next(i for i in range(len(fam))
             if np.any(linalg.frob_norm(members[:i] - members[i]) <= TAU_PROJ))
    i0 = int(np.argmax(linalg.frob_norm(members[:i] - members[i]) <= TAU_PROJ))
    assert i0 >= 2 and not np.array_equal(members[i], members[i0])
    comp = oracle.measure_for(members)
    k = oracle.target_dim
    monkeypatch.setattr(nnsm, "_riemann_sums",
                        lambda fm, seqs, ells, delta: np.zeros((len(ells), k, k)))
    whole = point_mask(oracle.space, oracle.space.points())

    def left_side(bumped):
        atoms = comp.atoms.copy()
        atoms[bumped, 0] += 0.5 * np.eye(k)
        fm = nnsm.FamilyMeasures(fam, replace(comp, atoms=atoms))
        return nnsm.condition3_check(fm, i, i, whole, whole)[0]

    base = nnsm.condition3_check(nnsm.FamilyMeasures(fam, comp), i, i, whole, whole)[0]
    assert not np.array_equal(left_side(i), base)
    assert np.array_equal(left_side(i0), base)


def test_integrate_rejects_rows_of_the_wrong_length():
    m, rng = _model_with_a_zero_map(seed=17)
    whole = point_mask(m.space, m.space.points())
    n_points = len(m.space.points())
    good = _random_field(rng, m, 2)
    for length in (n_points - 1, n_points + 1):
        bad = nnsm.OperatorField(terms=((np.ones(length), m.w1.identity()),))
        with pytest.raises(ShapeMismatch):
            nnsm.integrate(m, bad, whole)
        with pytest.raises(ShapeMismatch):
            nnsm.integrate(m, stacked_fields([good, good]) + nnsm.OperatorField(
                terms=((np.ones((2, length)), m.w1.identity()),)), whole)
    # over a countable space the rows and the sets end at the horizon
    countable = measure.DiscreteSpace(horizon=2)
    on_two = nnsm.NonNegSpectralMeasure(countable, m.w1, m.images[:2])
    for length in (1, 3):
        bad = nnsm.OperatorField(terms=((np.ones(length), m.w1.identity()),))
        with pytest.raises(ShapeMismatch):
            nnsm.integrate(on_two, bad, point_mask(countable, {0, 1}))
    # the zero map's column is read off the row like any other point
    unit = np.zeros(n_points)
    unit[m.space.points().index(3)] = 1.0
    only_3 = nnsm.OperatorField(terms=((unit, m.w1.identity()),))
    assert not nnsm.integrate(m, only_3, whole).any()


@pytest.mark.parametrize("countable", [False, True])
def test_family_validate_matches_per_member_measures(countable):
    m, _, _ = tensor_model(seed=3, n_atoms=4)
    fm = family_measures_for(m, seed=2)
    comp = fm.compressions
    atoms = comp.atoms.copy()
    atoms[2, 1] = 1.001 * atoms[2, 1]
    atoms[4, 3] = atoms[4, 3] + atoms[4, 0]
    space = measure.DiscreteSpace(horizon=len(m.space)) if countable else m.space
    for stack, bad in ((comp.atoms, set()), (atoms, {2, 4})):
        total = comp.total if countable else None
        batch = measure.SpectralMeasure(space, stack, total)
        got = batch.validate()
        assert got.shape == (len(fm.family.members),)
        for i, value in enumerate(got):
            want = member_measure(batch, i).validate()
            assert abs(value - want) <= 1e-15 * (1.0 + want)
        assert {i for i, v in enumerate(got) if v > 1e-6} == bad


def test_family_totals_follow_the_format_rule():
    m, _, _ = tensor_model(seed=3)
    comp = family_measures_for(m).compressions
    nan_total = comp.total.copy()
    nan_total[1, 0, 0] = np.nan
    for total in (nan_total, comp.total[:-1], comp.total[:, :-1, :-1]):
        with pytest.raises(ShapeMismatch):
            measure.SpectralMeasure(comp.space, comp.atoms, total)

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from specmeas import algebra, blocks, harness, linalg, measure, nnsm, serialize
from specmeas.errors import (CapExceeded, InvalidDocument, NotCommuting,
                             SpecmeasError)
from specmeas.tolerances import (TAU_EXACT, TAU_EXT, TAU_NORM_SLACK, TAU_RECON,
                                 VERDICT_TOL)

from conftest import (decode_star_polynomials, hermitian_element, member_measure,
                      point_mask, stacked_fields)


def test_caps_enforced():
    with pytest.raises(CapExceeded):
        harness.Caps(h_dim=5)
    with pytest.raises(CapExceeded):
        harness.Caps(k_dim=17)
    with pytest.raises(CapExceeded):
        harness.Caps(space=9)
    with pytest.raises(CapExceeded):
        harness.Caps(horizon=65)
    # C' and D draw a horizon of at least 8, and B fits an atom of dim H
    # into K
    for horizon in range(1, harness.MIN_HORIZON):
        with pytest.raises(CapExceeded):
            harness.Caps(horizon=horizon)
    harness.Caps(horizon=harness.MIN_HORIZON)
    with pytest.raises(CapExceeded):
        harness.Caps(k_dim=3)
    with pytest.raises(CapExceeded):
        harness.Caps(h_dim=2, k_dim=1)
    harness.Caps(h_dim=2, k_dim=2)


def test_gen_scenario_deterministic():
    for kind in ("A", "B", "Cprime", "D"):
        s1 = harness.gen_scenario(kind, 42)
        s2 = harness.gen_scenario(kind, 42)
        assert s1.space == s2.space
        assert s1.scenario_id == s2.scenario_id
        arrays1, arrays2 = _payload_arrays(s1), _payload_arrays(s2)
        assert len(arrays1) == len(arrays2)
        assert all(np.array_equal(a, b) for a, b in zip(arrays1, arrays2))


def _payload_arrays(sc):
    """The arrays that a scenario's payload is generated as."""
    if sc.kind == "A":
        return [sc.payload["images"][n] for n in sorted(sc.payload["images"])]
    if sc.kind == "B":
        return list(sc.payload["oracle"].images)
    model = sc.payload["model"]
    rows = [model.generator_rows[n] for n in sorted(model.generators)]
    return rows + list(model.w.basis)


def test_kind_a_single_point_is_character():
    # |X| = 1 forces every generator image to be a scalar multiple of id
    for seed in range(40):
        sc = harness.gen_scenario("A", seed)
        if len(sc.space.points()) == 1:
            img = next(iter(sc.payload["images"].values()))
            val = sc.payload["values"][0][0]
            assert np.allclose(img, val * np.eye(img.shape[0]), atol=1e-10)
            rep = harness.verify_theorem_a(sc)
            assert rep.passed
            return
    pytest.fail("no single-point scenario in the sweep")


def test_verify_a_diagonal_hand_case():
    # rho(x) = diag(1,2): E has atoms at 1 and 2; rho(x^2) = diag(1,4)
    space = measure.DiscreteSpace(labels=(0, 1))
    sc = harness.Scenario(
        kind="A", seed=0, space=space,
        payload={"images": {"b0": np.diag([1.0, 2.0]).astype(complex)},
                 "values": [(1.0,), (2.0,)]},
    )
    rep = harness.verify_theorem_a(sc)
    assert rep.passed
    assert any(c.name.startswith("represent") for c in rep.checks)


def test_verify_a_unitary_generator():
    # unitary diag(1, i): atom values on the unit circle
    space = measure.DiscreteSpace(labels=(0, 1))
    sc = harness.Scenario(
        kind="A", seed=1, space=space,
        payload={"images": {"b0": np.diag([1.0, 1.0j]).astype(complex)},
                 "values": [(1.0,), (1.0j,)]},
    )
    rep = harness.verify_theorem_a(sc)
    assert rep.passed


def test_verify_a_uniqueness_fails_on_a_disagreeing_diagonalization(monkeypatch):
    """uniqueness[atom*] diagonalizes the generators a second time; when the
    second atlas swaps two projections, the points still match by value but
    their projections differ, and the check must fail."""
    scenarios = (harness.gen_scenario("A", seed) for seed in range(40))
    sc = next(sc for sc in scenarios if len(sc.space.points()) >= 2)
    assert harness.verify_theorem_a(sc).passed
    calls = []
    real = harness.joint_diagonalize

    def swapping(normals):
        atlas = real(normals)
        calls.append(normals)
        if len(calls) == 2:
            projs = atlas.projections[[1, 0, *range(2, len(atlas.projections))]]
            atlas = algebra.CharacterAtlas(atlas.values, projs)
        return atlas

    monkeypatch.setattr(harness, "joint_diagonalize", swapping)
    rep = harness.verify_theorem_a(sc)
    assert len(calls) == 2
    # the atoms whose value rows are those of the swapped rows 0 and 1 of
    # the second atlas, whose generators come in the pipeline's permuted
    # order
    order = [next(g for g, b in enumerate(calls[0]) if b is a) for a in calls[1]]
    again_values = real(calls[1]).values[:, np.argsort(order)]
    dist = np.abs(real(calls[0]).values[:, None] - again_values[None, :2]).max(axis=2)
    swapped = np.flatnonzero((dist < harness.TAU_MATCH).any(axis=1))
    assert len(swapped) == 2
    failed = {c.name for c in rep.checks if not c.passed}
    assert failed == {f"uniqueness[atom{i}]" for i in swapped}


def _star_polynomials_reference(names, rng):
    """Kind A's test set as lists of (coeff, ((name, conj?), ...))
    monomials: the generators, their adjoints and the pairwise products,
    then the six polynomials of the shared draw, decoded."""
    monomials = [((n, False),) for n in names] + [((n, True),) for n in names]
    monomials += [((a, False), (b, False)) for a in names for b in names]
    drawn = blocks.random_star_polynomials(rng, len(names), 6, degree=3)
    return ([[(1.0 + 0.0j, m)] for m in monomials]
            + decode_star_polynomials(*drawn, names))


def _verify_a_reference(scenario):
    """verify_theorem_a's checks with the *-polynomials as lists of
    monomials of (name, conj?) factors, one matrix product chain and one
    scalar weight loop per monomial, and one norm call per check."""
    images = scenario.payload["images"]
    names = sorted(images)
    d = images[names[0]].shape[0]
    rng = np.random.default_rng(scenario.seed + 1)
    atlas = algebra.joint_diagonalize([images[n] for n in names])
    polys = _star_polynomials_reference(names, rng)
    checks = []
    for t, poly in enumerate(polys):
        lhs = np.zeros((d, d), dtype=np.complex128)
        weights = np.zeros(len(atlas.values), dtype=np.complex128)
        for coeff, mono in poly:
            term = coeff * np.eye(d, dtype=np.complex128)
            for name, conj in mono:
                term = term @ (linalg.adjoint(images[name]) if conj else images[name])
            lhs += term
            for i, vals in enumerate(atlas.values.tolist()):
                w = coeff
                for name, conj in mono:
                    v = vals[names.index(name)]
                    w *= np.conj(v) if conj else v
                weights[i] += w
        rhs = sum(w * p for w, p in zip(weights, atlas.projections))
        checks.append(harness.CheckEntry(
            f"represent[poly{t}]", float(linalg.frob_norm(lhs - rhs)),
            float(TAU_RECON * (1.0 + linalg.frob_norm(lhs)))))
    w = algebra.bicommutant([images[n] for n in names], d)
    for i, proj in enumerate(atlas.projections):
        checks.append(harness.CheckEntry(
            f"atom-membership[{i}]", float(w.membership_residual(proj)), TAU_RECON))
    order = rng.permutation(len(names))
    again = algebra.joint_diagonalize([images[names[g]] for g in order])
    again_values = again.values[:, np.argsort(order)]
    for i, (vals, proj) in enumerate(zip(atlas.values, atlas.projections)):
        match = [j for j, v in enumerate(again_values)
                 if np.abs(vals - v).max() < harness.TAU_MATCH]
        resid = (linalg.frob_norm(proj - again.projections[match[0]])
                 if match else 1.0)
        checks.append(harness.CheckEntry(f"uniqueness[atom{i}]", float(resid), TAU_EXT))
    return checks


def test_verify_a_families_match_the_tuple_reference():
    """Names and pass flags equal the reference's; residuals and tols agree
    within round-off (the stacked products and norms sum in another
    order)."""
    scenarios = [harness.gen_scenario("A", seed)
                 for seed in [*range(60), *range(300000, 300020)]]
    widths = set()
    for sc in scenarios:
        got = harness.verify_theorem_a(sc).checks
        want = _verify_a_reference(sc)
        assert [c.name for c in got] == [c.name for c in want], sc.scenario_id
        assert [c.passed for c in got] == [c.passed for c in want], sc.scenario_id
        for c, r in zip(got, want):
            assert abs(c.tol - r.tol) <= 1e-15 * r.tol, (sc.scenario_id, c.name)
            assert abs(c.residual - r.residual) <= 1e-6 * r.tol, (
                sc.scenario_id, c.name)
        widths.add((len(sc.payload["images"]), len(sc.space.points())))
    # one to three generators, one to four points
    assert {g for g, _ in widths} == {1, 2, 3}
    assert {n for _, n in widths} == {1, 2, 3, 4}


def test_identity_order_reuses_the_atlas_with_the_same_uniqueness_rows(monkeypatch):
    """When the drawn uniqueness order is the identity, verify_theorem_a
    diagonalizes once; its uniqueness rows equal those from a second
    joint_diagonalize call (the reference's)."""
    real = harness.joint_diagonalize
    calls = []
    monkeypatch.setattr(harness, "joint_diagonalize",
                        lambda normals: calls.append(normals) or real(normals))
    identity = 0
    for seed in range(100):
        sc = harness.gen_scenario("A", seed)
        n = len(sc.payload["images"])
        # replay the pipeline's rng: the *-polynomial draw, then the order
        rng = np.random.default_rng(seed + 1)
        blocks.random_star_polynomials(rng, n, 6, degree=3)
        is_identity = np.array_equal(rng.permutation(n), np.arange(n))
        calls.clear()
        got = harness.verify_theorem_a(sc).checks
        assert len(calls) == (1 if is_identity else 2), seed
        if is_identity:
            identity += 1
            want = _verify_a_reference(sc)
            assert ([c for c in got if c.name.startswith("uniqueness[")]
                    == [c for c in want if c.name.startswith("uniqueness[")]), seed
    assert 0 < identity < 100


def test_atom_membership_takes_a_matrix_or_a_stack():
    sc = harness.gen_scenario("A", 3)
    images = [sc.payload["images"][n] for n in sorted(sc.payload["images"])]
    w = algebra.bicommutant(images, images[0].shape[0])
    stack = np.concatenate([algebra.joint_diagonalize(images).projections,
                            np.ones((1, *images[0].shape))])
    got = w.membership_residual(stack)
    assert got.shape == (len(stack),)
    for a, r in zip(stack, got):
        assert isinstance(w.membership_residual(a), float)
        assert abs(w.membership_residual(a) - r) <= 1e-15
    assert got[-1] > 0.1 and np.all(got[:-1] <= TAU_RECON)


def test_verify_b_oracle_round_trip():
    sc = harness.gen_scenario("B", 7)
    rep = harness.verify_theorem_b(sc)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]
    recon = [c for c in rep.checks if c.name.startswith("reconstruction")]
    assert recon and all(c.residual <= 1e-7 for c in recon)


def test_verify_b_scalar_algebra_reduces_to_a():
    # find a kind-B scenario with W1 = scalars
    for seed in range(50):
        sc = harness.gen_scenario("B", seed)
        if sc.payload["oracle"].w1.ambient_dim == 1:
            rep = harness.verify_theorem_b(sc)
            assert rep.passed
            return
    pytest.fail("no scalar-algebra scenario in the sweep")


def test_verify_c_number_operator():
    sc = harness.number_operator_scenario()
    rep = harness.verify_theorem_d(sc)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]


def test_verify_c_bounded_generator():
    sc = harness.Scenario(
        kind="Cprime", seed=5,
        space=measure.DiscreteSpace(horizon=16),
        payload={"model": blocks.BlockModel(
            space=measure.DiscreteSpace(horizon=16),
            generators={"g0": serialize.generator_rule(
                {"kind": "exp-index", "rate": -0.7})},
        )},
    )
    rep = harness.verify_theorem_d(sc)
    assert rep.passed


def test_verify_d_matrix_model():
    sc = harness.gen_scenario("D", 7)
    rep = harness.verify_theorem_d(sc)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]


def _failed(report):
    return {c.name for c in report.checks if not c.passed}


@pytest.mark.parametrize("kind, fault", [
    ("Cprime", "conjugated"), ("D", "conjugated"), ("D", "transposed"),
    ("Cprime", "dropped-row"), ("D", "dropped-row")])
def test_represent_fails_on_a_wrong_rho(monkeypatch, kind, fault):
    """represent[x*] compares rho with the field's block actions, a route
    of its own: a rho that applies conj(A), or A^T (not seen on 1x1 blocks),
    or drops the value row f, must fail it on every scenario of seeds 0-19,
    while no other row fails."""
    scenarios = [harness.gen_scenario(kind, seed) for seed in range(20)]
    assert all(harness.verify_theorem_d(sc).passed for sc in scenarios)
    rho_apply = blocks.rho_apply

    def wrong(model_, values, a, x):
        if fault == "conjugated":  # each coefficient of a stack conjugated
            return rho_apply(model_, values, np.conj(a), x)
        if fault == "transposed":
            return rho_apply(model_, values, np.swapaxes(a, -1, -2), x)
        return rho_apply(model_, np.ones_like(values), a, x)

    monkeypatch.setattr(blocks, "rho_apply", wrong)
    for sc in scenarios:
        failed = _failed(harness.verify_theorem_d(sc))
        assert failed and all(n.startswith("represent[x") for n in failed), (
            sc.scenario_id)


def _uses_generator(codes, coeffs, g):
    """The represent rows whose *-polynomial has a monomial of nonzero
    coefficient with a factor g or g*."""
    hit = (coeffs[..., None] != 0) & np.isin(codes, (2 * g, 2 * g + 1))
    return {f"represent[x{t}]" for t in np.flatnonzero(hit.any(axis=(1, 2)))}


@pytest.mark.parametrize("kind", ["Cprime", "D"])
def test_represent_fails_on_a_generator_row_bumped_for_rho(monkeypatch, kind):
    """represent[x*] applies rho once per factor of each *-polynomial; a
    relative 1e-6 bump of g0's row on the rho side alone must fail exactly
    the rows whose polynomial uses g0, on every two-generator scenario of
    seeds 0-19."""
    rho_apply = blocks.rho_apply
    partial = 0
    for seed in range(20):
        sc = harness.gen_scenario(kind, seed)
        model = sc.payload["model"]
        if sorted(model.generator_rows) != ["g0", "g1"]:
            continue
        assert not _failed(harness.verify_theorem_d(sc))
        _, codes, coeffs, _ = _unbounded_draws(sc)
        on_g0 = _uses_generator(codes, coeffs, 0)
        g0 = model.generator_rows["g0"]

        def bumped(model_, values, a, x, g0=g0):
            # rho takes a stack of rows: bump each row that is g0 or conj(g0)
            hit = (values == g0).all(axis=-1) | (values == np.conj(g0)).all(axis=-1)
            return rho_apply(model_, np.where(hit[..., None],
                                              values * (1.0 + 1e-6), values), a, x)

        monkeypatch.setattr(blocks, "rho_apply", bumped)
        assert _failed(harness.verify_theorem_d(sc)) == on_g0, sc.scenario_id
        partial += 0 < len(on_g0) < 6
        monkeypatch.setattr(blocks, "rho_apply", rho_apply)
    assert partial >= 3


@pytest.mark.parametrize("kind", ["Cprime", "D"])
def test_represent_fails_only_at_a_bumped_coefficient(monkeypatch, kind):
    """represent[x*] integrates one stacked field p (x) A; a relative 1e-6
    bump of one coefficient A_j on the i_m_apply side only must fail row j
    and no other."""
    i_m_apply = blocks.i_m_apply
    for seed in range(6):
        sc = harness.gen_scenario(kind, seed)
        assert not _failed(harness.verify_theorem_d(sc))
        for j in range(6):
            def wrong(field_, model_, x, j=j):
                ((v, a),) = field_.terms
                a = a.copy()
                a[j] = a[j] * (1.0 + 1e-6)
                return i_m_apply(nnsm.OperatorField(terms=((v, a),)), model_, x)

            monkeypatch.setattr(blocks, "i_m_apply", wrong)
            assert _failed(harness.verify_theorem_d(sc)) == {f"represent[x{j}]"}
            monkeypatch.setattr(blocks, "i_m_apply", i_m_apply)


def _family(check) -> str:
    return check.name.split("[")[0]


def test_only_verdict_rows_carry_the_verdict_tol():
    # a row without a residual reads 0 or 1 against VERDICT_TOL; every
    # other row, the integrability rows included, is a residual
    # against its own tolerance
    verdicts = {"diagonalize", "assemble", "document", "condition3",
                "fault-detected"}
    by_kind = {kind: [c for seed in range(50)
                      for c in harness.run_scenario(kind, seed).checks]
               for kind in ("A", "B", "Cprime", "D")}
    rows = [c for kind_rows in by_kind.values() for c in kind_rows]
    rows += [c for fault in harness.FAULT_CLASSES
             for c in harness.fault_report(fault, 0).checks]
    rows += harness.characterization_reports(harness.gen_scenario("B", 0))[0].checks
    rows += harness.verify_theorem_d(harness.inject_fault(
        harness.gen_scenario("D", 0), "non-normal-block")).checks
    families = {_family(c) for c in rows}
    assert families >= {"integrable", "fault-detected", "condition3"}
    for c in rows:
        assert (c.tol == VERDICT_TOL) == (_family(c) in verdicts), c.name
    # a family that reads exactly 0.0 on every row of every kind's seeds
    # 0-49 tests nothing that these scenarios can break
    for kind, kind_rows in by_kind.items():
        silent = {_family(c) for c in kind_rows} - {
            _family(c) for c in kind_rows if c.residual != 0.0}
        assert not silent, (kind, silent)
    # a non-normal block reads its residual above TAU_RECON at the block
    # that the fault spiked; the row leads kind D's report, whose other rows
    # are the six represent rows of the unfaulted report, and the fault
    # round names the same block
    for seed in range(4):
        sc = harness.gen_scenario("D", seed)
        clean = harness.verify_theorem_d(sc).checks
        assert [c.name for c in clean] == [f"represent[x{t}]" for t in range(6)]
        bad = harness.inject_fault(sc, "non-normal-block")
        ((row, _),) = bad.payload["field"].terms
        (spiked,) = np.flatnonzero(row)
        check, *rest = harness.verify_theorem_d(bad).checks
        assert check.name == f"integrable[injected;block{spiked}]"
        assert check.residual > check.tol == TAU_RECON and not check.passed
        assert rest == list(clean)
        (verdict,) = harness.fault_report("non-normal-block", seed).checks
        assert verdict.passed
        assert verdict.name == f"fault-detected[{check.name}]"


@pytest.mark.parametrize("fault", harness.FAULT_CLASSES)
def test_fault_detection(fault):
    for seed in range(3):
        rep = harness.fault_report(fault, seed)
        assert rep.passed, f"{fault} undetected at seed {seed}"


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_kind_d_block_dim_honours_the_h_cap(h):
    caps = harness.Caps(h_dim=h)
    dims = {harness.gen_scenario("D", seed, caps).payload["model"].block_dim
            for seed in range(40)}
    assert dims == ({h} if h < 3 else {2, 3})
    # at h >= 3 the draw is the default one
    if h >= 3:
        for seed in range(10):
            want = harness.gen_scenario("D", seed).payload["model"]
            got = harness.gen_scenario("D", seed, caps).payload["model"]
            assert np.array_equal(got.w.basis, want.w.basis)
    assert harness.verify_theorem_d(harness.gen_scenario("D", 5, caps)).passed


def test_unbounded_scenarios_never_build_a_bicommutant(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("bicommutant was called")

    monkeypatch.setattr(harness, "bicommutant", refused)
    monkeypatch.setattr(algebra, "bicommutant", refused)
    for kind in ("Cprime", "D"):
        for seed in range(200):
            harness.gen_scenario(kind, seed)


def _matrix_units(dim):
    return np.array([np.outer(np.eye(dim)[i], np.eye(dim)[j])
                     for i in range(dim) for j in range(dim)], dtype=np.complex128)


def test_d_coefficient_algebra_is_the_full_matrix_algebra():
    for seed in range(200):
        model = harness.gen_scenario("D", seed).payload["model"]
        w, d = model.w, model.block_dim
        assert w.dim == d ** 2
        assert np.array_equal(w.basis, _matrix_units(d))
        gram = w.basis_matrix.conj() @ w.basis_matrix.T
        assert np.array_equal(gram, np.eye(w.dim))
        assert w.membership_residual(w.identity()) == 0.0
        assert np.array_equal(w.coefficients(w.identity()), np.eye(d).ravel())


def test_matrix_algebra_of_one_is_the_scalar_basis():
    # C*1's basis is np.eye(1)[None], bit for bit, dtype and shape too
    old = np.eye(1, dtype=np.complex128)[None]
    w = blocks.matrix_algebra(1)
    assert w.ambient_dim == 1
    assert w.basis.dtype == old.dtype and w.basis.shape == old.shape
    assert w.basis.tobytes() == old.tobytes()
    assert blocks.BlockModel(space=measure.DiscreteSpace(horizon=8),
                             generators={}).w.basis.tobytes() == old.tobytes()


@pytest.mark.parametrize("kind", ["Cprime", "D"])
def test_every_represent_coefficient_lies_in_w(monkeypatch, kind):
    # the paper's A in W: every coefficient that either side of represent
    # reads, drawn or the unit, is a member of the model's algebra
    seen = []
    rho_apply, i_m_apply = blocks.rho_apply, blocks.i_m_apply

    def rho_spy(model, values, a, x):
        seen.append((model, a))
        return rho_apply(model, values, a, x)

    def i_m_spy(field_, model, x):
        seen.extend((model, a) for _, a in field_.terms)
        return i_m_apply(field_, model, x)

    monkeypatch.setattr(blocks, "rho_apply", rho_spy)
    monkeypatch.setattr(blocks, "i_m_apply", i_m_spy)
    for seed in range(100):
        seen.clear()
        assert harness.run_scenario(kind, seed).passed
        assert len(seen) >= 2
        for model, a in seen:
            assert np.all(model.w.membership_residual(a) == 0.0), seed


def test_fault_injection_needs_the_least_h_cap(monkeypatch):
    low = harness.Caps(h_dim=harness.MIN_FAULT_H_DIM - 1)

    def refused(*args, **kwargs):
        raise AssertionError("a scenario was generated")

    monkeypatch.setattr(harness, "gen_scenario", refused)
    for fault in harness.FAULT_CLASSES:
        with pytest.raises(CapExceeded, match="fault injection needs dim H cap"):
            harness.fault_report(fault, 0, low)
    monkeypatch.undo()
    least = harness.Caps(h_dim=harness.MIN_FAULT_H_DIM)
    for fault in harness.FAULT_CLASSES:
        for seed in range(4):
            assert harness.fault_report(fault, seed, least).passed, (fault, seed)


@pytest.mark.parametrize("fault", ["non-idempotent-projection", "denormalized-m"])
def test_fault_report_stops_with_the_full_pipeline_verdict(fault):
    # the short-circuit over kind B's families reads the same verdict as
    # the whole report
    for seed in [*range(30), *range(300000, 300030)]:
        bad = harness.inject_fault(harness.gen_scenario("B", seed), fault)
        full = harness.verify_theorem_b(bad).passed
        assert harness.fault_report(fault, seed).passed == (not full), seed


def test_fault_report_stops_before_assembly(monkeypatch):
    # a denormalized M already fails compression[*], so the pipeline must
    # stop before it reaches assembly
    def refused(fm, w1):
        raise AssertionError("assembly ran after a failed family")

    monkeypatch.setattr(harness, "assemble_from_family", refused)
    for seed in range(5):
        assert harness.fault_report("denormalized-m", seed).passed, seed


def test_b_families_run_past_passing_families(monkeypatch):
    # rebuilt images bumped by 1e-3: only the families after assembly see it,
    # so both readers must run on past the passing ones to report it
    assemble = harness.assemble_from_family

    def assemble_bumped(fm, w1):
        m = assemble(fm, w1)
        return nnsm.NonNegSpectralMeasure(m.space, m.w1, m.images + 1e-3)

    monkeypatch.setattr(harness, "assemble_from_family", assemble_bumped)
    for seed in range(5):
        sc = harness.gen_scenario("B", seed)
        families = list(harness._theorem_b_families(sc))
        assert all(c.passed for c in families[0])
        assert any(not c.passed for family in families[1:] for c in family)
        failed = _failed(harness.verify_theorem_b(sc))
        assert failed and not any(f.startswith("compression[") for f in failed)


def test_fault_residual_scales_with_injection():
    # non-idempotent bump of 1e-3 shows up within 10x of the magnitude
    sc = harness.gen_scenario("B", 4)
    bad = harness.inject_fault(sc, "non-idempotent-projection", magnitude=1e-3)
    rep = harness.verify_theorem_b(bad)
    assert not rep.passed
    worst = max(c.residual for c in rep.checks if not c.passed)
    assert 1e-4 <= worst <= 1e-1


def test_characterization_reports_pass():
    sc = harness.gen_scenario("B", 11)
    (rep,) = harness.characterization_reports(sc, tuples=3)
    assert rep.passed
    k_entries = [c for c in rep.checks if c.name.startswith("condition2")]
    assert k_entries and all(c.residual <= 1.0 + 1e-9 for c in k_entries)
    assert all(c.tol == 1.0 + TAU_NORM_SLACK for c in k_entries)
    names = [c.name for c in rep.checks]
    assert names[:12] == ([f"condition1[trial{t}]" for t in range(8)]
                          + [f"condition2[delta{i}]" for i in range(4)])
    assert [n.split(";")[0] for n in names[12:]] == [
        f"condition3[tuple{t}" for t in range(3)]


def test_family_entries_equal_rows_built_directly():
    nan, inf = float("nan"), float("inf")
    def rows(entries):
        return [(e.name, type(e.residual), repr(e.residual), type(e.tol),
                 repr(e.tol), type(e.passed), e.passed, e.flags) for e in entries]

    families = [
        (np.array([0.5, nan, inf, -inf, 1.0, 2.0, nan]),
         np.array([1.0, 1.0, inf, -inf, nan, -inf, nan])),
        (np.array([0, 3, -2, 7], dtype=np.int64), np.array([1.0, 3.0, -2.5, inf])),
        (np.array([True, False, True]), np.array([0.5, 0.5, 1.0])),
        (np.array([True, False]), np.array([1, 0], dtype=np.int64)),
        ([1e-16, 0.25], [np.float64(1e-15), 0.125]),
        (np.zeros(0), np.zeros(0)),
    ]
    for residuals, tols in families:
        names = [f"check[{t}]" for t in range(len(residuals))]
        want = [harness.CheckEntry(n, float(r), float(t))
                for n, r, t in zip(names, residuals, tols)]
        assert rows(harness.family_entries(names, residuals, tols)) == rows(want)
    # strict: a name, residual or tol too many is an error, never a
    # silently shorter family
    for names, residuals, tols in ((["a", "b"], [1.0], [1.0]),
                                   (["a"], [1.0, 2.0], [1.0]),
                                   (["a"], [1.0], np.array([1.0, 2.0]))):
        with pytest.raises(ValueError):
            harness.family_entries(names, residuals, tols)
    # passed is a Python bool, residual <= tol; a NaN residual fails
    for r, t, ok in ((0.5, 1.0, True), (1.0, 1.0, True), (2.0, 1.0, False),
                     (nan, 1.0, False), (nan, inf, False), (-inf, nan, False),
                     (np.float64(0.5), np.float64(1.0), True)):
        entry = harness.CheckEntry("c", r, t)
        assert type(entry.passed) is bool and entry.passed == ok
        assert harness.VerificationReport("s", (entry,)).to_doc()["pass"] is ok


def test_reconstruction_row_catches_a_shifted_basis_image(monkeypatch):
    # assembly does not re-check its own output: a shifted basis image
    # reaches B's report, where the first point's reconstruction row fails
    real = nnsm.linear_extend

    def shifted(family, assignment, a):
        out = real(family, assignment, a)
        out[0, 0, 0, 0] += 1e-6
        return out

    monkeypatch.setattr(nnsm, "linear_extend", shifted)
    for seed in range(10):
        rep = harness.run_scenario("B", seed)
        assert not any(c.name.startswith("assemble[") for c in rep.checks)
        failing = [c.name for c in rep.checks if not c.passed]
        assert failing[0] == "reconstruction[0]", (seed, failing)


def test_run_suite_sorted():
    reports = harness.run_suite("A", 0, 6)
    assert [r.scenario for r in reports] == sorted(r.scenario for r in reports)


def test_star_of_stacked_unbounded_fields_is_each_fields_adjoint():
    # fields of two term slots on kind D's model at seed 5, each slot a
    # stack of generator rows and complex (count, 2, 2) coefficients; the
    # adjoint swaps each coefficient's own two axes, so at every index it is
    # the adjoint of that field, and <I(F) x, y> = <x, I(F*) y>
    model = harness.gen_scenario("D", 5).payload["model"]
    assert model.block_dim == 2
    rng = np.random.default_rng(5)
    for count in (2, 6):
        picks = rng.integers(len(model.generators), size=(2, count))
        coeffs = rng.standard_normal((2, count, 2, 2, 2)).view(np.complex128)[..., 0]
        field_ = nnsm.OperatorField(terms=tuple(zip(model.factor_rows[2 * picks],
                                                    coeffs)))
        starred = field_.star()
        xs, ys = (harness._random_domain_vectors(rng, model, count) for _ in range(2))
        for i in range(count):
            one = nnsm.OperatorField(terms=tuple((v[i], a[i]) for v, a in field_.terms))
            for (_, a), (v, a_star), (w, b) in zip(field_.terms, starred.terms,
                                                    one.star().terms):
                assert np.array_equal(v[i], w) and np.array_equal(a_star[i], b)
                assert np.array_equal(b, np.conj(a[i].T))
        lhs = blocks.i_m_apply(field_, model, xs).inner(ys)
        rhs = xs.inner(blocks.i_m_apply(starred, model, ys))
        assert np.all(np.abs(lhs - rhs) <= 1e-9 * (1.0 + np.abs(lhs)))


def test_worst_residual_is_nan_when_any_residual_is():
    one, nan = (harness.CheckEntry("c", r, 2.0) for r in (1.0, float("nan")))
    for checks in ((one, nan), (nan, one), (nan,)):
        rep = harness.VerificationReport(scenario="s", checks=checks)
        assert np.isnan(rep.worst_residual)
    assert harness.VerificationReport(scenario="s", checks=(one,)).worst_residual == 1.0
    assert harness.VerificationReport(scenario="s", checks=()).worst_residual == 0.0


def test_report_doc_schema():
    rep = harness.run_scenario("A", 1)
    doc = rep.to_doc()
    assert doc["schema"] == 1
    assert set(doc) == {"schema", "scenario", "checks", "pass", "wall_ms"}
    for c in doc["checks"]:
        assert set(c) == {"name", "residual", "tol", "pass", "flags"}


def test_check_measure_file(tmp_path):
    space = measure.DiscreteSpace(labels=(0, 1))
    e = measure.SpectralMeasure(
        space,
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
    )
    good = tmp_path / "good.json"
    serialize.dump(serialize.measure_to_doc(e), good)
    assert harness.check_measure_file(good).passed
    bad_doc = serialize.measure_to_doc(e)
    bad_doc["atoms"][0][1]["data"][0] = [0.5, 0.0]  # no longer idempotent
    bad = tmp_path / "bad.json"
    serialize.dump(bad_doc, bad)
    assert not harness.check_measure_file(bad).passed


def test_a_failed_diagonalization_keeps_the_exception_message():
    # two non-commuting hermitian generators: the report's one entry keeps
    # the exception type in its name and the message in its flags
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(NotCommuting) as raised:
        algebra.joint_diagonalize([x, z])
    sc = harness.Scenario(kind="A", seed=0,
                          space=measure.DiscreteSpace(labels=(0, 1)),
                          payload={"images": {"b0": x, "b1": z}})
    (entry,) = harness.verify_theorem_a(sc).checks
    assert entry.name == "diagonalize[NotCommuting]" and not entry.passed
    assert entry.flags == (str(raised.value),) and str(raised.value)


def test_a_bad_document_keeps_the_exception_message(tmp_path):
    bad = tmp_path / "number.json"
    bad.write_text("5")
    with pytest.raises(InvalidDocument) as raised:
        serialize.load(bad)
    (entry,) = harness.check_measure_file(bad).checks
    assert entry.name == "document[InvalidDocument]" and not entry.passed
    assert entry.flags == (str(raised.value),) and str(raised.value)


def _truncate_reference(coeffs, eps):
    """Truncate at horizons 1, 2, ... until the tail, the norm of the rows
    from the horizon on, is within eps."""
    horizon, tail = len(coeffs), 0.0
    for h in range(1, len(coeffs) + 1):
        tail = float(np.sqrt(sum(float(np.vdot(v, v).real)
                                 for v in coeffs[h:])))
        if tail <= eps:
            horizon = h
            break
    kept = np.array(coeffs, dtype=complex)
    kept[horizon:] = 0.0
    return blocks.DomainVector(kept), tail


def test_truncate_to_eps_matches_per_horizon_reference():
    rng = np.random.default_rng(23)
    # rows of 1, 2 or 3 nonzero entries
    geometric = np.array([[0.5 ** n if j <= n % 3 else 0.0 for j in range(3)]
                          for n in range(40)])
    flat = rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))
    gapped = np.zeros((31, 1))
    gapped[[0, 2, 7, 30], 0] = (1.0, 1e-3, 1e-6, 1e-9)
    cases = [(c, eps) for c in (geometric, flat, gapped)
             for eps in (10.0, 1e-2, 1e-4, 1e-9, 1e-10, 1e-20, 0.0)]
    cases.append((np.zeros((0, 1)), 1e-4))
    for coeffs, eps in cases:
        member, tail = harness._truncate_to_eps(coeffs, eps)
        want_member, want_tail = _truncate_reference(coeffs, eps)
        assert np.array_equal(member.support, want_member.support)
        assert tail == want_tail
        assert member.sub(want_member).norm() == 0.0


def test_verify_b_makes_four_integrate_calls(monkeypatch):
    # one ρ call derives every E_P atom, one ρ and one rebuilt call cover the
    # represent fields, and one ρ call covers the rho_b-bound fields
    calls = []
    original = harness.integrate

    def counted(m, field_, delta):
        out = original(m, field_, delta)
        calls.append(out.shape[:-2])  # the field's batch shape
        return out

    monkeypatch.setattr(harness, "integrate", counted)
    for seed in range(10):
        calls.clear()
        sc = harness.gen_scenario("B", seed)
        rep = harness.verify_theorem_b(sc)
        assert rep.passed
        # the first call holds one indicator field per (member, atom)
        sizes = [int(np.prod(shape)) for shape in calls]
        assert len(calls) == 4 and sizes[1:] == [20, 20, 10], seed
        assert len(calls[0]) == 2 and calls[0][1] == len(sc.space.points())
        assert sizes[0] % len(sc.space.points()) == 0


def test_derived_measures_match_per_atom_rho_loop():
    for seed in (0, 3, 7):
        oracle = harness.gen_scenario("B", seed).payload["oracle"]
        whole = point_mask(oracle.space, oracle.space.points())
        fm = harness._derive_family_measures(
            lambda fields: nnsm.integrate(oracle, fields, whole), oracle,
            seed=seed + 3,
        )
        for i_p, p in enumerate(fm.family.members):
            e_p = member_measure(fm.compressions, i_p)
            total = np.zeros((oracle.target_dim,) * 2, dtype=complex)
            points = oracle.space.points()
            assert e_p.space == oracle.space
            for i, x in enumerate(points):
                row = np.zeros(len(points))
                row[i] = 1.0
                indicator = nnsm.OperatorField(terms=((row, p),))
                want = nnsm.integrate(oracle, indicator, whole)
                total += want
                assert np.linalg.norm(e_p.atoms[i] - want) <= 1e-12 * (
                    1 + np.linalg.norm(want))
            assert np.linalg.norm(e_p.total - total) <= 1e-12 * (
                1 + np.linalg.norm(total))


def _condition1_reference(fam, trials, seed):
    """condition1_check's residuals with each E_P(Delta) evaluated twice per
    trial, once for lhs and once for rhs, and one decomposition per trial."""
    rng = np.random.default_rng(seed)
    deltas = nnsm.random_sets(fam.compressions.space, rng, trials)
    measures = [member_measure(fam.compressions, i)
                for i in range(len(fam.family.members))]
    out = []
    for t in range(trials):
        lam = rng.standard_normal(len(fam.family.members))
        target = sum(c * p for c, p in zip(lam, fam.family.members))
        mu = algebra.decompose_over_family(fam.family, target)
        lhs = sum(c * measure.evaluate(e, deltas[t])
                  for c, e in zip(lam, measures))
        rhs = sum(c * measure.evaluate(e, deltas[t])
                  for c, e in zip(mu, measures))
        out.append((linalg.frob_norm(lhs - rhs),
                    1.0 + max(linalg.frob_norm(lhs), linalg.frob_norm(rhs))))
    return out


def _gen_b_nondegenerate_reference(seed, caps):
    """The sub-seed walk that generates every sub-seed's whole scenario."""
    for j in range(64):
        sc = harness.gen_scenario("B", (seed << 6) + j, caps)
        if sc.payload["oracle"].w1.ambient_dim >= 2:
            return sc
    raise AssertionError("no nondegenerate sub-seed")


def test_nondegenerate_walk_generates_only_the_returned_sub_seed(monkeypatch):
    real = harness.gen_scenario
    generated = []
    monkeypatch.setattr(harness, "gen_scenario",
                        lambda *args: generated.append(args) or real(*args))
    caps = harness.Caps()
    for seed in range(200):
        generated.clear()
        got = harness._gen_b_nondegenerate(seed, caps)
        assert len(generated) == 1
        want = _gen_b_nondegenerate_reference(seed, caps)
        assert got.seed == want.seed
        m, w = got.payload["oracle"], want.payload["oracle"]
        assert np.array_equal(m.images, w.images)
        assert np.array_equal(m.w1.basis, w.w1.basis)


def test_condition1_matches_two_pass_reference():

    sc = harness._gen_b_nondegenerate(2, harness.Caps())
    oracle = sc.payload["oracle"]
    fam = algebra.sample_projections(oracle.w1, n=10, seed=11)
    comp = oracle.measure_for(fam.stack)
    fm = nnsm.FamilyMeasures(fam, comp)
    # a corrupted compression: the relations no longer transfer
    atoms = comp.atoms.copy()
    atoms[1, 0] = atoms[1, 0] + 0.25 * np.eye(oracle.target_dim)
    broken = nnsm.FamilyMeasures(fam, replace(comp, atoms=atoms))
    for fam_measures, passes in ((fm, True), (broken, False)):
        residual, tol = nnsm.condition1_check(fam_measures, trials=12, seed=5)
        want = _condition1_reference(fam_measures, trials=12, seed=5)
        assert residual.shape == tol.shape == (12,)
        for r, t, (resid, scale) in zip(residual, tol, want):
            assert abs(r - resid) <= 1e-12 * scale
            assert t == pytest.approx(TAU_EXT * scale, rel=1e-12)
        assert np.all(residual <= tol) == passes


def _random_terms_reference(rng, m, count):
    """``count`` (value row, W1 element) pairs drawn one scalar at a time:
    per pair the row's real and imaginary parts point by point, then one
    element's draw."""
    pairs = []
    for _ in range(count):
        row = np.array([complex(rng.standard_normal(), rng.standard_normal())
                        for _ in m.space.points()])
        pairs.append((row, hermitian_element(m.w1, rng)))
    return pairs


def _random_field_reference(rng, m):
    count = int(rng.integers(1, 4))
    return nnsm.OperatorField(terms=tuple(_random_terms_reference(rng, m, count)))


def test_batched_field_draws_equal_the_scalar_draw_loop():
    caps = harness.Caps()
    gen = np.random.default_rng(17)
    for h in range(1, caps.h_dim + 1):
        for full in {False, h > 1}:
            gens = [linalg.random_hermitian(gen, h) for _ in range(1 + full)]
            w1 = algebra.bicommutant(gens, h)
            for n_atoms in range(1, min(caps.space, caps.k_dim // h) + 1):
                m = SimpleNamespace(
                    space=measure.DiscreteSpace(labels=tuple(range(n_atoms))),
                    w1=w1)
                seed = int(gen.integers(2**32))
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                stacked, rows, elements = harness._random_fields(rng, m, 20, 5)
                assert len(stacked.terms) == 3
                for v, a in stacked.terms:
                    assert v.shape == (20, n_atoms)
                    assert a.shape == (20, h, h)
                for i in range(20):
                    want = _random_field_reference(ref, m).terms
                    assert 1 <= len(want) <= 3
                    # field i's terms fill its first slots, exact zeros the rest
                    for t, (v, a) in enumerate(stacked.terms):
                        w, b = want[t] if t < len(want) else (0.0, 0.0)
                        assert np.array_equal(v[i], np.broadcast_to(w, v[i].shape))
                        assert np.array_equal(a[i], np.broadcast_to(b, a[i].shape))
                want = _random_terms_reference(ref, m, 5)
                assert np.array_equal(rows, [w for w, _ in want])
                assert np.array_equal(elements, [b for _, b in want])
                assert rng.bit_generator.state == ref.bit_generator.state


def test_b_fields_make_one_hermitian_elements_call(monkeypatch):
    draws, calls = [], []
    helper = harness._random_fields
    original = algebra.VonNeumannAlgebra.hermitian_elements

    def counted(self, rows):
        calls.append(len(rows))
        return original(self, rows)

    def drawn(*args):
        before = len(calls)
        out = helper(*args)
        draws.append(calls[before:])
        return out

    monkeypatch.setattr(algebra.VonNeumannAlgebra, "hermitian_elements", counted)
    monkeypatch.setattr(harness, "_random_fields", drawn)
    for seed in range(3):
        rep = harness.run_scenario("B", seed)
        fields = sum(1 for c in rep.checks if c.name.startswith("represent["))
        assert fields == 20
    # one call per scenario, over every term of the 20 fields and the 5 pairs
    assert len(draws) == 3
    for made in draws:
        assert len(made) == 1 and 20 + 5 <= made[0] <= 3 * 20 + 5


def _verify_b_reference(scenario):
    """verify_theorem_b's checks with one norm call per check and one
    validated SpectralMeasure per family member, fields drawn one scalar at
    a time."""
    oracle = scenario.payload["oracle"]
    whole = point_mask(oracle.space, oracle.space.points())
    frob, op = linalg.frob_norm, linalg.op_norm

    def rho(fields):
        return nnsm.integrate(oracle, fields, whole)

    checks = []
    rng = np.random.default_rng(scenario.seed + 2)
    fm = harness._derive_family_measures(rho, oracle, seed=scenario.seed + 3)
    measures = [member_measure(fm.compressions, i)
                for i in range(len(fm.family.members))]
    for i, e_p in enumerate(measures):
        checks.append(harness.CheckEntry(
            f"compression[P{i}]", float(e_p.validate()),
            float(TAU_RECON * (1.0 + frob(e_p.total)))))
    try:
        rebuilt = nnsm.assemble_from_family(fm, oracle.w1)
    except SpecmeasError as exc:
        checks.append(harness._bool_entry(f"assemble[{type(exc).__name__}]", False))
        return checks
    for x, want, got in zip(oracle.space.points(), oracle.images, rebuilt.images):
        checks.append(harness.CheckEntry(
            f"reconstruction[{x}]", float(max(frob(g - w) for g, w in zip(got, want))),
            float(TAU_EXT * (1.0 + frob(want[0])))))
    checks.append(harness.CheckEntry(
        "normalization",
        float(frob(rebuilt.measure_for(oracle.w1.identity()).total
                   - np.eye(rebuilt.target_dim))),
        TAU_RECON * (1.0 + rebuilt.target_dim)))
    # each family's integrals come from one batched call, as in the
    # pipeline, so that they match it to the last bit
    fields = stacked_fields([_random_field_reference(rng, oracle) for _ in range(20)])
    for t, (lhs, rhs) in enumerate(zip(rho(fields),
                                       nnsm.integrate(rebuilt, fields, whole))):
        checks.append(harness.CheckEntry(
            f"represent[F{t}]", float(frob(lhs - rhs)),
            float(TAU_RECON * (1.0 + frob(lhs)))))
    pairs = _random_terms_reference(rng, oracle, 5)
    rho_b = rho(stacked_fields([nnsm.OperatorField(terms=((b, c),))
                          for b, a in pairs for c in (a, oracle.w1.identity())]))
    for t, (_, a) in enumerate(pairs):
        bound = op(rho_b[2 * t + 1]) * op(a)
        checks.append(harness.CheckEntry(
            f"rho_b-bound[{t}]", float(max(0.0, op(rho_b[2 * t]) - bound)),
            float(TAU_RECON * (1.0 + bound))))
    return checks


def _b_reference_scenarios():
    for seed in [*range(40), *range(300000, 300020)]:
        yield harness.gen_scenario("B", seed)
    for fault in ("non-idempotent-projection", "denormalized-m"):
        for seed in range(6):
            yield harness.inject_fault(harness.gen_scenario("B", seed), fault)


def test_batched_verify_b_matches_per_check_reference():
    faulted = 0
    for sc in _b_reference_scenarios():
        got = harness.verify_theorem_b(sc).checks
        want = _verify_b_reference(sc)
        assert [c.name for c in got] == [c.name for c in want], sc.scenario_id
        assert [c.passed for c in got] == [c.passed for c in want], sc.scenario_id
        for c, r in zip(got, want):
            for value, ref in ((c.residual, r.residual), (c.tol, r.tol)):
                assert abs(value - ref) <= 1e-15 * max(abs(value), abs(ref)), (
                    sc.scenario_id, c.name)
        faulted += sc.fault is not None and not all(c.passed for c in got)
    assert faulted == 12


def test_assembly_rejects_a_broken_relation_at_every_atom(monkeypatch):
    # E_{P0}({x}) bumped by 1e-3 id, P0 the zero projection: the relation
    # 1 * P0 = 0 is broken at atom x alone, and the one batched relation
    # check in assemble_from_family must catch it at every x, the last too
    derive = harness._derive_family_measures
    most = 0
    for seed in range(6):
        sc = harness.gen_scenario("B", seed)
        n_atoms = len(sc.space.points())
        most = max(most, n_atoms)
        for x in range(n_atoms):
            def derive_bumped(rho, oracle, seed, x=x):
                fm = derive(rho, oracle, seed)
                assert not fm.family.members[0].any()
                comp = fm.compressions
                atoms = comp.atoms.copy()
                atoms[0, x] += 1e-3 * np.eye(oracle.target_dim)
                return nnsm.FamilyMeasures(fm.family, measure.SpectralMeasure(
                    comp.space, atoms))

            monkeypatch.setattr(harness, "_derive_family_measures", derive_bumped)
            checks = harness.verify_theorem_b(sc).checks
            assert checks[-1].name == "assemble[InconsistentAssignment]"
            assert not checks[-1].passed
            assert checks[-1].flags and checks[-1].flags[0]  # the message
    assert most >= 3


def test_verify_b_family_rows_fail_only_at_the_bumped_index(monkeypatch):
    sc = harness.gen_scenario("B", 5)
    n_atoms = len(sc.space.points())
    report = harness.verify_theorem_b(sc)
    assert n_atoms >= 2 and not _failed(report)
    n_members = sum(c.name.startswith("compression[") for c in report.checks)
    derive, assemble = harness._derive_family_measures, harness.assemble_from_family
    clean = {}

    def derive_bumped(rho, oracle, seed):
        # one member's atom off by 1e-3 id (the first member is the zero
        # projection); the clean compressions are still what M is
        # assembled from
        fm = clean["fm"] = derive(rho, oracle, seed)
        comp = fm.compressions
        atoms = comp.atoms.copy()
        atoms[bump["i"], bump["x"]] += 1e-3 * np.eye(oracle.target_dim)
        return nnsm.FamilyMeasures(fm.family, measure.SpectralMeasure(
            comp.space, atoms))

    monkeypatch.setattr(harness, "_derive_family_measures", derive_bumped)
    monkeypatch.setattr(harness, "assemble_from_family",
                        lambda fm, w1: assemble(clean["fm"], w1))
    for i in range(n_members):
        bump = {"i": i, "x": i % n_atoms}
        assert _failed(harness.verify_theorem_b(sc)) == {f"compression[P{i}]"}
    monkeypatch.undo()

    # one rebuilt atom map off: the rows that integrate the rebuilt measure
    # (normalization, represent) see it too, but no other atom's
    # reconstruction row, nor any row computed before assembly
    for x in range(n_atoms):
        def assemble_bumped(fm, w1, x=x):
            m = assemble(fm, w1)
            images = m.images.copy()
            images[x] *= 1.0 + 1e-3
            return nnsm.NonNegSpectralMeasure(m.space, m.w1, images)

        monkeypatch.setattr(harness, "assemble_from_family", assemble_bumped)
        failed = _failed(harness.verify_theorem_b(sc))
        assert {f for f in failed if not f.startswith(
            ("normalization", "represent["))} == {f"reconstruction[{x}]"}
    monkeypatch.undo()

    # one field's integral against the rebuilt measure off: the third
    # integrate call is the rebuilt side of represent[F*]
    integrate = harness.integrate
    for t in (0, 7, 19):
        calls = []

        def integrate_bumped(m, field_, delta, t=t):
            out = integrate(m, field_, delta)
            calls.append(out.shape)
            if len(calls) == 3:
                out = out.copy()
                out[t] += 1e-3 * np.eye(m.target_dim)
            return out

        monkeypatch.setattr(harness, "integrate", integrate_bumped)
        assert _failed(harness.verify_theorem_b(sc)) == {f"represent[F{t}]"}


def _norm(x):
    return float(np.sqrt(np.vdot(x.block, x.block).real))


def _rho_polynomial_reference(model, codes, coeffs, x):
    """rho(p) x per monomial: one rho_apply per non-constant factor, right
    to left, then the monomials scaled and summed in order."""
    unit = model.w.identity()
    table = model.factor_rows
    out = []
    for row, coeff in zip(codes.tolist(), coeffs.tolist()):
        y = x
        for c in reversed(row):
            if c != len(table) - 1:  # the table's last row is the constant 1
                y = blocks.rho_apply(model, table[c], unit, y)
        out.append(y.scale(coeff))
    return blocks.vector_sum(out)


def _one(xs, t):
    """Vector t of a stack, on its own."""
    return blocks.DomainVector(xs.block[t])


def _unbounded_draws(scenario):
    """The draws of verify_theorem_d for a C' or D scenario, in order: six
    domain vectors, six *-polynomials and six complex coefficients."""
    model = scenario.payload["model"]
    rng = np.random.default_rng(scenario.seed + 7)
    xs = harness._random_domain_vectors(rng, model, 6)
    codes, coeffs = blocks.random_star_polynomials(rng, len(model.generators), 6,
                                                   degree=3)
    dim = model.block_dim
    a = rng.standard_normal((6, dim, dim, 2)).view(np.complex128)[..., 0]
    return xs, codes, coeffs, a


def _verify_unbounded_reference(scenario):
    """verify_theorem_d's checks one vector at a time, for kinds C' and D:
    the pipeline's stacked draws, then per check rho(1 (x) A) and one
    rho_apply per non-constant factor against i_m_apply of the one-term
    field p (x) A, with np.vdot norms."""
    model = scenario.payload["model"]
    checks = []
    injected = scenario.payload.get("field")
    if injected is not None:
        resid, block = blocks.integrability_check(model, injected)
        checks.append(harness.CheckEntry(
            f"integrable[injected;block{block}]", float(resid), TAU_RECON))
    xs, all_codes, all_coeffs, all_a = _unbounded_draws(scenario)
    for t, (codes, coeffs, a) in enumerate(zip(all_codes, all_coeffs, all_a)):
        x = _one(xs, t)
        ax = blocks.rho_apply(model, np.ones(model.horizon), a, x)
        lhs = _rho_polynomial_reference(model, codes, coeffs, ax)
        field_ = nnsm.OperatorField(terms=(
            (blocks.star_values(codes, coeffs, model.factor_rows), a),))
        rhs = blocks.i_m_apply(field_, model, x)
        checks.append(harness.CheckEntry(
            f"represent[x{t}]", float(_norm(lhs.sub(rhs))),
            float(TAU_EXACT * (1.0 + _norm(rhs)))))
    return checks


def _unbounded_reference_scenarios():
    for kind in ("Cprime", "D"):
        for seed in [*range(60), *range(300000, 300020)]:
            yield harness.gen_scenario(kind, seed)
    for seed in range(4):
        yield harness.inject_fault(harness.gen_scenario("D", seed),
                                   "non-normal-block")


def test_batched_unbounded_pipelines_match_per_check_references():
    moved = 0
    for sc in _unbounded_reference_scenarios():
        got = harness.VERIFIERS[sc.kind](sc).checks
        want = _verify_unbounded_reference(sc)
        assert [c.name for c in got] == [c.name for c in want], sc.scenario_id
        assert [c.passed for c in got] == [c.passed for c in want], sc.scenario_id
        assert [c.flags for c in got] == [c.flags for c in want], sc.scenario_id
        for c, r in zip(got, want):
            assert np.float64(c.residual).tobytes() == np.float64(r.residual).tobytes(), (
                sc.scenario_id, c.name)
            assert abs(c.tol - r.tol) <= 1e-15 * max(abs(c.tol), abs(r.tol)), (
                sc.scenario_id, c.name)
            moved += c.tol != r.tol
        assert harness.VERIFIERS[sc.kind](sc).passed == (sc.fault is None)
    assert moved == 0

from types import SimpleNamespace

import numpy as np
import pytest

from specmeas import algebra, blocks, harness, linalg, measure, nnsm, serialize
from specmeas.errors import CapExceeded, SpecmeasError
from specmeas.tolerances import TAU_EXT, TAU_PROJ, TAU_RECON


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
    failed = {c.name for c in rep.checks if not c.passed}
    assert failed == {"uniqueness[atom0]", "uniqueness[atom1]"}


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
    rep = harness.verify_theorem_c(sc)
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
    rep = harness.verify_theorem_c(sc)
    assert rep.passed


def test_verify_c_represent_fails_on_a_generator_row_bumped_for_rho(monkeypatch):
    """represent[x*] applies rho once per factor of the *-polynomial and
    compares with the spectral integral of its values; a relative 1e-6 bump
    of one generator's row on the rho side alone must fail it."""
    sc = harness.gen_scenario("Cprime", 1)
    model = sc.payload["model"]
    assert sorted(model.generator_rows) == ["g0", "g1"]
    clean = harness.verify_theorem_c(sc)
    represent = [c for c in clean.checks if c.name.startswith("represent[x")]
    assert len(represent) == 6 and all(c.passed for c in represent)
    assert any(c.residual > 0.0 for c in represent)  # not one formula twice
    g0 = model.generator_rows["g0"]
    rho_apply = blocks.rho_apply

    def bumped(model_, values, a, x):
        if np.array_equal(values, g0) or np.array_equal(values, np.conj(g0)):
            values = values * (1.0 + 1e-6)
        return rho_apply(model_, values, a, x)

    monkeypatch.setattr(blocks, "rho_apply", bumped)
    rep = harness.verify_theorem_c(sc)
    failed = [c.name for c in rep.checks if not c.passed]
    assert failed and all(n.startswith("represent[x") for n in failed)


def test_verify_d_matrix_model():
    sc = harness.gen_scenario("D", 7)
    rep = harness.verify_theorem_d(sc)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]


@pytest.mark.parametrize("fault", ["transposed", "dropped-f"])
def test_verify_d_represent_fails_on_a_wrong_rho(monkeypatch, fault):
    """D's represent[x*] compares rho with the field's block actions, a
    route of its own: a rho that applies A^T, or drops the value row f,
    must fail it while every other check still passes."""
    sc = harness.gen_scenario("D", 3)
    clean = harness.verify_theorem_d(sc)
    assert clean.passed
    rho_apply = blocks.rho_apply

    def wrong(model_, values, a, x):
        if fault == "transposed":
            return rho_apply(model_, values, a.T, x)
        return rho_apply(model_, np.ones_like(values), a, x)

    monkeypatch.setattr(blocks, "rho_apply", wrong)
    rep = harness.verify_theorem_d(sc)
    failed = [c.name for c in rep.checks if not c.passed]
    assert failed and all(n.startswith("represent[x") for n in failed)


@pytest.mark.parametrize("fault", harness.FAULT_CLASSES)
def test_fault_detection(fault):
    for seed in range(3):
        rep = harness.fault_report(fault, seed)
        assert rep.passed, f"{fault} undetected at seed {seed}"


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


def test_run_suite_sorted():
    reports = harness.run_suite("A", 0, 6)
    assert [r.scenario for r in reports] == sorted(r.scenario for r in reports)


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
        space, (0, 1),
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
        assert member.support == want_member.support
        assert tail == want_tail
        assert member.sub(want_member).norm() == 0.0


def test_verify_b_makes_four_integrate_calls(monkeypatch):
    # one ρ call derives every E_P atom, one ρ and one rebuilt call cover the
    # represent fields, and one ρ call covers the rho_b-bound fields
    calls = []
    original = harness.integrate

    def counted(m, fields, delta):
        calls.append(len(fields))
        return original(m, fields, delta)

    monkeypatch.setattr(harness, "integrate", counted)
    for seed in range(10):
        calls.clear()
        sc = harness.gen_scenario("B", seed)
        rep = harness.verify_theorem_b(sc)
        assert rep.passed
        # the first call holds one indicator field per (member, atom)
        assert len(calls) == 4 and calls[1:] == [20, 20, 10], seed
        assert calls[0] % len(sc.space.points()) == 0


def test_derived_measures_match_per_atom_rho_loop():
    for seed in (0, 3, 7):
        oracle = harness.gen_scenario("B", seed).payload["oracle"]
        whole = measure.whole_space(oracle.space)
        fm = harness._derive_family_measures(
            lambda fields: nnsm.integrate(oracle, fields, whole), oracle,
            seed=seed + 3,
        )
        for i_p, p in enumerate(fm.family.members):
            e_p = fm.measure(i_p)
            total = np.zeros((oracle.target_dim,) * 2, dtype=complex)
            points = oracle.space.points()
            assert e_p.labels == tuple(points)
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
    deltas = nnsm.random_sets(fam.space, rng, trials)
    measures = [fam.measure(i) for i in range(len(fam.family.members))]
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


def test_condition1_matches_two_pass_reference():

    sc = harness._gen_b_nondegenerate(2, harness.Caps())
    oracle = sc.payload["oracle"]
    fam = algebra.sample_projections(oracle.w1, n=10, seed=11)
    fm = nnsm.family_measures(oracle, fam)
    # a corrupted compression: the relations no longer transfer
    atoms = fm.atoms.copy()
    atoms[1, 0] = atoms[1, 0] + 0.25 * np.eye(oracle.target_dim)
    broken = nnsm.FamilyMeasures(fam, oracle.space, fm.labels, atoms, fm.totals)
    for fam_measures, passes in ((fm, True), (broken, False)):
        rep = nnsm.condition1_check(fam_measures, trials=12, seed=5)
        want = _condition1_reference(fam_measures, trials=12, seed=5)
        assert [c.name for c in rep.checks] == [
            f"condition1[trial{t}]" for t in range(12)]
        for c, (resid, scale) in zip(rep.checks, want):
            assert abs(c.residual - resid) <= 1e-12 * scale
            assert c.tol == pytest.approx(TAU_EXT * scale, rel=1e-12)
        assert rep.passed == passes


def _random_terms_reference(rng, m, count):
    """``count`` (value row, W1 element) pairs drawn one scalar at a time:
    per pair the row's real and imaginary parts point by point, then one
    random_hermitian_element call."""
    pairs = []
    for _ in range(count):
        row = np.array([complex(rng.standard_normal(), rng.standard_normal())
                        for _ in m.space.points()])
        pairs.append((row, m.w1.random_hermitian_element(rng)))
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
                for _ in range(20):
                    got = harness._random_field(rng, m).terms
                    want = _random_field_reference(ref, m).terms
                    assert len(got) == len(want)
                    for (v, a), (w, b) in zip(got, want):
                        assert np.array_equal(v, w) and np.array_equal(a, b)
                rows, elements = harness._random_terms(rng, m, 5)
                want = _random_terms_reference(ref, m, 5)
                assert np.array_equal(rows, [w for w, _ in want])
                assert np.array_equal(elements, [b for _, b in want])
                assert rng.bit_generator.state == ref.bit_generator.state


def _verify_b_reference(scenario):
    """verify_theorem_b's checks with one norm call per check and one
    validated SpectralMeasure per family member, fields drawn one scalar at
    a time."""
    oracle = scenario.payload["oracle"]
    whole = measure.whole_space(oracle.space)
    frob, op = linalg.frob_norm, linalg.op_norm

    def rho(fields):
        return nnsm.integrate(oracle, fields, whole)

    def support(e):
        return {x for x, a in zip(e.labels, e.atoms) if frob(a) > TAU_PROJ}

    checks = []
    rng = np.random.default_rng(scenario.seed + 2)
    fm = harness._derive_family_measures(rho, oracle, seed=scenario.seed + 3)
    measures = [fm.measure(i) for i in range(len(fm.family.members))]
    for i, e_p in enumerate(measures):
        checks.append(nnsm.check_entry(
            f"compression[P{i}]", e_p.validate(),
            TAU_RECON * (1.0 + frob(e_p.total))))
    id_idx = harness._family_index(fm.family, oracle.w1.identity())
    supp_id = support(measures[id_idx])
    for i, e_p in enumerate(measures):
        checks.append(harness._bool_entry(
            f"support-containment[P{i}]", support(e_p) <= supp_id))
    try:
        rebuilt = nnsm.assemble_from_family(fm, oracle.w1)
    except SpecmeasError as exc:
        checks.append(harness._bool_entry(f"assemble[{type(exc).__name__}]", False))
        return checks
    for x, want, got in zip(oracle.labels, oracle.images, rebuilt.images):
        checks.append(nnsm.check_entry(
            f"reconstruction[{x}]", max(frob(g - w) for g, w in zip(got, want)),
            TAU_EXT * (1.0 + frob(want[0]))))
    checks.append(nnsm.check_entry(
        "normalization",
        frob(rebuilt.total_of_identity() - np.eye(rebuilt.target_dim)),
        TAU_RECON * (1.0 + rebuilt.target_dim)))
    fields = [_random_field_reference(rng, oracle) for _ in range(20)]
    for t, (lhs, rhs) in enumerate(zip(rho(fields),
                                       nnsm.integrate(rebuilt, fields, whole))):
        checks.append(nnsm.check_entry(
            f"represent[F{t}]", frob(lhs - rhs), TAU_RECON * (1.0 + frob(lhs))))
    pairs = _random_terms_reference(rng, oracle, 5)
    rho_b = rho([nnsm.OperatorField(terms=((b, c),))
                 for b, a in pairs for c in (a, oracle.w1.identity())])
    for t, (_, a) in enumerate(pairs):
        bound = op(rho_b[2 * t + 1]) * op(a)
        checks.append(nnsm.check_entry(
            f"rho_b-bound[{t}]", max(0.0, op(rho_b[2 * t]) - bound),
            TAU_RECON * (1.0 + bound)))
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


def _failed(report):
    return {c.name for c in report.checks if not c.passed}


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
        atoms = fm.atoms.copy()
        atoms[bump["i"], bump["x"]] += 1e-3 * np.eye(oracle.target_dim)
        return nnsm.FamilyMeasures(fm.family, fm.space, fm.labels, atoms)

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
            return nnsm.NonNegSpectralMeasure(m.space, m.w1, m.labels, images)

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

        def integrate_bumped(m, fields, delta, t=t):
            out = integrate(m, fields, delta)
            calls.append(len(fields))
            if len(calls) == 3:
                out = out.copy()
                out[t] += 1e-3 * np.eye(m.target_dim)
            return out

        monkeypatch.setattr(harness, "integrate", integrate_bumped)
        assert _failed(harness.verify_theorem_b(sc)) == {f"represent[F{t}]"}

"""Acceptance gate: eight numbered criteria, one pass/fail line each.

Every criterion runs at the stated scale and tolerance; a printed line
summarizes the outcome so the suite log reads as a checklist.
"""

import json
import time

import numpy as np

from specmeas import algebra, blocks, cli, harness, linalg, measure, nnsm

from conftest import domain_vector, hermitian_element, point_mask, tensor_model


def _line(n: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {n} [{label}]: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_theorem_a_round_trip():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(200):
        rep = harness.run_scenario("A", seed)
        assert rep.passed, rep.scenario
        for c in rep.checks:
            if c.name.startswith("represent"):
                # residual is absolute; tol carries the 1e-8*(1+scale) factor
                assert c.residual <= c.tol
                worst = max(worst, c.residual / c.tol)
    elapsed = time.monotonic() - t0
    _line(1, "theorem A round trip", elapsed <= 30.0,
          f"200 scenarios, worst residual/tol {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_theorem_b_round_trip():
    t0 = time.monotonic()
    for seed in range(100):
        rep = harness.run_scenario("B", seed)
        assert rep.passed, rep.scenario
        recon = [c for c in rep.checks if c.name.startswith("reconstruction")]
        assert recon
        for c in recon:
            assert c.residual <= 1e-7 * (1.0 + c.tol / 1e-7)  # tol = 1e-7*(1+s)
        rep_checks = [c for c in rep.checks if c.name.startswith("represent")]
        assert len(rep_checks) == 20
    elapsed = time.monotonic() - t0
    _line(2, "theorem B round trip", elapsed <= 120.0,
          f"100 scenarios x 20 fields, {elapsed:.1f}s")


def test_criterion_3_characterization_conditions():
    total_tuples = 0
    for seed in range(12):
        sc = harness.gen_scenario("B", seed)
        oracle = sc.payload["oracle"]
        fam = algebra.sample_projections(oracle.w1, n=10, seed=seed + 9)
        fm = nnsm.FamilyMeasures(fam, oracle.measure_for(fam.stack))
        residual1, _ = nnsm.condition1_check(fm, trials=8, seed=seed)
        assert np.max(residual1) <= 1e-7
        rng = np.random.default_rng(seed + 20)
        deltas = np.concatenate([
            [point_mask(oracle.space, oracle.space.points())],
            nnsm.random_sets(oracle.space, rng, 3)])
        k = nnsm.condition2_check(fm, deltas)
        # the identity is a family member, so k_X is witnessed as exactly 1
        assert abs(k[0] - 1.0) <= 1e-9
        assert np.max(k) <= 1.0 + 1e-9
        for _ in range(5):
            p = fam.members[int(rng.integers(len(fam.members)))]
            q = fam.members[int(rng.integers(len(fam.members)))]
            d1, d2 = nnsm.random_sets(oracle.space, rng, 2)
            residuals3, _ = nnsm.condition3_check(fm, p, q, d1, d2)
            assert residuals3[-1] <= 10.0 / 64.0
            assert nnsm.decay_rate(residuals3) >= 0.8
            total_tuples += 1
    _line(3, "characterization conditions", total_tuples >= 50,
          f"{total_tuples} (P,Q,D1,D2) tuples across 12 oracle families")


def test_criterion_4_limiting_sequences():
    rng = np.random.default_rng(404)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        a = linalg.random_hermitian(rng, n)
        right = algebra.limiting_sequence(a, zeta_rule="right")
        mid = algebra.limiting_sequence(a, zeta_rule="mid")
        ells = np.arange(1, 65)
        assert np.all(right.error(ells) <= 1.0 / ells + 1e-12)
        gap = np.linalg.norm(right.approximants(ells) - mid.approximants(ells),
                             ord=2, axis=(1, 2))
        assert np.all(gap <= 2.0 * right.mesh(ells) + 1e-12)
    # limit route vs the exact linear-extension oracle on tensor models
    worst = 0.0
    for seed in range(25):
        m, _, mrng = tensor_model(seed=seed)
        fam = algebra.sample_projections(m.w1, n=10, seed=seed)
        fm = nnsm.FamilyMeasures(fam, m.measure_for(fam.stack))
        a = hermitian_element(m.w1, mrng)
        delta = point_mask(m.space, {0, 2})
        exact = fm.extend_at(a, delta)
        approx = nnsm.extension_by_limit(fm, a, delta, ell=1 << 17)
        resid = linalg.frob_norm(approx - exact) / (1.0 + linalg.frob_norm(exact))
        worst = max(worst, resid)
        assert resid <= 1e-5
    _line(4, "limiting sequences", True,
          f"500 bounds + 25 limit-vs-extension checks, worst {worst:.2e}")


def test_criterion_5_integration_laws():
    rng = np.random.default_rng(505)
    models = [tensor_model(seed=s)[0] for s in range(20)]
    worst = 0.0
    for t in range(1000):
        m = models[t % len(models)]
        delta = nnsm.random_sets(m.space, rng, 1)[0]
        whole = point_mask(m.space, m.space.points())
        f = _random_field(rng, m)
        g = _random_field(rng, m)
        i_f = nnsm.integrate(m, f, delta)
        i_g = nnsm.integrate(m, g, delta)
        scale = 1.0 + max(linalg.frob_norm(i_f), linalg.frob_norm(i_g))
        # (i) additivity
        r1 = linalg.frob_norm(nnsm.integrate(m, f + g, delta) - (i_f + i_g))
        # (ii) homogeneity
        lam = complex(rng.standard_normal(), rng.standard_normal())
        r2 = linalg.frob_norm(nnsm.integrate(m, f.scale(lam), delta) - lam * i_f)
        # (iii) indicator: int chi_D (x) A dM = M_A(D)
        a = hermitian_element(m.w1, rng)
        chi = nnsm.OperatorField(terms=(
            (delta.astype(float), a),))
        r3 = linalg.frob_norm(nnsm.integrate(m, chi, whole)
                              - measure.evaluate(m.measure_for(a), delta))
        # (v) multiplicativity on a common set
        r5 = linalg.frob_norm(
            nnsm.integrate(m, f.product(g), delta) - i_f @ i_g)
        worst = max(worst, max(r1, r2, r3, r5) / scale)
        assert max(r1, r2, r3, r5) <= 1e-8 * scale ** 2
        # (iv) positivity of int F*F
        pos = nnsm.integrate(m, f.star().product(f), delta)
        assert np.linalg.eigvalsh((pos + linalg.adjoint(pos)) / 2)[0] >= -1e-9
    _line(5, "integration laws (i)-(v)", True,
          f"1000 triples, worst relative residual {worst:.2e}")


def _random_field(rng, m):
    terms = []
    for _ in range(int(rng.integers(1, 3))):
        fvals = np.array([complex(rng.standard_normal(), rng.standard_normal())
                          for _ in m.space.points()])
        terms.append((fvals, hermitian_element(m.w1, rng)))
    return nnsm.OperatorField(terms=tuple(terms))


def test_criterion_6_domain_laws():
    rng = np.random.default_rng(606)
    worst = 0.0
    for t in range(500):
        model = _random_block_model(rng, max_blocks=64, max_dim=3)
        x = _random_vec(rng, model)
        y = _random_vec(rng, model)
        ff = _random_ufield(rng, model)
        gg = _random_ufield(rng, model)
        ifx = blocks.i_m_apply(ff, model, x)
        igx = blocks.i_m_apply(gg, model, x)
        scale = 1.0 + max(ifx.norm(), igx.norm(), x.norm(), y.norm())
        # adjoint inner-product identity
        r1 = abs(ifx.inner(y) - x.inner(blocks.i_m_apply(ff.star(), model, y)))
        # additivity
        r2 = blocks.i_m_apply(ff + gg, model, x).sub(
            ifx.add(igx)).norm()
        # product law
        r3 = blocks.i_m_apply(ff.product(gg), model, x).sub(
            blocks.i_m_apply(ff, model, igx)).norm()
        resid = max(r1, r2, r3)
        worst = max(worst, resid / scale ** 2)
        assert resid <= 1e-9 * scale ** 2, (t, resid, scale)
    # density witnesses down to 1e-10
    coeffs = 0.5 ** np.arange(64.0)[:, None]
    for eps in (1e-2, 1e-6, 1e-10):
        member, tail = harness._truncate_to_eps(coeffs, eps)
        assert tail <= eps
    _line(6, "domain laws on D0", True,
          f"500 tuples, worst relative residual {worst:.2e}")


def _random_block_model(rng, max_blocks, max_dim):
    horizon = int(rng.integers(4, max_blocks + 1))
    dim = int(rng.integers(1, max_dim + 1))
    w = blocks.matrix_algebra(1)
    if dim > 1:
        w = algebra.bicommutant(
            [linalg.random_hermitian(rng, dim), linalg.random_hermitian(rng, dim)],
            dim,
        )
    return blocks.BlockModel(
        space=measure.DiscreteSpace(horizon=horizon),
        generators={"num": lambda n: np.asarray(n, dtype=float),
                    "osc": lambda n: (-1.0) ** n},
        w=w,
    )


def _random_vec(rng, model):
    supp = rng.choice(model.horizon, size=min(3, model.horizon), replace=False)
    return domain_vector(model, {
        int(n): rng.standard_normal(model.block_dim)
        + 1j * rng.standard_normal(model.block_dim)
        for n in supp
    })


def _random_ufield(rng, model):
    names = sorted(model.generators)
    terms = []
    for _ in range(int(rng.integers(1, 3))):
        g = model.generator_rows[names[int(rng.integers(len(names)))]]
        d = model.block_dim
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        terms.append((g, a))
    return nnsm.OperatorField(terms=tuple(terms))


def test_criterion_7_unbounded_pipelines_and_faults():
    rep = harness.verify_theorem_c(harness.number_operator_scenario())
    assert rep.passed
    for seed in range(25):
        for kind in ("Cprime", "D"):
            rep = harness.run_scenario(kind, seed)
            assert rep.passed, rep.scenario
            for c in rep.checks:
                if c.name.startswith("represent"):
                    assert c.residual <= c.tol  # tol = 1e-12*(1+scale)
    detected = 0
    for fault in harness.FAULT_CLASSES:
        for seed in range(20):
            if harness.fault_report(fault, seed).passed:
                detected += 1
    _line(7, "unbounded pipelines + fault suite", detected == 80,
          f"50 models exact, {detected}/80 faults detected")


def test_criterion_8_determinism(tmp_path):
    outs = []
    for run in range(2):
        path = tmp_path / f"run{run}.json"
        code = cli.run_cli([
            "report", "--out", str(path), "--kinds", "a,b,c,d",
            "--seed", "9", "--count", "3",
        ])
        assert code == 0
        outs.append(path.read_bytes())
    same = outs[0] == outs[1]
    doc = json.loads(outs[0])
    _line(8, "deterministic reports", same and doc["pass"],
          f"{len(doc['reports'])} reports byte-identical across runs")

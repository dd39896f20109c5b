import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmeas import algebra, blocks, harness, linalg, measure, nnsm, serialize
from specmeas.nnsm import OperatorField
from specmeas.errors import DimMismatch, ShapeMismatch
from specmeas.tolerances import TAU_RECON

from conftest import (block_mask, decode_star_polynomials, domain_vector, tensor_model,
                      truncate_to_eps)


def number_model(horizon: int = 32) -> blocks.BlockModel:
    """Scalar model with the coordinate generator n (number operator)."""
    return blocks.BlockModel(
        space=measure.DiscreteSpace(horizon=horizon),
        generators={"num": lambda n: np.asarray(n, dtype=float)},
    )


def matrix_model(horizon: int = 16, dim: int = 2, seed: int = 0):
    rng = np.random.default_rng(seed)
    gens = [linalg.random_hermitian(rng, dim)]
    w = algebra.bicommutant(gens, dim)
    model = blocks.BlockModel(
        space=measure.DiscreteSpace(horizon=horizon),
        generators={"num": lambda n: np.asarray(n, dtype=float),
                    "decay": lambda n: 0.5**n},
        w=w,
    )
    return model, rng


def random_vector(rng, model: blocks.BlockModel, supp=3) -> blocks.DomainVector:
    comps = {}
    for n in rng.choice(model.horizon, size=min(supp, model.horizon), replace=False):
        d = model.block_dim
        comps[int(n)] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return domain_vector(model, comps)


def test_domain_vector_arithmetic():
    model = number_model()
    x = domain_vector(model, {0: 1.0})
    y = domain_vector(model, {3: 1.0})
    z = x.add(y.scale(2.0))
    assert z.norm() == pytest.approx(np.sqrt(5.0))
    assert z.sub(x).norm() == pytest.approx(2.0)
    assert z.inner(x) == pytest.approx(1.0)
    # zero components are dropped
    assert np.array_equal(x.sub(x).support, block_mask(model.horizon, ()))
    with pytest.raises(ShapeMismatch):
        blocks.DomainVector(np.ones(3))  # one row per block, not a flat vector


def test_vector_sum_matches_per_block_reference():
    model, rng = matrix_model(dim=3, seed=13)
    xs = [random_vector(rng, model, supp=5) for _ in range(3)]
    # per block, the components of the vectors supported there, added in
    # vector order
    want = {}
    for x in xs:
        for n in np.flatnonzero(x.support).tolist():
            want[n] = want[n] + x.block[n] if n in want else x.block[n]
    got = blocks.vector_sum(xs)
    assert np.array_equal(got.support, block_mask(model.horizon, want))
    assert np.array_equal(got.block, domain_vector(model, want).block)
    with pytest.raises(DimMismatch):
        blocks.vector_sum([xs[0], domain_vector(number_model(), {})])


def test_number_operator_action():
    model = number_model()
    x = domain_vector(model, {0: 1.0, 5: 2.0})
    y = blocks.rho_apply(model, model.generator_rows["num"], np.eye(1), x)
    # block 0 is killed, block 5 picks up the factor 5
    assert np.array_equal(y.support, block_mask(model.horizon, {5}))
    assert y.block[5, 0] == pytest.approx(10.0)


def test_spectral_integral_and_d0():
    # on a scalar model the spectral integral of f is psi(f, 1)
    model = number_model()
    x = domain_vector(model, {2: 1.0, 7: 1.0})
    y = blocks.psi_apply(np.arange(model.horizon) ** 2, np.eye(1), model, x)
    assert y.block[2, 0] == pytest.approx(4.0)
    assert y.block[7, 0] == pytest.approx(49.0)
    assert np.array_equal(x.support, block_mask(model.horizon, {2, 7}))


def test_truncate_to_horizon_density():
    # geometric tail: truncation converges in norm; the tail from block 20
    # on is 1.1e-6 and from block 19 on 2.2e-6
    coeffs = 0.5 ** np.arange(40.0)[:, None]
    member, tail = truncate_to_eps(coeffs, 2e-6)
    assert np.array_equal(member.support, block_mask(40, range(20)))
    exact_tail = np.sqrt(sum(0.25**n for n in range(20, 40)))
    assert tail == pytest.approx(exact_tail)
    assert tail <= 1e-5


def test_psi_scalar_matches_rho():
    # a scalar model's coefficients are 1x1 matrices
    model = number_model()
    x = domain_vector(model, {1: 1.0, 4: 1.0j})
    f = model.generator_rows["num"]
    two = np.array([[2.0 + 0.0j]])
    got = blocks.psi_apply(f, two, model, x)
    want = blocks.rho_apply(model, f, two, x)
    assert got.sub(want).norm() <= 1e-14


def test_psi_matrix_exact_and_certified():
    model, rng = matrix_model(seed=3)
    x = random_vector(rng, model)
    a = linalg.random_complex(rng, 2, 2)
    f = model.generator_rows["decay"]
    got = blocks.psi_apply(f, a, model, x)
    want = blocks.rho_apply(model, f, a, x)
    assert got.sub(want).norm() <= 1e-12 * (1 + want.norm())
    # the limiting-sequence route psi(f, S_l(B)) x over the four positive
    # parts B of A approaches the exact value as ell grows
    parts = zip((1.0, -1.0, 1.0j, -1.0j), linalg.star_decompose(a))
    seqs = [(sign, algebra.limiting_sequence(b, ell_max=1)) for sign, b in parts]
    ops = sum(sign * seq.approximants([4, 64, 1 << 20]) for sign, seq in seqs)
    rs = []
    for op in ops:
        approx = blocks.rho_apply(model, f, op, x)
        rs.append(approx.sub(got).norm() / (1.0 + got.norm()))
    assert rs[0] >= rs[-1] and rs[-1] <= 1e-5


def test_i_m_linearity_and_star():
    model, rng = matrix_model(seed=4)
    x = random_vector(rng, model)
    y = random_vector(rng, model)
    a = linalg.random_complex(rng, 2, 2)
    b = linalg.random_complex(rng, 2, 2)
    ff = OperatorField(terms=((model.generator_rows["num"], a),))
    gg = OperatorField(terms=((model.generator_rows["decay"], b),))
    combo = ff.scale(2.0) + gg.scale(-1.0j)
    lhs = blocks.i_m_apply(combo, model, x)
    rhs = blocks.i_m_apply(ff, model, x).scale(2.0).add(
        blocks.i_m_apply(gg, model, x).scale(-1.0j))
    assert lhs.sub(rhs).norm() <= 1e-10 * (1 + rhs.norm())
    # adjoint law <I(F)x, y> = <x, I(F*)y>
    lhs_ip = blocks.i_m_apply(ff, model, x).inner(y)
    rhs_ip = x.inner(blocks.i_m_apply(ff.star(), model, y))
    assert abs(lhs_ip - rhs_ip) <= 1e-10 * (1 + abs(rhs_ip))


def test_i_m_product_on_d0():
    model, rng = matrix_model(seed=5)
    x = random_vector(rng, model)
    a = linalg.random_complex(rng, 2, 2)
    b = linalg.random_complex(rng, 2, 2)
    ff = OperatorField(terms=((model.generator_rows["num"], a),))
    gg = OperatorField(terms=((model.generator_rows["decay"], b),))
    lhs = blocks.i_m_apply(ff.product(gg), model, x)
    rhs = blocks.i_m_apply(ff, model, blocks.i_m_apply(gg, model, x))
    assert lhs.sub(rhs).norm() <= 1e-9 * (1 + rhs.norm())


def d_alpha_status(x, certified, residuals) -> str:
    """The three-way D_{alpha_K} outcome of one vector, read off
    d_alpha_check's (certified, residuals): certified when the support lies
    inside K and every probe excess is within TAU_RECON * (1 + ||x||),
    sampled-pass when only the probes pass, else fail."""
    sampled_pass = bool(np.all(residuals <= TAU_RECON * (1.0 + x.norm())))
    return ("certified" if certified and sampled_pass
            else "sampled-pass" if sampled_pass else "fail")


def test_d_alpha_certified_inside_k():
    model = number_model()
    k = block_mask(model.horizon, range(10))
    x = domain_vector(model, {2: 1.0, 8: 1.0})
    certified, residuals = blocks.d_alpha_check(x, model, k)
    assert d_alpha_status(x, certified, residuals) == "certified"
    assert residuals.shape == (20,)


def test_d_alpha_fails_outside_k():
    model = number_model()
    k = block_mask(model.horizon, range(3))
    # mass at block 20 where |num| = 20 > alpha_K = 2: some probe must exceed
    x = domain_vector(model, {20: 1.0})
    assert d_alpha_status(x, *blocks.d_alpha_check(x, model, k, probes=40)) == "fail"


def test_integrability_check():
    model, rng = matrix_model(seed=6)
    # hermitian coefficient: blockwise normal
    h = linalg.random_hermitian(rng, 2)
    good = OperatorField(terms=((model.generator_rows["num"], h),))
    assert blocks.integrability_check(model, good)[0] <= TAU_RECON
    bad = OperatorField(
        terms=((model.generator_rows["num"],
                np.array([[0, 1], [0, 0]], dtype=complex)),)
    )
    resid, block = blocks.integrability_check(model, bad)
    assert not resid <= TAU_RECON
    assert resid.shape == block.shape == ()  # an unbatched field reads 0-d
    empty = blocks.BlockModel(space=measure.DiscreteSpace(horizon=0),
                              generators={}, w=model.w)
    no_blocks = OperatorField(terms=((np.zeros(0), bad.terms[0][1]),))
    # no blocks: 0.0 at block 0
    assert blocks.integrability_check(empty, no_blocks) == (0.0, 0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_psi_additive_in_operator(seed):
    model, rng = matrix_model(seed=seed)
    x = random_vector(rng, model)
    a = linalg.random_complex(rng, 2, 2)
    b = linalg.random_complex(rng, 2, 2)
    f = model.generator_rows["decay"]
    lhs = blocks.psi_apply(f, a + b, model, x)
    rhs = blocks.psi_apply(f, a, model, x).add(blocks.psi_apply(f, b, model, x))
    assert lhs.sub(rhs).norm() <= 1e-9 * (1 + rhs.norm())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 31))
def test_domain_inclusion_bound(seed, n):
    # ||rho(b (x) A) x|| <= ||A||_op * ||rho(b) x|| blockwise
    model, rng = matrix_model(horizon=32, seed=seed)
    x = domain_vector(model, {int(n): rng.standard_normal(2)})
    a = linalg.random_complex(rng, 2, 2)
    f = model.generator_rows["num"]
    lhs = blocks.rho_apply(model, f, a, x).norm()
    rhs = linalg.op_norm(a) * blocks.rho_apply(model, f, model.w.identity(), x).norm()
    assert lhs <= rhs + 1e-9 * (1 + rhs)


# ---------------------------------------------------------------------------
# array-native routes against per-point references


def _psi_reference(f, a, model, x):
    """psi(f, A) x the per-eigenpair way: split A into Re A and Im A and add
    one rho_apply per eigenpair (lam, v v*) of each, the positive part's
    pairs with lam > 0 and the negative part's with lam < 0.  The pairs are
    numpy's unclustered ones, so the reference stays exact on degenerate
    spectra, where clustering would move it by the cluster width."""
    out = domain_vector(model, {})
    re = (a + linalg.adjoint(a)) / 2.0
    im = (a - linalg.adjoint(a)) / 2.0j
    for h, unit in ((re, 1.0), (im, 1.0j)):
        lams, vecs = np.linalg.eigh(h)
        for lam, v in zip(lams, vecs.T):
            if lam != 0.0:
                proj = np.outer(v, np.conj(v))
                out = out.add(blocks.rho_apply(model, f, proj, x).scale(unit * lam))
    return out


def _psi_cases(rng, dim=3):
    h = linalg.random_hermitian(rng, dim)
    u = linalg.random_unitary(rng, dim)
    # eigenvalues 1 and 1 + 1e-9 merge into one cluster; so do -2 and -2 - 1e-9
    degen = u @ np.diag([1.0, 1.0 + 1e-9, -2.0]) @ linalg.adjoint(u)
    degen_im = u @ np.diag([-2.0, -2.0 - 1e-9, 0.5]) @ linalg.adjoint(u)
    g = linalg.random_complex(rng, dim, dim)
    psd = g @ linalg.adjoint(g)
    psd = (psd + linalg.adjoint(psd)) / 2.0  # exactly hermitian: Im A = 0
    return {
        "hermitian": h,
        "skew-hermitian": 1j * h,
        "degenerate": degen + 1j * degen_im,
        "psd": psd,  # Re A has no negative part
        "negative-imaginary": -1j * psd,
        "general": g,
    }


@pytest.mark.parametrize("seed", range(4))
def test_psi_matches_per_eigenpair_reference(seed):
    model, rng = matrix_model(dim=3, seed=seed)
    for name, a in _psi_cases(rng).items():
        for gen in ("num", "decay"):
            x = random_vector(rng, model, supp=4)
            f = model.generator_rows[gen]
            got = blocks.psi_apply(f, a, model, x)
            want = _psi_reference(f, a, model, x)
            assert np.array_equal(got.support, want.support), name
            assert got.sub(want).norm() <= 1e-12 * (1.0 + want.norm()), name


def test_psi_reads_block_actions_without_eig_or_rho(monkeypatch):
    # psi_apply is the oracle side of D's representation check: it reads
    # the field's block actions and takes neither an eigendecomposition
    # nor the rho_apply route it is compared with
    model, rng = matrix_model(dim=3, seed=7)
    calls = []

    def refused(*args, **kwargs):
        calls.append(args)
        raise AssertionError("psi_apply left its own route")

    monkeypatch.setattr(linalg, "eig_hermitian", refused)
    monkeypatch.setattr(blocks, "rho_apply", refused)
    cases = _psi_cases(rng)
    x = random_vector(rng, model, supp=4)
    f = model.generator_rows["num"]
    for name, a in cases.items():
        got = blocks.psi_apply(f, a, model, x)
        want = f[:, None] * np.einsum("ij,nj->ni", a, x.block)
        assert np.allclose(got.block, want, rtol=0.0,
                           atol=1e-13 * (1.0 + np.abs(want).max())), name
    terms = tuple((model.generator_rows["decay"], a) for a in cases.values())
    blocks.i_m_apply(OperatorField(terms=terms), model, x)
    assert calls == []


def _reference_models():
    yield number_model(horizon=16)
    yield matrix_model(dim=2, seed=11)[0]
    yield matrix_model(dim=3, seed=12)[0]


def _probe_draw(n_names, probes, seed):
    """d_alpha_check's probe draw at ``seed``."""
    return blocks.random_star_polynomials(np.random.default_rng(seed), n_names,
                                          probes, degree=2)


def _probe_polynomials(names, probes, seed):
    """The probes of d_alpha_check's draw at ``seed``, decoded."""
    return decode_star_polynomials(*_probe_draw(len(names), probes, seed), names)


def _d_alpha_reference(x, model, k, probes, seed):
    """(certified, residuals, status) with each probe polynomial of the
    check's draw evaluated point by point from the generator callables."""
    support = np.flatnonzero(x.support).tolist()
    certified = not support or all(k[n] for n in support)
    names = sorted(model.generators)
    norm_x = x.norm()
    k_points = [n for n in range(model.horizon) if k[n]]
    residuals = []
    for poly in _probe_polynomials(names, probes, seed):

        def f(n, poly=poly):
            total = 0.0 + 0.0j
            for coeff, factors in poly:
                term = coeff
                for name, conj in factors:
                    v = complex(model.generators[name](n))
                    term *= np.conj(v) if conj else v
                total += term
            return total

        unit = model.w.identity()
        row = [f(n) for n in range(model.horizon)]
        y = blocks.rho_apply(model, row, unit, x)
        alpha = max((abs(f(n)) for n in k_points), default=0.0)
        residuals.append(max(0.0, y.norm() - alpha * norm_x))
    sampled_pass = all(r <= 1e-8 * (1.0 + norm_x) for r in residuals)
    status = ("certified" if certified and sampled_pass
              else "sampled-pass" if sampled_pass else "fail")
    return certified, residuals, status


def test_d_alpha_matches_per_point_reference():
    rng = np.random.default_rng(21)
    statuses = set()
    for model in _reference_models():
        for t in range(12):
            x = random_vector(rng, model, supp=int(rng.integers(0, 4)))
            k = block_mask(model.horizon,
                           [n for n in range(model.horizon) if rng.random() < 0.6])
            got_certified, got = blocks.d_alpha_check(x, model, k, probes=10, seed=t)
            certified, residuals, status = _d_alpha_reference(x, model, k, 10, t)
            assert got_certified == certified
            assert d_alpha_status(x, got_certified, got) == status
            scale = 1.0 + x.norm() * max(1.0, max(residuals))
            assert np.allclose(got, residuals, rtol=0.0, atol=1e-12 * scale)
            statuses.add(status)
    assert statuses == {"certified", "sampled-pass", "fail"}


def test_probe_draw_covers_the_star_polynomial_distribution():
    names = ["a", "b", "c"]
    polys = _probe_polynomials(names, 400, seed=5)
    codes, coeffs = _probe_draw(3, 400, seed=5)
    # unused monomial slots follow the used ones, with coefficient 0 and
    # the constant factor only
    used = coeffs != 0
    assert np.array_equal(used, np.sort(used, axis=1)[:, ::-1])
    assert np.all(codes[~used] == 6)
    counts = {len(p) for p in polys}
    degrees = {len(factors) for p in polys for _, factors in p}
    picks = {f for p in polys for _, factors in p for f in factors}
    assert counts == {1, 2, 3}
    assert degrees == {0, 1, 2}
    assert picks == {(n, conj) for n in names for conj in (False, True)}
    # the empirical frequencies sit near the uniform 1/3 of the scalar draw
    for k in (1, 2, 3):
        assert abs(sum(len(p) == k for p in polys) / 400 - 1 / 3) < 0.08
    # no generators: every probe is a constant
    codes, _ = _probe_draw(0, 50, seed=5)
    assert np.all(codes == 0)


@pytest.mark.parametrize("degree", [2, 3])
def test_random_star_polynomials_cover_their_distribution(degree):
    names = ["a", "b", "c"]
    count = 600
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    codes, coeffs = blocks.random_star_polynomials(rng, len(names), count, degree)
    assert codes.shape == (count, 3, degree) and coeffs.shape == (count, 3)
    # two draws: the uniforms, then the coefficients
    ref.random((count, 3, 2 + degree))
    ref.standard_normal((count, 3, 2))
    assert rng.bit_generator.state == ref.bit_generator.state
    polys = decode_star_polynomials(codes, coeffs, names)
    counts = [len(p) for p in polys]
    assert set(counts) == {1, 2, 3}
    for k in (1, 2, 3):
        assert abs(counts.count(k) / count - 1 / 3) < 0.06
    assert {len(f) for p in polys for _, f in p} == set(range(degree + 1))
    assert {f for p in polys for _, fs in p for f in fs} == {
        (n, conj) for n in names for conj in (False, True)}
    # unused monomial slots hold the constant code and coefficient 0, and
    # each used monomial's factors fill its first slots
    used = coeffs != 0
    assert np.array_equal(used, np.sort(used, axis=1)[:, ::-1])
    assert np.all(codes[~used] == 2 * len(names))
    real = codes != 2 * len(names)
    assert np.array_equal(real, np.sort(real, axis=-1)[..., ::-1])
    # no generators: every polynomial is a constant
    codes, coeffs = blocks.random_star_polynomials(rng, 0, 50, degree)
    assert np.all(codes == 0) and np.all(coeffs[:, 0] != 0)


def _star_values_reference(codes, coeffs, table):
    """Each polynomial's value at each point, one complex scalar at a time."""
    lead = coeffs.shape[:-1]
    out = np.zeros((*lead, table.shape[1]), dtype=np.complex128)
    for idx in np.ndindex(*lead):
        for n in range(table.shape[1]):
            total = 0j
            for coeff, row in zip(coeffs[idx], codes[idx]):
                term = complex(coeff)
                for c in row:
                    term *= complex(table[c, n])
                total += term
            out[idx + (n,)] = total
    return out


def test_star_values_matches_a_per_point_loop():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((2, 7, 2)).view(np.complex128)[..., 0]
    table = blocks.factor_table(rows, np.ones(7))
    assert np.array_equal(table, [rows[0], np.conj(rows[0]), rows[1],
                                  np.conj(rows[1]), np.ones(7)])
    # (2, 4) polynomials of 3 monomials of 2 slots; the first polynomial's
    # monomials are constant only, and the last slot of every monomial is
    # the constant
    codes = rng.integers(0, 5, size=(2, 4, 3, 2))
    codes[0, 0] = 4
    codes[..., 1] = 4
    coeffs = rng.standard_normal((2, 4, 3, 2)).view(np.complex128)[..., 0]
    got = blocks.star_values(codes, coeffs, table)
    assert got.shape == (2, 4, 7)
    assert np.allclose(got[0, 0], coeffs[0, 0].sum(), rtol=1e-15, atol=0.0)
    want = _star_values_reference(codes, coeffs, table)
    assert np.allclose(got, want, rtol=0.0, atol=1e-14 * np.abs(want).max())
    # a matrix table holds the adjoints and ends with the identity
    mats = rng.standard_normal((2, 3, 3, 2)).view(np.complex128)[..., 0]
    table = blocks.factor_table(mats, np.eye(3))
    assert np.array_equal(table[1], mats[0].conj().T)
    assert np.array_equal(table[3], mats[1].conj().T)
    assert np.array_equal(table[4], np.eye(3))


def test_d_alpha_fails_a_nan_probe():
    # f is NaN at block 2: a probe with a generator factor is NaN there, and
    # a NaN residual fails like any other
    model = blocks.BlockModel(
        space=measure.DiscreteSpace(horizon=8),
        generators={"g": lambda n: np.where(n == 2, np.nan, n * 1.0)},
    )
    x = domain_vector(model, {2: 1.0})
    k = block_mask(model.horizon, [2])
    with np.errstate(invalid="ignore"):
        certified, residuals = blocks.d_alpha_check(x, model, k, probes=20, seed=0)
    assert certified
    assert d_alpha_status(x, certified, residuals) == "fail"
    assert any(np.isnan(r) for r in residuals)


def test_k_must_be_a_set_over_the_model_space():
    # K is a set of the model's blocks: a mask over a wider horizon is none
    model = number_model(horizon=16)
    x = domain_vector(model, {1: 1.0, 9: 1.0})
    wider = np.arange(model.horizon + 5) < 10
    with pytest.raises(ShapeMismatch):
        blocks.d_alpha_check(x, model, wider)


def test_d_alpha_rejects_a_negative_probe_count():
    model = number_model()
    x = domain_vector(model, {2: 1.0})
    k = block_mask(model.horizon, range(5))
    with pytest.raises(ValueError):
        blocks.d_alpha_check(x, model, k, probes=-1)
    certified, residuals = blocks.d_alpha_check(x, model, k, probes=0)
    assert d_alpha_status(x, certified, residuals) == "certified"
    assert residuals.shape == (0,)


def _integrability_reference(model, field_):
    """(worst_block, worst_residual, passed), one block action at a time."""
    worst_block, worst, passed = 0, 0.0, True
    for n in range(model.horizon):
        dim = model.block_dim
        b = np.zeros((dim, dim), dtype=complex)
        for v, a in field_.terms:
            b += v[n] * a
        comm = b @ linalg.adjoint(b) - linalg.adjoint(b) @ b
        resid = linalg.frob_norm(comm) / (1.0 + linalg.frob_norm(b) ** 2)
        if resid > worst:
            worst_block, worst = n, resid
        passed = passed and resid <= 1e-8
    return worst_block, worst, passed


def _spike(model, n_bad):
    row = np.zeros(model.horizon, dtype=complex)
    row[n_bad] = 1.0
    return row


def test_integrability_matches_per_block_reference():
    rng = np.random.default_rng(22)
    for model in _reference_models():
        names = sorted(model.generators)
        fields = []
        for name in names:
            g = model.generator_rows[name]
            if model.block_dim == 1:
                fields.append(((g, np.array([[complex(rng.standard_normal(),
                                                      1.0)]])),))
            else:
                d = model.w.ambient_dim
                fields.append(((g, linalg.random_hermitian(rng, d)),))
                fields.append(((g, model.w.identity()),
                               (_spike(model, 5),
                                linalg.random_complex(rng, d, d))))
        for terms in fields:
            field_ = OperatorField(terms=terms)
            got, got_block = blocks.integrability_check(model, field_)
            block, resid, passed = _integrability_reference(model, field_)
            assert (got <= TAU_RECON) == passed
            assert abs(got - resid) <= 1e-12
            # a normal block action (a 1x1 or Hermitian coefficient) leaves
            # round-off (~1e-17) whose argmax names no block, so the worst
            # block is compared above round-off only
            if resid > 1e-12:
                assert got_block == block
    # the injected spike is found at its block
    assert not passed and block == 5


def test_integrability_of_a_stack_matches_per_field_calls():
    rng = np.random.default_rng(23)
    model, _ = matrix_model(seed=24)
    row = model.generator_rows["num"]
    nan_row = row.copy()
    nan_row[3] = np.nan
    coeffs = np.stack([linalg.random_hermitian(rng, 2),
                       linalg.random_complex(rng, 2, 2),
                       linalg.random_hermitian(rng, 2),
                       np.array([[0, 1], [0, 0]], dtype=complex)])
    rows = np.stack([row, row, nan_row, _spike(model, 7)])
    stacked = OperatorField(terms=((rows, coeffs),))
    with np.errstate(invalid="ignore"):
        resid, block = blocks.integrability_check(model, stacked)
        want = [blocks.integrability_check(model, OperatorField(terms=((v, a),)))
                for v, a in zip(rows, coeffs)]
    assert resid.shape == block.shape == (len(rows),)
    for r, n, (w_resid, w_block) in zip(resid, block, want):
        assert w_resid.shape == w_block.shape == ()
        assert n == w_block
        assert (r <= TAU_RECON) == (w_resid <= TAU_RECON)
        assert r == w_resid or np.isnan(r) and np.isnan(w_resid)
    assert (resid <= TAU_RECON).tolist() == [True, False, False, False]
    assert block[2] == 3 and block[3] == 7
    for got in blocks.integrability_check(model, OperatorField(
            terms=((rows[:0], coeffs[:0]),))):
        assert got.shape == (0,)
    empty = blocks.BlockModel(space=measure.DiscreteSpace(horizon=0),
                              generators={}, w=model.w)
    none = OperatorField(terms=((np.zeros(0), model.w.identity()),))
    two_none = OperatorField(terms=((np.zeros((2, 0)), model.w.identity()),))
    for got, one in zip(blocks.integrability_check(empty, two_none),
                        blocks.integrability_check(empty, none)):
        assert np.array_equal(got, [one] * 2)


def test_random_domain_vectors_draw_uniform_three_block_supports():
    models = [number_model(horizon=2), number_model(),
              matrix_model(dim=2)[0], matrix_model(horizon=5, dim=3)[0]]
    for model in models:
        reached = np.zeros(model.horizon, dtype=bool)
        picks = min(3, model.horizon)
        for seed in range(20):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            xs = harness._random_domain_vectors(rng, model, 7)
            assert xs.block.shape == (7, model.horizon, model.block_dim)
            # every component of a picked block is nonzero
            assert np.array_equal(np.all(xs.block != 0, axis=-1), xs.support)
            assert np.all(xs.support.sum(axis=1) == picks)
            reached |= xs.support.any(axis=0)
            # two draws: the uniforms, then the components
            ref.random((7, model.horizon))
            ref.standard_normal((7, picks, model.block_dim, 2))
            assert rng.bit_generator.state == ref.bit_generator.state
        assert reached.all()
    # each block is in a support with probability 3 / horizon
    model = number_model()
    xs = harness._random_domain_vectors(np.random.default_rng(1), model, 4000)
    assert np.allclose(xs.support.mean(axis=0), 3 / model.horizon, atol=0.03)


def test_domain_vector_keeps_non_finite_components():
    model, _ = matrix_model(horizon=4)
    x = domain_vector(model, {0: [1, 0], 3: [np.nan, 1]})
    assert np.array_equal(x.support, block_mask(model.horizon, {0, 3}))
    diff = x.sub(domain_vector(model, {0: [1, 0]}))
    assert np.isnan(diff.norm())
    # only exactly-zero components are outside the support
    assert np.array_equal(domain_vector(model, {0: [0, 0], 1: [0, 1e-300]}).support,
                          block_mask(model.horizon, {1}))


def test_integrability_fails_non_finite_field():
    model, _ = matrix_model(seed=8)
    a = linalg.random_hermitian(np.random.default_rng(8), 2)
    everywhere = OperatorField(terms=((np.full(model.horizon, np.nan), a),))
    with np.errstate(invalid="ignore"):
        resid, block = blocks.integrability_check(model, everywhere)
    assert not resid <= TAU_RECON and block == 0
    assert np.isnan(resid)
    # a hermitian field that is non-finite on block 6 only names that block
    row = np.arange(model.horizon, dtype=complex)
    row[6] = np.inf
    at_six = OperatorField(terms=((row, a),))
    with np.errstate(invalid="ignore"):
        resid, block = blocks.integrability_check(model, at_six)
    assert not resid <= TAU_RECON and block == 6


# every rule kind, with negative coefficients and negative zeros
_GENERATOR_RULES = {
    "poly": {"kind": "poly", "coeffs": [[-2.0, -0.0], [1.0, 0.0], [-1.0, 0.5]]},
    "poly-zero": {"kind": "poly", "coeffs": [[-0.0, -0.0], [-0.0, 0.0]]},
    "exp": {"kind": "exp-index", "rate": -0.37},
    "const": {"kind": "bounded-const", "value": [-1.0, 2.0]},
    "const-zero": {"kind": "bounded-const", "value": [-0.0, -0.0]},
}


def _scalar_rule(doc):
    """A rule for one Python int n at a time, with exact integer powers:
    the per-block reference that the rows must equal."""
    if doc["kind"] == "poly":
        coeffs = [complex(re, im) for re, im in doc["coeffs"]]
        return lambda n: sum(c * n**j for j, c in enumerate(coeffs))
    if doc["kind"] == "exp-index":
        return lambda n: complex(np.exp(doc["rate"] * n))
    return lambda n: complex(*doc["value"])


@pytest.mark.parametrize("horizon", [8, 32, 64])
def test_generator_rows_evaluate_each_generator_once_on_the_index_array(horizon):
    rules = {name: serialize.generator_rule(doc)
             for name, doc in _GENERATOR_RULES.items()}
    calls = []

    def counted(name):
        return lambda n: calls.append((name, n)) or rules[name](n)

    model = blocks.BlockModel(space=measure.DiscreteSpace(horizon=horizon),
                              generators={name: counted(name) for name in rules})
    rows = model.generator_rows
    assert rows is model.generator_rows  # cached on the model
    assert sorted(name for name, _ in calls) == sorted(rules)
    for _, n in calls:
        assert n.dtype == np.arange(horizon).dtype
        assert np.array_equal(n, np.arange(horizon))
    # the row is the rule's scalar values, and those of the per-int
    # reference, bit for bit, -0.0 included
    for name, f in rules.items():
        assert rows[name].dtype == np.complex128
        for g in (f, _scalar_rule(_GENERATOR_RULES[name])):
            want = np.array([complex(g(n)) for n in range(horizon)],
                            dtype=np.complex128)
            assert rows[name].tobytes() == want.tobytes(), name


def test_matrix_coefficients_must_fit_the_block_dim():
    # the number-operator model has 1x1 blocks: a 3x3 coefficient is no
    # block action, whatever the field's other terms say
    model = harness.number_operator_scenario().payload["model"]
    row = model.generator_rows["num"]
    x = domain_vector(model, {2: 1.0})
    wide = OperatorField(terms=((row, np.eye(3, dtype=complex)),))
    for apply in (lambda: blocks.integrability_check(model, wide),
                  lambda: blocks.i_m_apply(wide, model, x),
                  lambda: blocks.rho_apply(model, row, np.eye(3), x)):
        with pytest.raises(ShapeMismatch):
            apply()
    # every coefficient is a (block_dim, block_dim) matrix: a Python or
    # numpy scalar is none, on the 1x1 model as on a 2x2 one
    matrix, rng = matrix_model(seed=11)
    a = linalg.random_hermitian(rng, 2)
    assert blocks.integrability_check(
        matrix, OperatorField(terms=((row[:16], a),)))[0] <= TAU_RECON
    for model_, c in ((model, 2.0 + 0.0j), (model, np.complex128(2.0)),
                      (matrix, 2.0 + 0.0j), (matrix, np.eye(3))):
        scalar = OperatorField(terms=((model_.generator_rows["num"], c),))
        vec = domain_vector(model_, {2: np.ones(model_.block_dim)})
        for apply in (lambda: blocks.integrability_check(model_, scalar),
                      lambda: blocks.i_m_apply(scalar, model_, vec),
                      lambda: blocks.rho_apply(model_, scalar.terms[0][0], c, vec)):
            with pytest.raises(ShapeMismatch):
                apply()
    with pytest.raises(ShapeMismatch):
        blocks.integrability_check(
            matrix, OperatorField(terms=((row[:16], a), (row[:16], 2.0 + 0.0j))))


def test_value_rows_must_cover_the_horizon():
    model, rng = matrix_model(horizon=16, seed=10)
    x = domain_vector(model, {3: [1.0, 2.0]})
    a = linalg.random_complex(rng, 2, 2)
    # one rule for a value row (nnsm.value_rows), as in integrate: exactly
    # one value per block, so an extra entry is refused, never dropped
    row = model.generator_rows["num"]
    for wrong in (row[:15], np.append(row, 1.0)):
        field_ = OperatorField(terms=((wrong, a),))
        for apply in (lambda: blocks.rho_apply(model, wrong, a, x),
                      lambda: blocks.psi_apply(wrong, a, model, x),
                      lambda: blocks.i_m_apply(field_, model, x),
                      lambda: blocks.integrability_check(model, field_),
                      lambda: blocks.integrability_check(model, OperatorField(
                          terms=((np.stack([wrong, wrong]), a),)))):
            with pytest.raises(ShapeMismatch, match="one value per point"):
                apply()
    # a row covers the horizon, but the vector needs one row per block
    # below it: no more and no fewer
    k = block_mask(model.horizon, range(4))
    for rows in (model.horizon - 1, model.horizon + 1):
        wrong = blocks.DomainVector(np.ones((rows, 2)))
        with pytest.raises(ShapeMismatch):
            blocks.rho_apply(model, row, a, wrong)
        with pytest.raises(ShapeMismatch):
            blocks.psi_apply(row, a, model, wrong)
        with pytest.raises(ShapeMismatch):
            blocks.d_alpha_check(wrong, model, k)
    with pytest.raises(ShapeMismatch):
        blocks.rho_apply(model, np.ones((16, 1)), a, x)  # not a row


# ---------------------------------------------------------------------------
# stacks of vectors against one call per vector


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stacked_operators_equal_per_vector_calls(dim):
    model, rng = matrix_model(horizon=8, dim=dim, seed=30 + dim)
    vectors = [random_vector(rng, model, supp=s) for s in (0, 1, 3, 5, 8)]
    xs = blocks.DomainVector(np.stack([x.block for x in vectors]))
    rows = (rng.standard_normal((len(vectors), 8))
            + 1j * rng.standard_normal((len(vectors), 8)))
    coeffs = linalg.random_complex(rng, len(vectors) * dim, dim).reshape(-1, dim, dim)
    one_row, one_a = rows[0], coeffs[0]
    for apply in (lambda v, a, x: blocks.rho_apply(model, v, a, x),
                  lambda v, a, x: blocks.psi_apply(v, a, model, x)):
        stacked = apply(rows, coeffs, xs).block
        shared = apply(one_row, one_a, xs).block  # one row and A for the stack
        for i, x in enumerate(vectors):
            assert stacked[i].tobytes() == apply(rows[i], coeffs[i], x).block.tobytes()
            assert shared[i].tobytes() == apply(one_row, one_a, x).block.tobytes()
    norms, inner = xs.norm(), xs.inner(xs.scale(1j))
    for i, x in enumerate(vectors):  # each the np.vdot of its vector
        assert norms[i] == x.norm() == np.sqrt(np.vdot(x.block, x.block).real)
        assert inner[i] == x.inner(x.scale(1j)) == np.vdot(1j * x.block, x.block)
    assert np.array_equal(xs.support, np.stack([x.support for x in vectors]))
    # one K per vector: inside, partly outside and outside the support
    ks = np.stack([x.support for x in vectors[:3]]
                  + [block_mask(8, range(2)), block_mask(8, [7])])
    certified, residuals = blocks.d_alpha_check(xs, model, ks, probes=12, seed=dim)
    assert certified.shape == (len(vectors),)
    assert residuals.shape == (len(vectors), 12)
    statuses = set()
    for x, k, c, r in zip(vectors, ks, certified, residuals):
        one_c, one_r = blocks.d_alpha_check(x, model, k, probes=12, seed=dim)
        assert c == one_c and r.tobytes() == one_r.tobytes()
        statuses.add(d_alpha_status(x, c, r))
    assert statuses >= {"certified", "fail"}
    with pytest.raises(ShapeMismatch):
        blocks.d_alpha_check(xs, model, ks[:-1])


def test_k_is_a_boolean_block_mask():
    # K is a bool array whose last axis is the horizon and which broadcasts
    # against x's leading axes; anything else is ShapeMismatch.  K is never
    # coerced to bool: a frozenset is truthy and would keep every block
    model, rng = matrix_model(horizon=8, dim=2, seed=40)
    vectors = [random_vector(rng, model, supp=s) for s in (1, 3, 5)]
    xs = blocks.DomainVector(np.stack([x.block for x in vectors]))
    k = block_mask(8, range(4))
    wrong = [frozenset(range(4)), True,
             [frozenset(range(4))] * 3, k.astype(int),
             block_mask(7, range(4)), block_mask(9, range(4)),
             np.stack([k, k])]  # (n - 1, horizon) for the 3-stack
    for bad in wrong:
        for x in (vectors[0], xs):
            with pytest.raises(ShapeMismatch):
                blocks.d_alpha_check(x, model, bad)
    # one (horizon,) K shared by the stack, or one K per vector: each
    # vector's result is bit-equal to its single call
    for mask in (k, np.stack([k, vectors[1].support, ~k])):
        certified, residuals = blocks.d_alpha_check(xs, model, mask, probes=12, seed=3)
        statuses = set()
        for i, (x, k_i) in enumerate(zip(vectors, np.broadcast_to(mask, (3, 8)))):
            one_c, one_r = blocks.d_alpha_check(x, model, k_i, probes=12, seed=3)
            assert certified[i] == one_c
            assert residuals[i].tobytes() == one_r.tobytes()
            statuses.add(d_alpha_status(x, certified[i], residuals[i]))
    assert statuses >= {"certified", "fail"}


def test_d_alpha_takes_one_vector_or_one_stack_of_them():
    # d_alpha_check takes one vector or a (vectors, horizon, block_dim)
    # stack, nothing deeper
    model = number_model(horizon=8)
    x = blocks.DomainVector(np.ones((2, 3, 8, 1)))
    k = block_mask(8, range(4))
    with pytest.raises(ShapeMismatch):
        blocks.d_alpha_check(x, model, k)


def test_an_empty_field_acts_as_zero():
    # a field without terms integrates to 0 and is integrable; on D0 it is
    # the zero vector of x's shape, one vector or a stack
    model, rng = matrix_model(dim=2, seed=4)
    empty = OperatorField(terms=())
    x = random_vector(rng, model)
    xs = blocks.DomainVector(np.stack([x.block, random_vector(rng, model).block]))
    for vec in (x, xs):
        got = blocks.i_m_apply(empty, model, vec)
        assert got.block.shape == vec.block.shape and not got.block.any()
    assert blocks.integrability_check(model, empty)[0] <= TAU_RECON


def _stacked_slot(rng, form, batch, n_points, w):
    """One term slot of a field of batch shape ``batch``: a value row over
    n_points and an element of w with complex coordinates.  "both" stacks
    the row and the coefficient, "row" leaves the row unbatched against a
    stacked coefficient, "coefficient" the coefficient against stacked rows,
    and "zero" is the exact-zero padding of a missing term."""
    row_shape = () if form == "row" else batch
    coefficient_shape = () if form == "coefficient" else batch
    row = rng.standard_normal((*row_shape, n_points, 2)).view(complex)[..., 0]
    coords = rng.standard_normal((*coefficient_shape, w.dim, 2)).view(complex)[..., 0]
    a = np.tensordot(coords, w.basis, axes=1)
    if form == "zero":
        return np.zeros_like(row), np.zeros_like(a)
    return row, a


def _field_at(field_, index, batch):
    """The unbatched field at one batch index: each slot's row and
    coefficient broadcast to the batch shape, then read at ``index``."""
    return OperatorField(terms=tuple(
        (np.broadcast_to(v, batch + v.shape[-1:])[index],
         np.broadcast_to(a, batch + a.shape[-2:])[index]) for v, a in field_.terms))


def _same_terms(f, g, tol=0.0):
    return len(f.terms) == len(g.terms) and all(
        v.shape == w.shape and a.shape == b.shape
        and np.all(np.abs(v - w) <= tol * (1.0 + np.abs(w)))
        and np.all(np.abs(a - b) <= tol * (1.0 + np.abs(b)))
        for (v, a), (w, b) in zip(f.terms, g.terms))


_FORMS = ["both", "row", "coefficient", "zero"]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), batch=st.sampled_from([(), (3,), (0,)]),
       forms=st.lists(st.sampled_from(_FORMS), max_size=3),
       other=st.lists(st.sampled_from(_FORMS), min_size=1, max_size=2))
def test_a_stacked_field_acts_as_its_slices(seed, batch, forms, other):
    # one field of 0-3 slots serves an NNSM over the countable space of
    # horizon 3 and the block model over the same points and algebra: at
    # every batch index, the field algebra, integrate, integrability_check
    # and i_m_apply agree with the unbatched field there.  A field without
    # slots has no batch axes, so results are broadcast to the batch shape
    m, _, rng = tensor_model(seed=seed % 50)
    space = measure.DiscreteSpace(horizon=3)
    m = nnsm.NonNegSpectralMeasure(space, m.w1, m.images)
    model = blocks.BlockModel(space=space, generators={}, w=m.w1)
    k, d = m.target_dim, model.block_dim
    f = OperatorField(terms=tuple(_stacked_slot(rng, form, batch, 3, m.w1)
                                  for form in forms))
    g = OperatorField(terms=tuple(_stacked_slot(rng, form, batch, 3, m.w1)
                                  for form in other))
    lam = complex(*rng.standard_normal(2))
    delta = rng.random(3) < 0.5
    x = rng.standard_normal((*batch, 3, d, 2)).view(complex)[..., 0]
    integral = np.broadcast_to(nnsm.integrate(m, f, delta), batch + (k, k))
    resid, block = blocks.integrability_check(model, f)
    applied = blocks.i_m_apply(f, model, blocks.DomainVector(x)).block
    assert applied.shape == x.shape
    if forms and batch:
        assert integral.shape == batch + (k, k)
        assert resid.shape == block.shape == batch
    for j, index in enumerate(np.ndindex(batch)):
        at_f, at_g = _field_at(f, index, batch), _field_at(g, index, batch)
        assert _same_terms(_field_at(f + g, index, batch), at_f + at_g)
        assert _same_terms(_field_at(f.scale(lam), index, batch), at_f.scale(lam))
        assert _same_terms(_field_at(f.star(), index, batch), at_f.star())
        assert _same_terms(_field_at(f.product(g), index, batch),
                           at_f.product(at_g), tol=1e-13)
        want = nnsm.integrate(m, at_f, delta)
        assert linalg.frob_norm(integral[index] - want) <= 1e-12 * (
            1.0 + linalg.frob_norm(want))
        got = np.broadcast_to(resid, batch)[index]
        alone, alone_block = blocks.integrability_check(model, at_f)
        assert (got <= TAU_RECON) == (alone <= TAU_RECON)
        assert abs(got - alone) <= 1e-12
        if alone > 1e-12:  # round-off names no block
            assert np.broadcast_to(block, batch)[index] == alone_block
        one = blocks.i_m_apply(at_f, model, blocks.DomainVector(x[index])).block
        assert np.all(np.abs(applied[index] - one) <= 1e-12 * (1.0 + np.abs(one)))

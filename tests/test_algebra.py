import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmeas import algebra, harness, linalg, nnsm
from specmeas.errors import (
    InconsistentAssignment,
    NotCommuting,
    NotInSpan,
    NotNormal,
    ShapeMismatch,
)
from specmeas.tolerances import DELTA_CLUSTER, TAU_ALG, TAU_EXT, TAU_PROJ, TAU_RANK

from conftest import hermitian_element


def _reference_commutant(mats, dim: int) -> np.ndarray:
    """The (dim, d, d) orthonormal basis stack of {X : XS = SX for every S in
    ``mats`` and its adjoint}: the null space of the Kronecker constraint
    rows vec(XT - TX), one block per unit-normalized generator and adjoint,
    cut at TAU_RANK.  An oracle for bicommutant that shares none of its
    span-of-words route."""
    eye = np.eye(dim)
    rows = []
    for s in mats:
        norm = linalg.frob_norm(s)
        if norm <= 1e-300:
            continue
        for t in (s / norm, linalg.adjoint(s) / norm):
            rows.append(np.kron(eye, t.T) - np.kron(t, eye))
    if not rows:
        return np.eye(dim * dim, dtype=complex).reshape(-1, dim, dim)
    _, sv, vh = np.linalg.svd(np.vstack(rows), full_matrices=False)
    return vh[int(np.sum(sv > TAU_RANK)):].conj().reshape(-1, dim, dim)


def _reference_bicommutant(mats, dim: int) -> algebra.VonNeumannAlgebra:
    """{mats}'' as the commutant of the commutant: two null-space SVDs."""
    basis = _reference_commutant(_reference_commutant(mats, dim), dim)
    return algebra.VonNeumannAlgebra(ambient_dim=dim, basis=basis)


def diag_algebra(n: int) -> algebra.VonNeumannAlgebra:
    gens = [np.diag([1.0 if i == j else 0.0 for j in range(n)]).astype(complex) for i in range(n)]
    return algebra.bicommutant(gens, n)


def all_diagonal_projections(n: int) -> algebra.ProjectionFamily:
    """The 2^n projections of the diagonal algebra on C^n, 0 and 1 included."""
    members = tuple(
        np.diag([float(mask >> i & 1) for i in range(n)]).astype(complex)
        for mask in range(2**n)
    )
    return algebra.ProjectionFamily(algebra=diag_algebra(n), members=members)


def test_bicommutant_full_matrix_algebra():
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    w = algebra.bicommutant([e12], 2)
    assert w.dim == 4


def test_bicommutant_scalars():
    w = algebra.bicommutant([np.eye(3, dtype=complex)], 3)
    assert w.dim == 1
    assert len(_reference_commutant(w.basis, 3)) == 9


def test_diagonal_algebra_self_commutant():
    w = diag_algebra(3)
    assert w.dim == 3
    for a in w.basis:
        for b in w.basis:
            assert linalg.frob_norm(a @ b - b @ a) <= 1e-8
    c = algebra.VonNeumannAlgebra(ambient_dim=3,
                                  basis=_reference_commutant(w.basis, 3))
    assert c.dim == 3
    for b in w.basis:
        c.coefficients(b)  # raises NotInSpan off the commutant


def test_membership_and_coefficients():
    w = diag_algebra(2)
    a = np.diag([2.0, 3.0 + 1.0j])
    coeffs = w.coefficients(a)
    recon = sum(c * b for c, b in zip(coeffs, w.basis))
    assert np.allclose(recon, a)
    with pytest.raises(NotInSpan):
        w.coefficients(np.array([[0, 1], [0, 0]], dtype=complex))


def _m2_algebra():
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    return algebra.bicommutant([e12], 2)


@pytest.mark.parametrize("w", [diag_algebra(3), _m2_algebra()], ids=["diag3", "m2"])
def test_stacked_coefficients_match_per_matrix_reference(w):
    rng = np.random.default_rng(31)
    stack = np.stack([
        hermitian_element(w, rng) + 1j * hermitian_element(w, rng)
        for _ in range(5)
    ])
    got = w.coefficients(stack)
    assert got.shape == (5, w.dim)
    for row, a in zip(got, stack):
        want = np.array([np.vdot(b, a) for b in w.basis])
        assert np.allclose(row, want, rtol=0, atol=1e-12)
        assert np.allclose(w.coefficients(a), row, rtol=0, atol=1e-12)


def test_stacked_coefficients_reject_one_matrix_off_the_span():
    w = diag_algebra(2)
    inside = np.diag([2.0, 3.0 + 1.0j])
    off = np.array([[0, 1], [0, 0]], dtype=complex)
    w.coefficients(np.stack([inside, inside]))
    with pytest.raises(NotInSpan):
        w.coefficients(np.stack([inside, off, inside]))
    with pytest.raises(NotInSpan):
        w.coefficients(np.stack([inside, np.full((2, 2), np.nan)]))


def test_empty_stack_has_empty_coordinates_and_residuals():
    for w in (diag_algebra(3), _m2_algebra()):
        d = w.ambient_dim
        empty = np.zeros((0, d, d), dtype=complex)
        assert w.coefficients(empty).shape == (0, w.dim)
        assert w.membership_residual(empty).shape == (0,)
        fam = algebra.sample_projections(w, n=4, seed=0)
        assert algebra.decompose_over_family(fam, empty).shape == (len(fam), 0)


def _reference_sample(w, n, seed):
    """The per-attempt sampler that sample_projections batches: per attempt
    one element, one eig_hermitian and, unless the element has a single
    eigenvalue cluster, one uniform threshold draw."""
    rng = np.random.default_rng(seed)
    d = w.ambient_dim

    def spans(members):
        # a least-squares fit of the basis, independent of the family's SVD
        cols = np.stack([p.reshape(-1) for p in members], axis=1)
        targets = w.basis_matrix.T
        coeffs, *_ = np.linalg.lstsq(cols, targets, rcond=None)
        return np.linalg.norm(cols @ coeffs - targets, axis=0).max() <= TAU_ALG

    members = [np.zeros((d, d), dtype=complex)]
    if w.contains_identity:
        members.append(w.identity())
    attempts = 0
    while len(members) < n + 2 or not spans(members):
        attempts += 1
        if attempts > 8 * (n + w.dim) + 64:
            break
        coeffs = rng.standard_normal(w.dim) + 1j * rng.standard_normal(w.dim)
        a = (coeffs[:, None] * w.basis_matrix).sum(axis=0).reshape(d, d)
        dec = linalg.eig_hermitian((a + linalg.adjoint(a)) / 2.0)
        lo, hi = dec.values[0], dec.values[-1]
        t = rng.uniform(lo, hi) if hi > lo else lo
        p = dec.projections[dec.values >= t].sum(axis=0)
        if (linalg.frob_norm(p @ p - p) <= TAU_PROJ
                and linalg.frob_norm(p - linalg.adjoint(p)) <= TAU_PROJ):
            members.append(p)
    return members, spans(members)


def _sampled_algebras():
    """(algebra, n): every (ambient_dim, dim) that kinds B (n = 10) and D
    (n = 6) reach at the default caps, a maximal abelian algebra or the full
    matrix algebra on C^h; then M_3 with n + 2 < dim, and two algebras whose
    elements have a repeated eigenvalue: the scalars on C^2 (one cluster)
    and {U diag(a, a, b) U*} (a two-vector and a one-vector cluster)."""
    for h in range(1, 5):
        rng = np.random.default_rng(h)
        yield algebra.bicommutant([linalg.random_hermitian(rng, h)], h), 10
        if h > 1:
            gens = [linalg.random_hermitian(rng, h) for _ in range(2)]
            full = algebra.bicommutant(gens, h)
            yield full, 10
            if h < 4:
                yield full, 6
    rng = np.random.default_rng(5)
    yield algebra.bicommutant([linalg.random_hermitian(rng, 3) for _ in range(2)], 3), 1
    yield algebra.bicommutant([np.eye(2)], 2), 10
    u = linalg.random_unitary(rng, 3)
    yield algebra.bicommutant([u @ np.diag([1.0, 1.0, 2.0]) @ linalg.adjoint(u)], 3), 10


def test_sample_projections_matches_the_per_attempt_loop():
    shapes = set()
    for w, n in _sampled_algebras():
        shapes.add((w.ambient_dim, w.dim, n))
        for seed in range(4):
            fam = algebra.sample_projections(w, n=n, seed=seed)
            members, spans = _reference_sample(w, n, seed)
            assert fam.spans_algebra == spans
            assert len(fam.members) == len(members)
            for got, want in zip(fam.members, members):
                assert got.tobytes() == want.tobytes()
    assert shapes == {(1, 1, 10), (2, 2, 10), (2, 4, 10), (2, 4, 6), (3, 3, 10),
                      (3, 9, 10), (3, 9, 6), (3, 9, 1), (4, 4, 10), (4, 16, 10),
                      (2, 1, 10), (3, 2, 10)}


def test_sampled_members_are_one_stack_led_by_zero_and_identity():
    # M_h, maximal abelian algebras and C alike
    for w, n in _sampled_algebras():
        d = w.ambient_dim
        fam = algebra.sample_projections(w, n=n, seed=0)
        assert isinstance(fam.members, np.ndarray)
        assert fam.members.dtype == np.complex128
        assert fam.members.shape == (len(fam), d, d)
        assert np.array_equal(fam.members[0], np.zeros((d, d)))
        assert np.array_equal(fam.members[1], np.eye(d))


def test_stacked_coefficients_are_each_matrix_own_bit_for_bit():
    for w, _ in _sampled_algebras():
        rng = np.random.default_rng(w.dim)
        stack = np.stack([hermitian_element(w, rng) for _ in range(7)])
        got = w.coefficients(stack)
        for row, a in zip(got, stack):
            assert row.tobytes() == w.coefficients(a).tobytes()


@pytest.mark.parametrize("h,n", [(4, 10), (3, 6)])
def test_sample_projections_tests_spanning_once_on_the_full_algebra(monkeypatch, h, n):
    # a family of at most dim M_h members, one of them 0, cannot span; so
    # the first chunk runs every attempt up to dim + 1 members at once
    rng = np.random.default_rng(h)
    w = algebra.bicommutant([linalg.random_hermitian(rng, h) for _ in range(2)], h)
    assert w.dim == h * h
    calls = {"eig": 0, "svd": 0}
    eig, svd = algebra.eig_hermitian, np.linalg.svd

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(algebra, "eig_hermitian", counted("eig", eig))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
    fam = algebra.sample_projections(w, n=n, seed=0)
    assert fam.spans_algebra
    assert len(fam) == w.dim + 1
    assert calls == {"eig": 1, "svd": 1}


def test_sample_projections_spans():
    w = algebra.bicommutant([linalg.random_hermitian(np.random.default_rng(5), 3)], 3)
    fam = algebra.sample_projections(w, n=8, seed=0)
    assert fam.span_deficit() <= 1e-8
    assert fam.validate() <= 1e-8


def test_projection_family_stack_and_validate():
    w = algebra.bicommutant([linalg.random_hermitian(np.random.default_rng(5), 3)], 3)
    empty = algebra.ProjectionFamily(algebra=w, members=())
    assert empty.members.shape == (0, 3, 3)
    assert empty.validate() == 0.0
    fam = algebra.sample_projections(w, n=8, seed=0)
    # a sequence of matrices is coerced to the same stack
    assert np.array_equal(algebra.ProjectionFamily(w, tuple(fam.members)).members,
                          fam.members)
    # a member that is no projection, or lies outside w, trips validate
    off = np.zeros((3, 3), dtype=complex)
    off[0, 1] = 1.0
    for bad in (1.01 * fam.members[-1], off):
        broken = algebra.ProjectionFamily(
            algebra=w, members=np.concatenate([fam.members, [bad]]))
        assert broken.validate() >= 1e-3


def test_linear_extend_consistent_and_inconsistent():
    fam = all_diagonal_projections(2)
    assert fam.span_deficit() <= 1e-10
    # assign each projection its own trace (as a 1x1 matrix); trace is linear
    values = [np.array([[np.trace(p)]], dtype=complex) for p in fam.members]
    a = np.diag([2.0, -1.0]).astype(complex)
    v = algebra.linear_extend(fam, values, a)
    assert complex(v[0, 0]) == pytest.approx(np.trace(a))
    bad = list(values)
    # the zero projection is in the family; give it a nonzero value
    zero_idx = next(i for i, p in enumerate(fam.members) if linalg.frob_norm(p) < 1e-12)
    bad[zero_idx] = np.array([[1.0]], dtype=complex)
    with pytest.raises(InconsistentAssignment):
        algebra.linear_extend(fam, bad, a)


def _lstsq_reference(fam, a):
    """Minimum-norm coordinates by lstsq, on the family's rank cutoff."""
    cols = np.stack([p.reshape(-1) for p in fam.members], axis=1)
    s_max = np.linalg.svd(cols, compute_uv=False)[0]
    coeffs, *_ = np.linalg.lstsq(cols, a.reshape(-1), rcond=TAU_RANK / s_max)
    return coeffs


def _families():
    for h in range(1, 5):
        for n_gens in (1, 2):
            rng = np.random.default_rng(10 * h + n_gens)
            gens = [linalg.random_hermitian(rng, h) for _ in range(n_gens)]
            w = algebra.bicommutant(gens, h)
            yield algebra.sample_projections(w, n=10, seed=h), rng
    fam = all_diagonal_projections(3)
    assert len(fam) == 8 and fam.factors[-1].shape[1] == 5
    yield fam, np.random.default_rng(3)


def test_factored_extension_matches_lstsq_reference():
    for fam, rng in _families():
        w = fam.algebra
        h = w.ambient_dim
        a = sum(
            complex(rng.standard_normal(), rng.standard_normal()) * b
            for b in w.basis
        )
        # P -> X P X* is linear, so it respects every member relation
        x = rng.standard_normal((3, h)) + 1j * rng.standard_normal((3, h))
        assignment = [x @ p @ linalg.adjoint(x) for p in fam.members]
        ref = _lstsq_reference(fam, a)
        coeffs = algebra.decompose_over_family(fam, a)
        assert np.abs(coeffs - ref).max() <= 1e-12
        value = algebra.linear_extend(fam, assignment, a)
        want = sum(c * v for c, v in zip(ref, assignment))
        assert np.abs(value - want).max() <= 1e-12
        assert linalg.frob_norm(value - x @ a @ linalg.adjoint(x)) <= 1e-9


def test_relation_violation_threshold():
    fam = all_diagonal_projections(3)
    values = [p.copy() for p in fam.members]
    scale = 1.0 + max(linalg.frob_norm(v) for v in values)
    relation = fam.factors[-1][:, 0]  # unit norm: sum relation_i P_i = 0
    unit = np.zeros((3, 3), dtype=complex)
    unit[0, 1] = 1.0
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)

    def bumped(size):
        # moves the relation's image by exactly ``size`` and leaves every
        # relation orthogonal to it untouched
        return [v + size * np.conj(c) * unit for v, c in zip(values, relation)]

    algebra.linear_extend(fam, bumped(0.5 * TAU_EXT * scale), a)
    with pytest.raises(InconsistentAssignment):
        algebra.linear_extend(fam, bumped(2.0 * TAU_EXT * scale), a)


def _batched_assignments():
    """(family, assignment) pairs with batch axes: P -> X P X* over a (2, 3)
    grid of X per family of ``_families``, at k = 1 and 3, and the
    (n_members, n_atoms, k, k) compression atoms of B oracles."""
    for fam, rng in _families():
        h = fam.algebra.ambient_dim
        for k in (1, 3):
            x = rng.standard_normal((2, 3, k, h)) + 1j * rng.standard_normal(
                (2, 3, k, h))
            x_star = np.conj(np.swapaxes(x, -1, -2))
            yield fam, np.stack([x @ p @ x_star for p in fam.members])
    for seed in range(12):
        oracle = harness.gen_scenario("B", seed).payload["oracle"]
        fam = algebra.sample_projections(oracle.w1, n=10, seed=seed + 3)
        yield fam, oracle.measure_for(fam.members).atoms


def test_batched_extension_equals_per_assignment_calls():
    # each batch index is contracted at the unbatched shape and layout, so
    # the values are the per-assignment ones bit for bit, and those are the
    # values of the contraction that a list assignment went through before
    # batch axes were taken (kind B's outputs rest on these bits)
    for fam, assignment in _batched_assignments():
        batch, k = assignment.shape[1:-2], assignment.shape[-1]
        w = fam.algebra
        for a in (w.basis, w.basis[-1], fam.members[-1:]):
            got = algebra.linear_extend(fam, assignment, a)
            assert got.shape == (*batch, *np.shape(a)[:-2], k, k)
            coords = algebra.decompose_over_family(fam, a)
            for index in np.ndindex(batch):
                column = list(assignment[(slice(None), *index)])
                want = algebra.linear_extend(fam, column, a)
                assert np.array_equal(got[index], want)
                reference = np.tensordot(coords, np.stack(column), axes=(0, 0))
                assert np.array_equal(want, reference)


def test_relation_violation_is_scaled_per_batch_index():
    fam = all_diagonal_projections(3)
    small = np.stack([p.copy() for p in fam.members])
    large = 1e6 * small  # consistent: P -> 1e6 P is linear
    scale = 1.0 + max(linalg.frob_norm(v) for v in small)
    relation = fam.factors[-1][:, 0]
    unit = np.zeros((3, 3), dtype=complex)
    unit[0, 1] = 1.0
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)
    bump = np.conj(relation)[:, None, None] * unit
    within = np.stack([large, small + 0.5 * TAU_EXT * scale * bump], axis=1)
    algebra.linear_extend(fam, within, a)
    # the large atom's scale must not hide the small atom's violation
    broken = np.stack([large, small + 2.0 * TAU_EXT * scale * bump], axis=1)
    with pytest.raises(InconsistentAssignment):
        algebra.linear_extend(fam, broken, a)
    with pytest.raises(InconsistentAssignment):
        algebra.linear_extend(fam, broken[:, ::-1], a)
    # a NaN entry in one atom's assignment fails the check, not the value
    poisoned = within.copy()
    poisoned[3, 1, 0, 0] = np.nan
    with pytest.raises(InconsistentAssignment):
        algebra.linear_extend(fam, poisoned, a)


def test_assembly_takes_one_svd_per_family(monkeypatch):
    scenario = harness.gen_scenario("B", 0, harness.Caps())
    oracle = scenario.payload["oracle"]
    assert oracle.w1.ambient_dim == 4 and oracle.w1.dim == 16
    sampled = algebra.sample_projections(oracle.w1, n=10, seed=3)
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(algebra.np.linalg, "svd", counting_svd)
    # the sampler's spanning test factored the family it returns
    nnsm.assemble_from_family(
        nnsm.FamilyMeasures(sampled, oracle.measure_for(sampled.members)), oracle.w1)
    assert len(calls) == 0
    # a fresh family: its span test and both assemblies share one SVD
    fam = algebra.ProjectionFamily(algebra=oracle.w1, members=sampled.members)
    fm = nnsm.FamilyMeasures(fam, oracle.measure_for(fam.members))
    assert fam.spans_algebra
    rebuilt = nnsm.assemble_from_family(fm, oracle.w1)
    nnsm.assemble_from_family(fm, oracle.w1)
    assert len(calls) == 1
    assert rebuilt.space == oracle.space
    assert np.abs(rebuilt.images - oracle.images).max() <= 1e-8


def test_limiting_sequence_identity():
    # identity on C^2: spectrum {1}, interval [1,1], S_l hits it exactly
    seq = algebra.limiting_sequence(np.eye(2, dtype=complex))
    ells = np.array([1, 2, 4, 64])
    assert np.all(seq.error(ells) <= 1.0 / ells)


def test_limiting_sequence_diag_hand_values():
    a = np.diag([0.0, 1.0]).astype(complex)
    seq = algebra.limiting_sequence(a, zeta_rule="right")
    # interval [-1, 1]; at mesh 1/2 the cells are (-1,-.5],(-.5,0],(0,.5],(.5,1]
    # with right endpoints: 0 -> 0, 1 -> 1, exact already
    assert seq.error([2]) == pytest.approx([0.0], abs=1e-15)
    assert np.array_equal(seq.term([2]), [[0.0, 1.0]])
    approx = seq.approximants([2])
    assert approx.shape == (1, 2, 2)
    assert np.allclose(approx[0], a)


def test_limiting_sequence_mid_rule():
    a = np.diag([0.25]).astype(complex)
    seq = algebra.limiting_sequence(a, zeta_rule="mid")
    # interval [-0.75, 0.25], width 1: level for l=1 uses mesh <= 1
    # but mesh must be < 1 strictly? enforced: error <= 1/l always
    ells = np.array([1, 2, 4, 8, 16])
    assert np.all(seq.error(ells) <= 1.0 / ells)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 8), ell=st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
def test_limiting_sequence_bound_random(seed, n, ell):
    rng = np.random.default_rng(seed)
    a = linalg.random_hermitian(rng, n)
    seq = algebra.limiting_sequence(a)
    assert seq.error([ell])[0] <= 1.0 / ell + 1e-12
    tags = seq.term([ell])
    values = seq.resolution.values
    assert tags.shape == (1, len(values))
    # the right rule tags each eigenvalue with the right edge of its cell,
    # at most one mesh above it (up to round-off at the edges); cells are
    # ordered, so tags do not decrease
    mesh = seq.mesh([ell])[0]
    assert np.all(tags[0] - values >= -1e-12)
    assert np.all(tags[0] - values <= mesh + 1e-12)
    assert np.all(np.diff(tags[0]) >= 0.0)


def test_joint_diagonalize_single():
    a = np.diag([1.0, 1.0, 2.0]).astype(complex)
    atlas = algebra.joint_diagonalize([a])
    assert atlas.values.shape == (2, 1)
    assert atlas.projections.shape == (2, 3, 3)
    assert atlas.values[:, 0].real == pytest.approx([1.0, 2.0])
    assert np.allclose(atlas.reconstruct()[0], a)


def test_joint_diagonalize_pair_splits_degeneracy():
    a = np.diag([1.0, 1.0, 2.0]).astype(complex)
    b = np.diag([0.0, 3.0, 3.0]).astype(complex)
    atlas = algebra.joint_diagonalize([a, b])
    assert atlas.values.shape == (3, 2)
    # the points are sorted by their value rows
    assert np.allclose(atlas.values, [[1.0, 0.0], [1.0, 3.0], [2.0, 3.0]])


def test_joint_diagonalize_normal_complex_values():
    a = np.diag([1.0 + 1.0j, 2.0]).astype(complex)
    atlas = algebra.joint_diagonalize([a])
    assert atlas.values[:, 0] == pytest.approx([1.0 + 1.0j, 2.0])


def test_joint_diagonalize_twice_gives_equal_atlases():
    # kind A reuses the first atlas when its uniqueness order is the identity
    for seed in range(100):
        images = harness.gen_scenario("A", seed).payload["images"]
        gens = [images[n] for n in sorted(images)]
        first, second = (algebra.joint_diagonalize(gens) for _ in range(2))
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.projections, second.projections)


def test_joint_diagonalize_rejects_an_empty_generator_list():
    with pytest.raises(ShapeMismatch):
        algebra.joint_diagonalize([])


def test_joint_diagonalize_rejects_noncommuting():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(NotCommuting):
        algebra.joint_diagonalize([x, z])


def test_joint_diagonalize_rejects_nonnormal():
    with pytest.raises(NotNormal):
        algebra.joint_diagonalize([np.array([[0, 1], [0, 0]], dtype=complex)])


def _value_keys(atlas):
    return [tuple((round(z.real), round(z.imag)) for z in row)
            for row in atlas.values]


def test_joint_diagonalize_lists_integer_points_in_value_order():
    # kind A seed 24 has points (-1+1j) and (-1+2j), whose real parts are
    # equal up to round-off; they come out in value order
    images = harness.gen_scenario("A", 24).payload["images"]
    keys = _value_keys(algebra.joint_diagonalize(
        [images[n] for n in sorted(images)]))
    assert len(keys) >= 2 and keys == sorted(keys)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 4),
       n_gen=st.integers(1, 3))
def test_joint_diagonalize_order_survives_round_off(seed, n, n_gen):
    # integer joint values with many ties in the real part, and a commuting
    # perturbation of about 1e-13 in the generators' own eigenbasis
    rng = np.random.default_rng(seed)
    u = linalg.random_unitary(rng, n)
    re, im = rng.integers(-1, 2, (2, n_gen, n))
    values = re + 1j * im
    eps = 1e-13 * (rng.standard_normal((n_gen, n))
                   + 1j * rng.standard_normal((n_gen, n)))
    keys = [_value_keys(algebra.joint_diagonalize(
        [u @ np.diag(v) @ linalg.adjoint(u) for v in vals]))
        for vals in (values, values + eps)]
    assert keys[0] == keys[1] == sorted(keys[0])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 6))
def test_joint_diagonalize_random_commuting(seed, n):
    # coordinate i carries the joint values of point owner[i], so points
    # repeat; each point's projection has its multiplicity as rank
    rng = np.random.default_rng(seed)
    u = linalg.random_unitary(rng, n)
    owner = rng.integers(0, max(1, n - 1), size=n)
    values = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    mats = [u @ np.diag(v[owner]) @ linalg.adjoint(u) for v in values]
    atlas = algebra.joint_diagonalize(mats)
    points = np.unique(owner)
    assert atlas.values.shape == (len(points), 2)
    for row, proj in zip(atlas.values, atlas.projections):
        j = points[np.argmin(np.abs(values[:, points].T - row).max(axis=1))]
        assert round(np.trace(proj).real) == np.count_nonzero(owner == j)
    gap = DELTA_CLUSTER * (1.0 + max(linalg.op_norm(m) for m in mats))
    apart = np.abs(atlas.values[:, None] - atlas.values[None]).max(axis=2)
    assert np.all(apart[~np.eye(len(points), dtype=bool)] >= gap)
    assert linalg.resolution_residual(atlas.projections) <= 1e-8
    assert np.allclose(atlas.projections.sum(axis=0), np.eye(n), atol=1e-8)
    for i, m in enumerate(mats):
        # the stack form against the per-point sum of value times projection
        per_point = sum(v * p for v, p in zip(atlas.values[:, i], atlas.projections))
        assert np.allclose(atlas.reconstruct()[i], per_point, atol=1e-12)
        assert linalg.frob_norm(atlas.reconstruct()[i] - m) <= 1e-8 * (1 + linalg.frob_norm(m))
    # one resolution type: its own check holds on a table of joint values
    assert atlas.validate(source=np.stack(mats)) <= 1e-8


def _assert_is_the_generated_algebra(w, mats, dim):
    """w has the oracle's dimension and projector, an orthonormal basis, and
    its span holds I and is closed under products and adjoints."""
    ref = _reference_bicommutant(mats, dim)
    assert w.ambient_dim == dim and w.basis.shape == (ref.dim, dim, dim)
    assert w.basis.dtype == np.complex128
    proj = w.basis_matrix.T @ w.basis_matrix.conj()
    ref_proj = ref.basis_matrix.T @ ref.basis_matrix.conj()
    assert np.abs(proj - ref_proj).max() <= 1e-8
    gram = w.basis_matrix.conj() @ w.basis_matrix.T
    assert np.abs(gram - np.eye(w.dim)).max() <= 1e-10
    closure = np.concatenate([
        np.conj(np.swapaxes(w.basis, 1, 2)),
        (w.basis[:, None] @ w.basis[None]).reshape(-1, dim, dim),
        np.eye(dim)[None],
    ])
    w.coefficients(closure)  # raises NotInSpan off the span


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 5))
def test_commutant_dimension_identity(seed, n):
    # for a hermitian generator with simple spectrum the bicommutant is the
    # diagonal algebra in its eigenbasis: dim = n, commutant dim = n
    rng = np.random.default_rng(seed)
    a = linalg.random_hermitian(rng, n)
    w = algebra.bicommutant([a], n)
    # generic random hermitian has simple spectrum
    assert w.dim == n
    assert len(_reference_commutant(w.basis, n)) == n
    _assert_is_the_generated_algebra(w, [a], n)


def _kind_a_generators():
    """The generator lists of the first kind-A scenario of each shape
    (ambient dim, generator count, point count) at the default caps."""
    seen = {}
    for seed in range(400):
        scenario = harness.gen_scenario("A", seed)
        images = scenario.payload["images"]
        gens = [images[name] for name in sorted(images)]
        shape = (gens[0].shape[0], len(gens), len(scenario.space.labels))
        seen.setdefault(shape, gens)
    assert set(seen) == {(d, g, p) for d in range(1, 5) for g in range(1, 4)
                         for p in range(1, d + 1)}
    return list(seen.values())


def test_bicommutant_matches_the_two_commutant_route():
    rng = np.random.default_rng(23)
    cases = [(gens, gens[0].shape[0]) for gens in _kind_a_generators()]
    # kinds B and D: one hermitian generator (a maximal abelian algebra) or
    # two (the full matrix algebra)
    for h in range(1, 5):
        cases.append(([linalg.random_hermitian(rng, h)], h))
        if h > 1:
            cases.append(([linalg.random_hermitian(rng, h) for _ in range(2)], h))
    e12 = np.zeros((3, 3), dtype=complex)
    e12[0, 1] = 1.0
    x = linalg.random_hermitian(rng, 3)
    for d in range(2, 7):
        # a repeated eigenvalue: {U diag(a, ..., a, b) U*}, dimension 2
        u = linalg.random_unitary(rng, d)
        diag = np.diag([1.0] * (d - 1) + [2.0])
        cases.append(([u @ diag @ linalg.adjoint(u)], d))
    cases += [
        ([np.eye(d, dtype=complex)], d) for d in range(1, 5)
    ] + [
        ([np.zeros((3, 3))], 3),
        ([np.zeros((3, 3)), x], 3),
        ([e12], 3),  # non-hermitian: M_2 + C
        ([np.kron(np.eye(2), x)], 6),
        ([np.kron(np.eye(2), x), np.kron(np.eye(2), linalg.random_hermitian(rng, 3))], 6),
        ([], 3),
    ]
    for mats, dim in cases:
        _assert_is_the_generated_algebra(algebra.bicommutant(mats, dim), mats, dim)
    assert algebra.bicommutant([e12], 3).dim == 5
    assert algebra.bicommutant([], 3).dim == 1


def test_decompose_over_family_rejects_non_finite_stack():
    fam = all_diagonal_projections(3)
    inside = np.diag([1.0, 2.0, 3.0]).astype(complex)
    algebra.decompose_over_family(fam, np.stack([inside, inside]))
    with pytest.raises(NotInSpan):
        algebra.decompose_over_family(
            fam, np.stack([inside, np.full((3, 3), np.nan)])
        )
    with pytest.raises(NotInSpan), np.errstate(invalid="ignore"):
        algebra.decompose_over_family(fam, np.full((1, 3, 3), np.inf))


def test_not_in_span_messages_read_a_nan_residual():
    # the NaN residual is not the first one, which Python's max would drop
    fam = all_diagonal_projections(3)
    inside = np.diag([1.0, 2.0, 3.0]).astype(complex)
    stack = np.stack([inside, np.full((3, 3), np.nan)])
    with pytest.raises(NotInSpan, match="decomposition residual nan"):
        algebra.decompose_over_family(fam, stack)
    with pytest.raises(NotInSpan, match="membership residual nan"):
        fam.algebra.coefficients(stack)

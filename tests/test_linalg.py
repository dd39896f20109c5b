import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmeas import algebra, linalg
from specmeas.errors import NonHermitianInput, ShapeMismatch


def test_eig_diagonal_merges_degenerate():
    dec = linalg.eig_hermitian(np.diag([2.0, 2.0, 5.0]).astype(complex))
    assert dec.values == pytest.approx([2.0, 5.0])
    assert np.trace(dec.projections[0]).real == pytest.approx(2.0)
    assert np.trace(dec.projections[1]).real == pytest.approx(1.0)


def test_eig_identity():
    dec = linalg.eig_hermitian(np.eye(3, dtype=complex))
    assert len(dec.values) == len(dec.projections) == 1
    assert np.allclose(dec.projections[0], np.eye(3))


def test_eig_pauli_x():
    # hand eigensolve of [[0,1],[1,0]]: eigenvalues -1, 1 with P± = (1/2)[[1,±1],[±1,1]]
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    dec = linalg.eig_hermitian(a)
    assert dec.values == pytest.approx([-1.0, 1.0])
    p_minus = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
    p_plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    assert np.allclose(dec.projections[0], p_minus)
    assert np.allclose(dec.projections[1], p_plus)


def test_eig_rejects_nonhermitian():
    with pytest.raises(NonHermitianInput):
        linalg.eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_star_decompose_real_diagonal():
    rp, rm, ip, im = linalg.star_decompose(np.diag([3.0, -1.0]).astype(complex))
    assert np.allclose(rp, np.diag([3.0, 0.0]))
    assert np.allclose(rm, np.diag([0.0, 1.0]))
    assert linalg.frob_norm(ip) < 1e-12 and linalg.frob_norm(im) < 1e-12


def test_star_decompose_imaginary():
    rp, rm, ip, im = linalg.star_decompose(1j * np.eye(2))
    assert linalg.frob_norm(rp) < 1e-12 and linalg.frob_norm(rm) < 1e-12
    assert np.allclose(ip, np.eye(2))
    assert linalg.frob_norm(im) < 1e-12


def test_star_decompose_projection_product():
    p = np.diag([1.0, 0.0]).astype(complex)
    q = 0.5 * np.ones((2, 2), dtype=complex)
    pq = p @ q
    rp, rm, ip, im = linalg.star_decompose(pq)
    recombined = rp - rm + 1j * ip - 1j * im
    assert np.allclose(recombined, pq, atol=1e-12)


def test_norms():
    assert linalg.op_norm(np.diag([1.0, -3.0])) == pytest.approx(3.0)
    # singular values of the nilpotent [[0,2],[0,0]] are (2, 0)
    assert linalg.op_norm(np.array([[0, 2], [0, 0]], dtype=complex)) == pytest.approx(2.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
def test_star_decompose_recombines(seed, n):
    rng = np.random.default_rng(seed)
    a = linalg.random_complex(rng, n, n)
    rp, rm, ip, im = linalg.star_decompose(a)
    scale = 1.0 + linalg.frob_norm(a)
    assert linalg.frob_norm(rp - rm + 1j * ip - 1j * im - a) <= 1e-8 * scale
    # orthogonality of the positive/negative pair
    assert linalg.frob_norm(rp @ rm) <= 1e-8 * scale**2
    assert linalg.frob_norm(ip @ im) <= 1e-8 * scale**2
    for part in (rp, rm, ip, im):
        assert np.linalg.eigvalsh(part)[0] >= -1e-9 * scale


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
def test_eig_reconstructs_and_resolves(seed, n):
    rng = np.random.default_rng(seed)
    a = linalg.random_hermitian(rng, n)
    dec = linalg.eig_hermitian(a)
    assert dec.validate(source=a) <= 1e-8


def test_validate_trips_on_a_non_orthogonal_pair():
    dec = linalg.eig_hermitian(np.diag([1.0, 2.0, 3.0]).astype(complex))
    assert dec.validate() <= 1e-12
    # P_1 becomes the projection onto (e_0 + e_1)/sqrt(2): still a hermitian
    # idempotent, but ||P_1 P_0|| = 1/sqrt(2)
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    tilted = dec.projections.copy()
    tilted[1] = np.outer(v, v)
    assert linalg.resolution_residual(tilted) == pytest.approx(np.sqrt(0.5))
    bad = linalg.SpectralDecomposition(dec.values, tilted)
    assert bad.validate() >= np.sqrt(0.5)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_tolerances_are_scale_aware(seed):
    rng = np.random.default_rng(seed)
    a = linalg.random_hermitian(rng, 4)
    for s in (1.0, 1e6):
        dec = linalg.eig_hermitian(s * a)
        assert dec.validate(source=s * a) <= 1e-8


def test_stacked_norms_equal_per_matrix_calls():
    rng = np.random.default_rng(5)
    stack = (rng.standard_normal((3, 4, 5, 5))
             + 1j * rng.standard_normal((3, 4, 5, 5)))
    frob, op = linalg.frob_norm(stack), linalg.op_norm(stack)
    assert frob.shape == op.shape == (3, 4)
    for idx in np.ndindex(3, 4):
        want = linalg.frob_norm(stack[idx])
        assert abs(frob[idx] - want) <= 1e-15 * want
        # one LAPACK call per matrix either way: bit for bit
        assert op[idx] == linalg.op_norm(stack[idx])
    assert isinstance(linalg.frob_norm(stack[0, 0]), float)
    assert isinstance(linalg.op_norm(stack[0, 0]), float)


def test_stacked_resolution_residual_equals_per_stack_calls():
    rng = np.random.default_rng(6)
    dec = linalg.eig_hermitian(linalg.random_hermitian(rng, 4))
    projs = dec.projections
    tilted = projs.copy()
    tilted[-1] = 1.01 * tilted[-1]
    overlapping = projs.copy()
    overlapping[0] = overlapping[0] + overlapping[1]
    stacks = np.stack([projs, tilted, overlapping])
    got = linalg.resolution_residual(stacks)
    assert got.shape == (3,)
    for value, stack in zip(got, stacks):
        want = linalg.resolution_residual(stack)
        assert abs(value - want) <= 1e-15 * (1.0 + want)
    assert got[0] <= 1e-12 < got[1] < got[2]
    # an empty resolution in every stack gives 0 each
    assert np.array_equal(
        linalg.resolution_residual(np.zeros((2, 0, 3, 3), dtype=complex)),
        np.zeros(2))


def _hermitian_stacks():
    """Stacks for the stacked eig_hermitian route: 1x1 matrices, 3x3
    matrices with a repeated eigenvalue (a two-vector cluster, and a
    multiple of the identity) beside generic ones, and sampler elements of
    the full matrix algebra on C^4."""
    rng = np.random.default_rng(11)
    yield rng.standard_normal((3, 1, 1)).astype(complex)
    u = linalg.random_unitary(rng, 3)
    repeated = u @ np.diag([1.0, 1.0, 2.0]) @ linalg.adjoint(u)
    yield np.stack([repeated, linalg.random_hermitian(rng, 3),
                    2.0 * np.eye(3, dtype=complex), repeated])
    w = algebra.bicommutant([linalg.random_hermitian(rng, 4) for _ in range(2)], 4)
    yield w.hermitian_elements(rng.standard_normal((5, 2, w.dim)))


def test_stacked_eig_hermitian_equals_per_matrix_calls():
    clustered = 0
    for stack in _hermitian_stacks():
        got = linalg.eig_hermitian(stack)
        assert isinstance(got, list) and len(got) == len(stack)
        for dec, a in zip(got, stack):
            want = linalg.eig_hermitian(a)
            assert dec.values.tobytes() == want.values.tobytes()
            assert dec.projections.tobytes() == want.projections.tobytes()
            assert dec.validate(source=a) <= 1e-8
            clustered += len(dec.values) < len(a)
    assert clustered == 3


def test_stacked_require_hermitian_checks_every_member():
    rng = np.random.default_rng(12)
    stack = np.stack([linalg.random_hermitian(rng, 3) for _ in range(4)])
    got = linalg.require_hermitian(stack)
    for member, a in zip(got, stack):
        assert member.tobytes() == linalg.require_hermitian(a).tobytes()
    bad = stack.copy()
    bad[2, 0, 1] += 1e-3
    with pytest.raises(NonHermitianInput):
        linalg.require_hermitian(bad)
    bad = stack.copy()
    bad[1, 2, 2] = np.nan
    with pytest.raises(ShapeMismatch):
        linalg.require_hermitian(bad)
    with pytest.raises(ShapeMismatch):
        linalg.require_hermitian(np.zeros((2, 3, 4), dtype=complex))


def test_projection_residual_is_the_worse_of_the_two_norms():
    rng = np.random.default_rng(13)
    dec = linalg.eig_hermitian(linalg.random_hermitian(rng, 4))
    p = dec.projections[0] + dec.projections[1]
    stack = np.stack([p, 1.01 * p, p + 1e-3 * linalg.random_complex(rng, 4, 4),
                      np.zeros((4, 4), dtype=complex)])
    got = linalg.projection_residual(stack)
    assert got.shape == (4,)
    for value, q in zip(got, stack):
        want = max(linalg.frob_norm(q @ q - q),
                   linalg.frob_norm(q - linalg.adjoint(q)))
        assert abs(value - want) <= 1e-15 * (1.0 + want)
        assert abs(linalg.projection_residual(q) - want) <= 1e-15 * (1.0 + want)
    assert got[0] <= 1e-12 and got[3] == 0.0 and got[1] > 1e-3 and got[2] > 1e-4

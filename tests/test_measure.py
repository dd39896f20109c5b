import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmeas import algebra, linalg, measure, nnsm
from specmeas.errors import ShapeMismatch

from conftest import point_mask


def two_point_measure():
    space = measure.DiscreteSpace(labels=("a", "b"))
    e = measure.SpectralMeasure(
        space,
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
    )
    return space, e


def test_set_algebra_finite():
    space = measure.DiscreteSpace(labels=(0, 1, 2))
    d1 = point_mask(space, {0, 1})
    d2 = point_mask(space, {1, 2})
    assert np.array_equal(d1 & d2, point_mask(space, {1}))


def test_space_mismatch_rejected():
    # a set of another space is a mask of another length
    s2 = measure.DiscreteSpace(labels=(0, 1, 2))
    _, e = two_point_measure()
    with pytest.raises(ShapeMismatch):
        measure.evaluate(e, point_mask(s2, {0}))


def test_evaluate_additive():
    space, e = two_point_measure()
    da = point_mask(space, {"a"})
    db = point_mask(space, {"b"})
    assert np.allclose(measure.evaluate(e, da) + measure.evaluate(e, db),
                       measure.evaluate(e, point_mask(space, {"a", "b"})))
    assert np.allclose(measure.evaluate(e, point_mask(space, space.points())),
                       np.eye(2))
    assert e.validate() <= 1e-12


def test_validate_flags_overlapping_atoms():
    space = measure.DiscreteSpace(labels=("a", "b"))
    p = np.diag([1.0, 0.0]).astype(complex)
    bad = measure.SpectralMeasure(space, [p, p],
                                  total=np.eye(2, dtype=complex))
    assert bad.validate() > 1e-6


def test_constructor_rejects_a_stack_that_is_not_one_atom_per_point():
    # SpectralMeasure, batched or not, and NonNegSpectralMeasure share one
    # rule; each builder puts the per-point k x k matrices into its own stack
    # shape, here over a one-dimensional W1 and a batch of one measure
    space = measure.DiscreteSpace(labels=("a", "b"))
    p = np.diag([1.0, 0.0]).astype(complex)
    w1 = algebra.VonNeumannAlgebra(ambient_dim=1, basis=np.eye(1, dtype=complex)[None])
    builders = (
        lambda atoms: measure.SpectralMeasure(space, atoms),
        lambda atoms: nnsm.NonNegSpectralMeasure(space, w1, np.asarray(atoms)[:, None]),
        lambda atoms: measure.SpectralMeasure(space, np.asarray(atoms)[None]),
    )
    for build in builders:
        # one atom too few or too many, and matrices that are not square
        for atoms in ([p], [p, p, p], np.zeros((2, 2, 3))):
            with pytest.raises(ShapeMismatch, match="expected a stack of shape"):
                build(atoms)
        with pytest.raises(ShapeMismatch, match="non-finite"):
            build([p, np.full((2, 2), np.nan)])
        # the i-th matrix is the i-th point's, stored as complex128
        built = build([np.eye(2) - p, p])
        stack = getattr(built, "atoms", getattr(built, "images", None))
        assert stack.dtype == np.complex128
        assert np.array_equal(stack.reshape(2, 2, 2), [np.eye(2) - p, p])
    # a countable space's length is its horizon, with no list of points
    assert len(measure.DiscreteSpace(horizon=10**12)) == 10**12
    assert len(space) == 2 and len(measure.DiscreteSpace(labels=())) == 0


def _validate_reference(e):
    """SpectralMeasure.validate as a per-atom loop over every atom pair."""
    worst = 0.0
    for i, p in enumerate(e.atoms):
        worst = max(worst, linalg.frob_norm(p @ p - p),
                    linalg.frob_norm(p - linalg.adjoint(p)))
        for q in e.atoms[:i]:
            worst = max(worst, linalg.frob_norm(p @ q))
    worst = max(worst, linalg.frob_norm(e.total @ e.total - e.total))
    gap = e.total - sum(e.atoms)
    if e.space.is_finite:
        return max(worst, linalg.frob_norm(gap))
    herm = (gap + linalg.adjoint(gap)) / 2.0
    return max(worst, -float(np.linalg.eigvalsh(herm)[0]))


def test_batched_validate_matches_per_pair_reference_and_can_fail():
    rng = np.random.default_rng(31)
    u = linalg.random_unitary(rng, 6)
    cols = [u[:, [0, 1]], u[:, [2]], u[:, [3, 4]], u[:, [5]]]
    projs = [c @ linalg.adjoint(c) for c in cols]
    space = measure.DiscreteSpace(labels=("w", "x", "y", "z"))
    good = np.array(projs)
    # atom "y" overlaps atom "w"; atom "x" is no longer idempotent
    overlap = good.copy()
    overlap[2] = projs[2] + projs[0]
    scaled = good.copy()
    scaled[1] = 1.05 * projs[1]
    only_x = np.zeros_like(good)
    only_x[1] = good[1]
    countable = measure.DiscreteSpace(horizon=4)
    cases = [
        (measure.SpectralMeasure(space, good), False),
        (measure.SpectralMeasure(space, overlap,
                                 total=np.eye(6, dtype=complex)), True),
        (measure.SpectralMeasure(space, scaled,
                                 total=np.eye(6, dtype=complex)), True),
        (measure.SpectralMeasure(countable, good,
                                 total=np.eye(6, dtype=complex)), False),
        (measure.SpectralMeasure(space, only_x), False),
    ]
    for e, faulty in cases:
        got = e.validate()
        assert abs(got - _validate_reference(e)) <= 1e-12
        assert (got > 1e-3) == faulty
    # the planted atom's idempotence residual is the worst one
    assert cases[2][0].validate() == pytest.approx(
        linalg.frob_norm(scaled[1] @ scaled[1] - scaled[1]), rel=1e-12)
    # two rank-2 atoms tilted by theta in two planes: on a countable space
    # the pair residual sqrt(2) cos(theta) is the worst one, ahead of the
    # total's deficit cos(theta)
    c, s = np.cos(0.3), np.sin(0.3)
    v = np.eye(4)[:, [0, 2]]
    w = np.array([[c, 0.0], [s, 0.0], [0.0, c], [0.0, s]])
    tilted = measure.SpectralMeasure(
        measure.DiscreteSpace(horizon=2), [v @ v.T + 0j, w @ w.T + 0j],
        total=np.eye(4, dtype=complex))
    assert abs(tilted.validate() - _validate_reference(tilted)) <= 1e-12
    assert tilted.validate() == pytest.approx(np.sqrt(2.0) * c, rel=1e-12)


def test_countable_total_dominates():
    space = measure.DiscreteSpace(horizon=4)
    atoms = [np.diag([1.0 if i == n else 0.0 for i in range(8)]).astype(complex)
             for n in range(4)]
    e = measure.SpectralMeasure(space, atoms,
                                total=np.eye(8, dtype=complex))
    assert e.validate() <= 1e-12


def test_explicit_total_follows_the_format_rule():
    space = measure.DiscreteSpace(labels=(0, 1))
    atoms = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    nan_total = np.eye(2, dtype=complex)
    nan_total[0, 0] = np.nan
    with pytest.raises(ShapeMismatch, match="non-finite"):
        measure.SpectralMeasure(space, atoms, total=nan_total)
    with pytest.raises(ShapeMismatch, match="shape"):
        measure.SpectralMeasure(space, atoms,
                                total=np.eye(3, dtype=complex))
    e = measure.SpectralMeasure(space, atoms, total=np.eye(2))
    assert e.total.dtype == np.complex128 and e.validate() == 0.0


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), npts=st.integers(1, 6))
def test_random_measure_additivity_and_multiplicativity(seed, npts):
    rng = np.random.default_rng(seed)
    n = npts + int(rng.integers(0, 3))
    u = linalg.random_unitary(rng, n)
    # split coordinates into npts random groups
    groups = [[] for _ in range(npts)]
    for i in range(n):
        groups[int(rng.integers(0, npts))].append(i)
    space = measure.DiscreteSpace(labels=tuple(range(npts)))
    atoms = []
    for grp in groups:
        d = np.zeros(n)
        d[grp] = 1.0
        atoms.append(u @ np.diag(d).astype(complex) @ linalg.adjoint(u))
    e = measure.SpectralMeasure(space, atoms)
    assert e.validate() <= 1e-10
    d1 = point_mask(space, set(int(x) for x in rng.integers(0, npts, 2)))
    d2 = point_mask(space, set(int(x) for x in rng.integers(0, npts, 2)))
    e1, e2 = measure.evaluate(e, d1), measure.evaluate(e, d2)
    e12 = measure.evaluate(e, d1 & d2)
    assert linalg.frob_norm(e1 @ e2 - e12) <= 1e-9
    assert linalg.frob_norm(e1 - linalg.adjoint(e1)) <= 1e-12

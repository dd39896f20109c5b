import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmeas import algebra, linalg, measure, nnsm
from specmeas.errors import ShapeMismatch, SpaceMismatch


def two_point_measure():
    space = measure.DiscreteSpace(labels=("a", "b"))
    e = measure.SpectralMeasure(
        space, ("a", "b"),
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
    )
    return space, e


def test_set_algebra_finite():
    space = measure.DiscreteSpace(labels=(0, 1, 2))
    d1 = measure.borel(space, {0, 1})
    d2 = measure.borel(space, {1, 2})
    assert d1.intersect(d2).members == frozenset({1})


def test_set_algebra_cofinite():
    space = measure.DiscreteSpace(horizon=10)
    fin = measure.borel(space, {0, 1})
    cof = measure.BorelSet(space, frozenset({1, 2}), cofinite=True)
    # fin ∩ cof drops the excluded points from fin
    inter = fin.intersect(cof)
    assert not inter.cofinite and inter.members == frozenset({0})
    both = cof.intersect(measure.BorelSet(space, frozenset({3}), cofinite=True))
    assert both.cofinite and both.members == frozenset({1, 2, 3})
    assert 5 in cof and 1 not in cof


def test_space_mismatch_rejected():
    s1 = measure.DiscreteSpace(labels=(0, 1))
    s2 = measure.DiscreteSpace(labels=(0, 1, 2))
    with pytest.raises(SpaceMismatch):
        measure.borel(s1, {0}).intersect(measure.borel(s2, {0}))


def test_evaluate_additive():
    space, e = two_point_measure()
    da = measure.borel(space, {"a"})
    db = measure.borel(space, {"b"})
    assert np.allclose(measure.evaluate(e, da) + measure.evaluate(e, db),
                       measure.evaluate(e, measure.borel(space, {"a", "b"})))
    assert np.allclose(measure.evaluate(e, measure.whole_space(space)), np.eye(2))
    assert e.validate() <= 1e-12


def test_validate_flags_overlapping_atoms():
    space = measure.DiscreteSpace(labels=("a", "b"))
    p = np.diag([1.0, 0.0]).astype(complex)
    bad = measure.SpectralMeasure(space, ("a", "b"), [p, p],
                                  total=np.eye(2, dtype=complex))
    assert bad.validate() > 1e-6


def test_constructor_rejects_repeated_labels_and_a_stack_of_another_length():
    # SpectralMeasure, batched or not, and NonNegSpectralMeasure share one
    # rule; each builder puts the per-label k x k matrices into its own stack
    # shape, here over a one-dimensional W1 and a batch of one measure
    space = measure.DiscreteSpace(labels=("a", "b"))
    p = np.diag([1.0, 0.0]).astype(complex)
    w1 = algebra.VonNeumannAlgebra(ambient_dim=1, basis=np.eye(1, dtype=complex)[None])
    builders = (
        lambda labels, atoms: measure.SpectralMeasure(space, labels, atoms),
        lambda labels, atoms: nnsm.NonNegSpectralMeasure(
            space, w1, labels, np.asarray(atoms)[:, None]),
        lambda labels, atoms: measure.SpectralMeasure(
            space, labels, np.asarray(atoms)[None]),
    )
    for build in builders:
        with pytest.raises(SpaceMismatch, match="distinct"):
            build(("a", "a"), [p, np.eye(2) - p])
        with pytest.raises(SpaceMismatch, match="'c' not in the space"):
            build(("a", "c"), [p, np.eye(2) - p])
        for labels, atoms in ((("a", "b"), [p]), (("a",), [p, p]),
                              (("a", "b"), np.zeros((2, 2, 3)))):
            with pytest.raises(ShapeMismatch):
                build(labels, atoms)
        with pytest.raises(ShapeMismatch, match="non-finite"):
            build(("a",), [np.full((2, 2), np.nan)])
        assert build(("b", "a"), [np.eye(2) - p, p]).labels == ("b", "a")


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
    labels = space.labels
    good = np.array(projs)
    # atom "y" overlaps atom "w"; atom "x" is no longer idempotent
    overlap = good.copy()
    overlap[2] = projs[2] + projs[0]
    scaled = good.copy()
    scaled[1] = 1.05 * projs[1]
    countable = measure.DiscreteSpace(horizon=10)
    cases = [
        (measure.SpectralMeasure(space, labels, good), False),
        (measure.SpectralMeasure(space, labels, overlap,
                                 total=np.eye(6, dtype=complex)), True),
        (measure.SpectralMeasure(space, labels, scaled,
                                 total=np.eye(6, dtype=complex)), True),
        (measure.SpectralMeasure(countable, range(4), good,
                                 total=np.eye(6, dtype=complex)), False),
        (measure.SpectralMeasure(space, ("x",), good[[1]]), False),
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
        countable, (0, 1), [v @ v.T + 0j, w @ w.T + 0j],
        total=np.eye(4, dtype=complex))
    assert abs(tilted.validate() - _validate_reference(tilted)) <= 1e-12
    assert tilted.validate() == pytest.approx(np.sqrt(2.0) * c, rel=1e-12)


def test_countable_total_dominates():
    space = measure.DiscreteSpace(horizon=8)
    atoms = [np.diag([1.0 if i == n else 0.0 for i in range(8)]).astype(complex)
             for n in range(4)]
    e = measure.SpectralMeasure(space, range(4), atoms,
                                total=np.eye(8, dtype=complex))
    assert e.validate() <= 1e-12


def test_explicit_total_follows_the_format_rule():
    space = measure.DiscreteSpace(labels=(0, 1))
    atoms = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    nan_total = np.eye(2, dtype=complex)
    nan_total[0, 0] = np.nan
    with pytest.raises(ShapeMismatch, match="non-finite"):
        measure.SpectralMeasure(space, (0, 1), atoms, total=nan_total)
    with pytest.raises(ShapeMismatch, match="shape"):
        measure.SpectralMeasure(space, (0, 1), atoms,
                                total=np.eye(3, dtype=complex))
    e = measure.SpectralMeasure(space, (0, 1), atoms, total=np.eye(2))
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
    e = measure.SpectralMeasure(space, space.labels, atoms)
    assert e.validate() <= 1e-10
    d1 = measure.borel(space, set(int(x) for x in rng.integers(0, npts, 2)))
    d2 = measure.borel(space, set(int(x) for x in rng.integers(0, npts, 2)))
    e1, e2 = measure.evaluate(e, d1), measure.evaluate(e, d2)
    e12 = measure.evaluate(e, d1.intersect(d2))
    assert linalg.frob_norm(e1 @ e2 - e12) <= 1e-9
    assert linalg.frob_norm(e1 - linalg.adjoint(e1)) <= 1e-12

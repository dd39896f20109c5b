"""Discrete Borel spaces and projection-valued spectral measures.

Spaces are finite label sets or a countable index set with an explicit
truncation horizon.  Every measure is purely atomic; compact sets are exactly
the finite subsets.  A spectral measure stores its atoms as one projection
stack with a label index, so E(Delta) is a masked sum over the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, SpaceMismatch
from .linalg import frob_norm, resolution_residual


@dataclass(frozen=True)
class DiscreteSpace:
    """Finite or countable discrete space.

    Finite spaces carry explicit labels.  Countable spaces are indexed by the
    non-negative integers and iterate up to ``horizon``, an int >= 0 (not a
    bool); all limits handled by callers are monotone in the horizon.
    """

    labels: tuple | None = None
    horizon: int | None = None

    def __post_init__(self):
        if (self.labels is None) == (self.horizon is None):
            raise ValueError("exactly one of labels / horizon must be given")
        if self.labels is not None and len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")
        if self.horizon is not None and (type(self.horizon) is not int
                                         or self.horizon < 0):
            raise ValueError(f"horizon must be a non-negative int, got {self.horizon!r}")

    @property
    def is_finite(self) -> bool:
        return self.labels is not None

    def points(self):
        if self.is_finite:
            return list(self.labels)
        return list(range(self.horizon))

    def __contains__(self, label) -> bool:
        if self.is_finite:
            return label in self.labels
        return isinstance(label, (int, np.integer)) and label >= 0


@dataclass(frozen=True)
class BorelSet:
    """Finite subset, or cofinite complement of one (countable spaces)."""

    space: DiscreteSpace
    members: frozenset
    cofinite: bool = False

    def __post_init__(self):
        for x in self.members:
            if x not in self.space:
                raise SpaceMismatch(f"label {x!r} not in the space")
        if self.cofinite and self.space.is_finite:
            raise SpaceMismatch("cofinite sets only exist over countable spaces")

    def __contains__(self, label) -> bool:
        inside = label in self.members
        return (not inside) if self.cofinite else inside

    def intersect(self, other: "BorelSet") -> "BorelSet":
        _same_space(self, other)
        if not self.cofinite and not other.cofinite:
            return BorelSet(self.space, self.members & other.members)
        if self.cofinite and other.cofinite:
            return BorelSet(self.space, self.members | other.members, cofinite=True)
        fin, cof = (self, other) if not self.cofinite else (other, self)
        return BorelSet(self.space, fin.members - cof.members)


def _same_space(a: BorelSet, b: BorelSet) -> None:
    if a.space != b.space:
        raise SpaceMismatch("Borel sets over different spaces")


def borel(space: DiscreteSpace, members) -> BorelSet:
    return BorelSet(space, frozenset(members))


def whole_space(space: DiscreteSpace) -> BorelSet:
    if space.is_finite:
        return BorelSet(space, frozenset(space.labels))
    return BorelSet(space, frozenset(), cofinite=True)


def labelled_stack(space: DiscreteSpace, labels, stack, frame: tuple):
    """The one rule for a measure's format: distinct labels in ``space``
    beside a finite stack of k x k matrices whose leading axes have shape
    ``frame``.  Returns the labels as a tuple and the stack as complex128; a
    repeated label or one outside the space raises SpaceMismatch, a stack of
    another shape or with non-finite entries ShapeMismatch."""
    labels = tuple(labels)
    for x in labels:
        if x not in space:
            raise SpaceMismatch(f"atom label {x!r} not in the space")
    if len(set(labels)) != len(labels):
        raise SpaceMismatch("atom labels must be distinct")
    stack = np.asarray(stack, dtype=np.complex128)
    if (stack.shape[:-2] != tuple(frame) or stack.ndim != len(frame) + 2
            or stack.shape[-1] != stack.shape[-2] or stack.shape[-1] < 1):
        raise ShapeMismatch(f"expected a stack of shape {tuple(frame)} + (k, k), "
                            f"got {stack.shape}")
    if not np.all(np.isfinite(stack)):
        raise ShapeMismatch("stack has non-finite entries")
    return labels, stack


def stack_total(atoms: np.ndarray, total=None) -> np.ndarray:
    """E(X) beside an atom stack whose atoms run along axis -3: by default
    the sum of the atoms.  An explicit ``total`` follows the stack's format
    rule: the stack's shape without that axis and finite entries, or
    ShapeMismatch."""
    if total is None:
        return atoms.sum(axis=-3)
    total = np.asarray(total, dtype=np.complex128)
    want = atoms.shape[:-3] + atoms.shape[-2:]
    if total.shape != want:
        raise ShapeMismatch(f"expected a total of shape {want}, got {total.shape}")
    if not np.all(np.isfinite(total)):
        raise ShapeMismatch("total has non-finite entries")
    return total


@dataclass(frozen=True)
class SpectralMeasure:
    """Projection-valued measure on a discrete space.

    ``atoms[i]`` is E({labels[i]}): the atoms are one (n_atoms, k, k) stack
    indexed by distinct labels, and a point without a label has the zero
    atom.  ``total`` is E(X), stored explicitly and by default the sum of the
    atoms: compressions E_P of a non-negative spectral measure have totals
    that vary with P (E_0 = 0), so E(X) is not forced to be the identity.
    """

    space: DiscreteSpace
    labels: tuple
    atoms: np.ndarray
    total: np.ndarray = None

    def __post_init__(self):
        labels, atoms = labelled_stack(
            self.space, self.labels, self.atoms, (len(self.labels),))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "total", stack_total(atoms, self.total))

    def validate(self) -> float:
        """Worst invariant residual: projections, orthogonality, total."""
        return float(measure_residual(self.space, self.atoms, self.total))


def measure_residual(space: DiscreteSpace, atoms: np.ndarray, total: np.ndarray):
    """Worst invariant residual of the measure with atoms ``atoms`` (on axis
    -3) and total ``total``: the atoms' resolution residual, the total's
    idempotence, and the gap between the total and the atoms' sum (a
    countable space's partial sums need only be dominated by the total).
    Leading axes batch measures, with one residual per leading index."""
    worst = np.maximum(resolution_residual(atoms),
                       frob_norm(total @ total - total))
    gap = total - atoms.sum(axis=-3)
    if space.is_finite:
        return np.maximum(worst, frob_norm(gap))
    herm = (gap + np.conj(np.swapaxes(gap, -1, -2))) / 2.0
    return np.maximum(worst, -np.linalg.eigvalsh(herm)[..., 0])


def evaluate(e: SpectralMeasure, delta: BorelSet) -> np.ndarray:
    """E(Delta) = sum of atoms in Delta (cofinite: total minus complement)."""
    if delta.space != e.space:
        raise SpaceMismatch("set over a different space")
    return evaluate_atoms(e.labels, e.atoms, e.total, delta)


def evaluate_atoms(labels, atoms, total, delta: BorelSet) -> np.ndarray:
    """E(Delta) from atoms stacked on axis -3 with one label each, and E(X).

    The atoms whose labels lie in Delta are summed in one masked sum; for a
    cofinite Delta the atoms of its complement are subtracted from ``total``.
    Leading axes of ``atoms`` and ``total`` batch measures that share labels.
    """
    mask = np.array([x in delta.members for x in labels], dtype=bool)
    inside = atoms[..., mask, :, :].sum(axis=-3)
    return total - inside if delta.cofinite else inside

"""Discrete Borel spaces and projection-valued spectral measures.

Spaces are finite label sets or a countable index set with an explicit
truncation horizon.  Every measure is purely atomic; compact sets are exactly
the finite subsets.  A set is its indicator: a boolean mask indexed like
``space.points()`` (``require_mask``), the form of a compact K of a block
model and of an operator field's value row, with leading axes for a stack of
sets.  A spectral measure stores its atoms as one projection stack with a
label index, with optional leading axes that batch measures over shared
labels; ``atoms_in`` reads which atoms lie in a set, and ``evaluate`` is the
one route to E(Delta), a masked sum over the stack.
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


def require_mask(mask, shape: tuple) -> np.ndarray:
    """A set of a discrete space, broadcast to ``shape``: a boolean ndarray
    whose last axis is indexed like the space's points (the blocks below a
    model's horizon, for a compact K) and which broadcasts to the leading
    axes of ``shape``, or ShapeMismatch is raised.  A set is never coerced:
    a truthy list, frozenset or bool would hold every point."""
    if (isinstance(mask, np.ndarray) and mask.dtype == np.bool_
            and mask.shape[-1:] == shape[-1:]):
        if mask.shape == shape:
            return mask
        try:
            return np.broadcast_to(mask, shape)
        except ValueError:
            pass
    raise ShapeMismatch(f"a set is a boolean mask that broadcasts to {shape}, "
                        f"got {type(mask).__name__} {getattr(mask, 'shape', '')}")


def atoms_in(space: DiscreteSpace, labels, delta, lead: tuple = ()) -> np.ndarray:
    """Which stored atoms lie in Delta: for a set of shape ``lead +
    (n_points,)`` (``require_mask``), the ``lead + (n_atoms,)`` mask that
    reads each atom's label off Delta's point axis.  A label that is not
    among the points, an atom past a countable space's horizon, lies in no
    set: it reads the False column padded onto Delta.  Labels that are the
    points in order read Delta itself, with no copy or gather."""
    points = space.points()
    delta = require_mask(delta, lead + (len(points),))
    if tuple(labels) == tuple(points):
        return delta
    columns = [points.index(x) if x in points else len(points) for x in labels]
    outside = np.zeros(lead + (1,), dtype=bool)
    return np.concatenate([delta, outside], axis=-1)[..., columns]


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


@dataclass(frozen=True)
class SpectralMeasure:
    """Projection-valued measure on a discrete space, or a stack of them.

    ``atoms[..., i, :, :]`` is E({labels[i]}): the atoms are one
    (..., n_atoms, k, k) stack indexed by distinct labels, and a point
    without a label has the zero atom.  Leading axes batch measures that
    share the labels, such as the compressions E_P of one NNSM along a
    projection family.  ``total`` is E(X), of shape (..., k, k), stored
    explicitly and by default the sum of the atoms: compressions have
    totals that vary with P (E_0 = 0), so E(X) is not forced to be the
    identity.  An explicit total of another shape or with non-finite
    entries raises ShapeMismatch.
    """

    space: DiscreteSpace
    labels: tuple
    atoms: np.ndarray
    total: np.ndarray = None

    def __post_init__(self):
        batch = np.shape(self.atoms)[:-3]
        labels, atoms = labelled_stack(
            self.space, self.labels, self.atoms, batch + (len(self.labels),))
        if self.total is None:
            total = atoms.sum(axis=-3)
        else:
            total = np.asarray(self.total, dtype=np.complex128)
            want = batch + atoms.shape[-2:]
            if total.shape != want:
                raise ShapeMismatch(
                    f"expected a total of shape {want}, got {total.shape}")
            if not np.all(np.isfinite(total)):
                raise ShapeMismatch("total has non-finite entries")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "total", total)

    def validate(self):
        """Worst invariant residual: the atoms' resolution residual, the
        total's idempotence, and the gap between the total and the atoms'
        sum (a countable space's partial sums need only be dominated by the
        total).  A float, or one residual per leading index of a batch."""
        worst = np.maximum(resolution_residual(self.atoms),
                           frob_norm(self.total @ self.total - self.total))
        gap = self.total - self.atoms.sum(axis=-3)
        if self.space.is_finite:
            worst = np.maximum(worst, frob_norm(gap))
        else:
            herm = (gap + np.conj(np.swapaxes(gap, -1, -2))) / 2.0
            worst = np.maximum(worst, -np.linalg.eigvalsh(herm)[..., 0])
        return float(worst) if np.ndim(worst) == 0 else worst


def evaluate(e: SpectralMeasure, delta: np.ndarray) -> np.ndarray:
    """E(Delta) as a (..., k, k) array, one matrix per leading index of e,
    for a (n_points,) set Delta: the atoms that lie in Delta (``atoms_in``)
    are summed in one masked sum."""
    inside = atoms_in(e.space, e.labels, delta)
    return e.atoms[..., inside, :, :].sum(axis=-3)

"""Discrete Borel spaces and projection-valued spectral measures.

Spaces are finite label sets or a countable index set with an explicit
truncation horizon.  Every measure is purely atomic; compact sets are exactly
the finite subsets.  A set is its indicator: a boolean mask indexed like
``space.points()`` (``require_mask``), the form of a compact K of a block
model and of an operator field's value row, with leading axes for a stack of
sets.  A spectral measure stores its atoms indexed the same way, one
projection per point (zero where the measure has no atom), with optional
leading axes that batch measures on one space; ``evaluate`` is the one
route to E(Delta), the stack's atoms summed under Delta's mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .linalg import adjoint, frob_norm, resolution_residual


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

    def __len__(self) -> int:
        """The number of points, without listing them."""
        return len(self.labels) if self.is_finite else self.horizon

    def points(self):
        if self.is_finite:
            return list(self.labels)
        return list(range(self.horizon))


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


def matrix_stack(stack, frame: tuple) -> np.ndarray:
    """The one rule for a measure's format: a finite stack of k x k
    matrices whose leading axes have shape ``frame``, as complex128; a stack
    of another shape or with non-finite entries raises ShapeMismatch."""
    stack = np.asarray(stack, dtype=np.complex128)
    if (stack.shape[:-2] != tuple(frame) or stack.ndim != len(frame) + 2
            or stack.shape[-1] != stack.shape[-2] or stack.shape[-1] < 1):
        raise ShapeMismatch(f"expected a stack of shape {tuple(frame)} + (k, k), "
                            f"got {stack.shape}")
    if not np.all(np.isfinite(stack)):
        raise ShapeMismatch("stack has non-finite entries")
    return stack


@dataclass(frozen=True)
class SpectralMeasure:
    """Projection-valued measure on a discrete space, or a stack of them.

    ``atoms[..., i, :, :]`` is E({x}) for the i-th point x of
    ``space.points()``: the atoms are one (..., n_points, k, k) stack, with
    the zero atom at a point that carries no mass.  Leading axes batch
    measures on one space, such as the compressions E_P of one NNSM along a
    projection family.  ``total`` is E(X), of shape (..., k, k), stored
    explicitly and by default the sum of the atoms: compressions have
    totals that vary with P (E_0 = 0), so E(X) is not forced to be the
    identity.  An explicit total of another shape or with non-finite
    entries raises ShapeMismatch.
    """

    space: DiscreteSpace
    atoms: np.ndarray
    total: np.ndarray = None

    def __post_init__(self):
        batch = np.shape(self.atoms)[:-3]
        atoms = matrix_stack(self.atoms, batch + (len(self.space),))
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
            herm = (gap + adjoint(gap)) / 2.0
            worst = np.maximum(worst, -np.linalg.eigvalsh(herm)[..., 0])
        return float(worst) if np.ndim(worst) == 0 else worst


def evaluate(e: SpectralMeasure, delta: np.ndarray) -> np.ndarray:
    """E(Delta) as a (..., k, k) array, one matrix per leading index of e,
    for a (n_points,) set Delta: the atoms under Delta's mask, summed."""
    inside = require_mask(delta, (len(e.space),))
    return e.atoms[..., inside, :, :].sum(axis=-3)

"""Discrete Borel spaces and projection-valued spectral measures.

Spaces are finite label sets or a countable index set with an explicit
truncation horizon.  Every measure is purely atomic; compact sets are exactly
the finite subsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SpaceMismatch
from .linalg import adjoint, frob_norm, require_square
from .tolerances import TAU_PROJ


@dataclass(frozen=True)
class DiscreteSpace:
    """Finite or countable discrete space.

    Finite spaces carry explicit labels.  Countable spaces are indexed by the
    non-negative integers and iterate up to ``horizon``; all limits handled
    by callers are monotone in the horizon.
    """

    labels: tuple | None = None
    horizon: int | None = None

    def __post_init__(self):
        if (self.labels is None) == (self.horizon is None):
            raise ValueError("exactly one of labels / horizon must be given")
        if self.labels is not None and len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")

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


@dataclass(frozen=True)
class SpectralMeasure:
    """Projection-valued measure on a discrete space.

    ``total`` is E(X), stored explicitly: compressions E_P of a non-negative
    spectral measure have totals that vary with P (E_0 = 0), so E(X) is not
    forced to be the identity.
    """

    space: DiscreteSpace
    atoms: dict = field(default_factory=dict)  # label -> projection ndarray
    total: np.ndarray = None

    def __post_init__(self):
        for x, p in self.atoms.items():
            if x not in self.space:
                raise SpaceMismatch(f"atom label {x!r} not in the space")
            require_square(p)
        if self.total is None:
            object.__setattr__(self, "total", self._atom_sum())

    @property
    def dim(self) -> int:
        return self.total.shape[0]

    def _atom_sum(self) -> np.ndarray:
        if not self.atoms:
            raise ValueError("measure needs at least one atom or an explicit total")
        d = next(iter(self.atoms.values())).shape[0]
        out = np.zeros((d, d), dtype=np.complex128)
        for p in self.atoms.values():
            out += p
        return out

    def atom(self, label) -> np.ndarray:
        p = self.atoms.get(label)
        if p is None:
            return np.zeros((self.dim, self.dim), dtype=np.complex128)
        return p

    def validate(self) -> float:
        """Worst invariant residual: projections, orthogonality, total.

        The idempotence, hermiticity and pairwise-orthogonality residual
        matrices of the atoms are stacked, and their norms taken in one call.
        """
        n = len(self.atoms)
        stack = np.array(
            [self.atoms[x] for x in sorted(self.atoms, key=repr)],
            dtype=np.complex128,
        ).reshape(n, self.dim, self.dim)
        # every pair (later, earlier) of atoms in label order
        later, earlier = np.nonzero(np.tri(n, k=-1, dtype=bool))
        residuals = np.concatenate([
            stack @ stack - stack,
            stack - np.conj(np.swapaxes(stack, 1, 2)),
            stack[later] @ stack[earlier],
        ])
        worst = float(np.linalg.norm(residuals, axis=(1, 2)).max(initial=0.0))
        worst = max(worst, frob_norm(self.total @ self.total - self.total))
        if self.space.is_finite:
            worst = max(worst, frob_norm(self._atom_sum() - self.total))
        else:
            # partial sums monotone and dominated by the total
            gap = self.total - self._atom_sum()
            worst = max(worst, max(0.0, -float(np.linalg.eigvalsh(
                (gap + adjoint(gap)) / 2.0)[0])))
        return worst


def evaluate(e: SpectralMeasure, delta: BorelSet) -> np.ndarray:
    """E(Delta) = sum of atoms in Delta (cofinite: total minus complement)."""
    if delta.space != e.space:
        raise SpaceMismatch("set over a different space")
    if delta.cofinite:
        out = e.total.copy()
        for x in delta.members:
            out -= e.atom(x)
        return out
    out = np.zeros((e.dim, e.dim), dtype=np.complex128)
    for x in delta.members:
        out += e.atom(x)
    return out


def support(e: SpectralMeasure, tol: float = TAU_PROJ) -> BorelSet:
    labels = [x for x, p in e.atoms.items() if frob_norm(p) > tol]
    return BorelSet(e.space, frozenset(labels))

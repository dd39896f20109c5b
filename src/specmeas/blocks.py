"""Blockwise-countable model of the unbounded theory.

The Hilbert space is a countable direct sum of finite blocks; finitely
supported vectors form the dense domain.  Algebra generators act diagonally:
the image of b (x) A on block n is f_b(n) * A, where f_b is the generator's
scalar value function.  Every scalar function is passed as its value row,
f(n) for each block n below the horizon; the generators are evaluated into
such rows once per model (``BlockModel.generator_rows``).  Closures are
never materialized; every operator is evaluated on finitely supported
vectors, where all sums are finite and exact.
A preintegral psi(f, A) is summed exactly over the spectral decompositions of
the positive parts of Re A and Im A (``linalg.positive_negative_parts``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import VonNeumannAlgebra
from .errors import DimMismatch, ShapeMismatch
from .linalg import adjoint, positive_negative_parts, require_square
from .measure import BorelSet, DiscreteSpace
from .nnsm import OperatorField
from .tolerances import TAU_RECON


@dataclass(frozen=True)
class BlockModel:
    """Countable block-diagonal carrier for unbounded representations.

    ``generators`` maps a generator name to a callable n -> complex, read
    once into ``generator_rows``.  When ``w`` is present all blocks share
    its ambient dimension and b (x) A acts blockwise as f_b(n) * A; when it
    is None the model is scalar and block dimensions may vary.
    """

    space: DiscreteSpace
    block_dims: tuple
    generators: dict  # name -> callable int -> complex
    w: VonNeumannAlgebra | None = None

    def __post_init__(self):
        if self.space.is_finite:
            raise ShapeMismatch("block models live over countable spaces")
        if len(self.block_dims) != self.space.horizon:
            raise ShapeMismatch("one block dimension per point up to the horizon")
        if any(d < 1 for d in self.block_dims):
            raise ShapeMismatch("block dimensions must be >= 1")
        if self.w is not None:
            if any(d != self.w.ambient_dim for d in self.block_dims):
                raise ShapeMismatch(
                    "with a nontrivial algebra all blocks share its dimension"
                )

    @property
    def horizon(self) -> int:
        return self.space.horizon

    def block_dim(self, n: int) -> int:
        return self.block_dims[n]

    @cached_property
    def generator_rows(self) -> dict:
        """Generator name -> its value row, f_b(n) for n below the horizon:
        the one place where the generators are evaluated."""
        return {
            b: np.array([complex(f(n)) for n in range(self.horizon)],
                        dtype=np.complex128)
            for b, f in self.generators.items()
        }


@dataclass(frozen=True)
class DomainVector:
    """Finitely supported vector: per supported block, a dense component."""

    components: dict  # block index -> ndarray

    def __post_init__(self):
        clean = {}
        for n, v in self.components.items():
            v = np.asarray(v, dtype=np.complex128).reshape(-1)
            if v.any():  # only exactly-zero blocks drop; NaN blocks stay
                clean[n] = v
        object.__setattr__(self, "components", clean)

    @property
    def support(self) -> frozenset:
        return frozenset(self.components)

    def norm(self) -> float:
        return float(
            np.sqrt(sum(np.vdot(v, v).real for v in self.components.values()))
        )

    def scale(self, lam: complex) -> "DomainVector":
        return DomainVector({n: lam * v for n, v in self.components.items()})

    def add(self, other: "DomainVector") -> "DomainVector":
        return vector_sum((self, other))

    def sub(self, other: "DomainVector") -> "DomainVector":
        return self.add(other.scale(-1.0))

    def inner(self, other: "DomainVector") -> complex:
        """<self, other> summed over common blocks."""
        total = 0.0 + 0.0j
        for n, v in self.components.items():
            u = other.components.get(n)
            if u is not None:
                total += np.vdot(u, v)  # conjugates u
        return complex(total)


def vector_sum(vectors) -> DomainVector:
    """Sum of domain vectors, built as one DomainVector."""
    out = {}
    for x in vectors:
        for n, v in x.components.items():
            if n not in out:
                out[n] = v
            elif out[n].shape != v.shape:
                raise DimMismatch(f"block {n} dims differ")
            else:
                out[n] = out[n] + v
    return DomainVector(out)


def _values_at(values, support, horizon: int) -> np.ndarray:
    """A value row's entries at the blocks of ``support``, in its order.  The
    row must hold a value for every block below ``horizon``, where the
    support must lie; otherwise ShapeMismatch."""
    row = np.asarray(values, dtype=np.complex128)
    if row.ndim != 1 or len(row) < horizon:
        raise ShapeMismatch(f"a value row needs one value per block below "
                            f"the horizon ({horizon})")
    if len(support) and not 0 <= min(support) <= max(support) < horizon:
        raise ShapeMismatch("vector supported outside the value row")
    return row[support]


def spectral_integral_apply(values, x: DomainVector) -> DomainVector:
    """Apply the spectral integral of f, given by its value row, to a
    finitely supported vector.

    The blockwise resolution E({n}) is the identity on block n, so block n
    of the result is f(n) x_n.  Finitely supported vectors are always in the
    domain; in this model they are exactly D0, with the support as the
    compact witness.
    """
    fv = _values_at(values, list(x.components), len(values))
    return DomainVector(
        {n: complex(c) * v for (n, v), c in zip(x.components.items(), fv)}
    )


def truncate_to_horizon(coeffs, horizon: int) -> tuple[DomainVector, float]:
    """D0 density witness: truncate target block coefficients at a horizon.

    ``coeffs`` maps block index -> component array for an (infinitely
    supported) target; returns the member and the discarded tail mass.
    """
    kept = {n: v for n, v in coeffs.items() if n < horizon}
    tail = sum(
        float(np.vdot(np.asarray(v), np.asarray(v)).real)
        for n, v in coeffs.items() if n >= horizon
    )
    return DomainVector(kept), float(np.sqrt(tail))


def rho_apply(model: BlockModel, values, a, x: DomainVector) -> DomainVector:
    """rho(b (x) A) x: block n of the result is f(n) * A x_n (exact), with f
    given by its value row ``values``; a matrix A meets the stacked support
    components in one contraction."""
    support = list(x.components)
    fv = _values_at(values, support, model.horizon)
    if not isinstance(a, np.ndarray):
        return DomainVector({n: complex(c) * a * v
                             for (n, v), c in zip(x.components.items(), fv)})
    if not support:
        return DomainVector({})
    xs = np.stack([x.components[n] for n in support])
    return DomainVector(dict(zip(support, fv[:, None] * (xs @ a.T))))


def psi_apply(values, a, model: BlockModel, x: DomainVector) -> DomainVector:
    """Preintegral psi(f, A) x on a finitely supported vector.

    A is split into four positive parts; each positive part has a finite
    spectral decomposition sum λ_k P_k and psi(f, B) x is the exact sum
    of λ_k f(n) P_k x_n.  The parts, with their signs, sum to one
    operator, which ``rho_apply`` applies; the value equals the direct
    blockwise action.
    """
    if isinstance(a, np.ndarray):
        a = require_square(a)
        zero = np.zeros(a.shape, dtype=np.complex128)
        a = sum((sign * b for sign, b in _positive_parts(a)), zero)
    return rho_apply(model, values, a, x)


def _positive_parts(a: np.ndarray) -> list:
    """The nonzero positive parts of A as (sign, B): A = sum sign * B.

    Re A and Im A are each split once, when nonzero, into their positive
    and negative parts.
    """
    parts = []
    for h, unit in (((a + adjoint(a)) / 2.0, 1.0),
                    ((a - adjoint(a)) / 2.0j, 1.0j)):
        if not h.any():
            continue
        for part, sign in zip(positive_negative_parts(h), (unit, -unit)):
            if part.any():
                parts.append((sign, part))
    return parts


def i_m_apply(field_: OperatorField, model: BlockModel,
              x: DomainVector) -> DomainVector:
    """Integral of a field applied on D0: termwise preintegral sum.

    The closure agrees with the preintegral on finitely supported vectors,
    so this is the closure's action there.
    """
    return vector_sum(psi_apply(v, a, model, x) for v, a in field_.terms)


def truncation_projection(model: BlockModel, k: BorelSet,
                          x: DomainVector) -> DomainVector:
    """M(K)(id) x: keep blocks inside K."""
    return DomainVector(
        {n: v for n, v in x.components.items() if n in k}
    )


@dataclass(frozen=True)
class DAlphaReport:
    certified: bool
    probe_residuals: tuple  # of (probe name, max(0, ||rho(b)x|| - alpha_K(b)||x||))
    status: str  # "certified" | "sampled-pass" | "fail"
    flags: tuple = ()


def d_alpha_check(
    x: DomainVector,
    model: BlockModel,
    k: BorelSet,
    probes: int = 20,
    seed: int = 0,
) -> DAlphaReport:
    """Membership test for the compactly-dominated vectors D_{alpha_K}.

    SUFFICIENT: support(x) inside K certifies membership exactly, since
    blockwise ||rho(b) x||^2 = sum |f_b(n)|^2 ||x_n||^2 is dominated by
    sup_{n in K} |f_b(n)|^2 ||x||^2.  NECESSARY (sampled): the inequality is
    probed on random *-polynomials in the generators.
    """
    rng = np.random.default_rng(seed)
    support = sorted(x.support)
    if support and not 0 <= support[0] <= support[-1] < model.horizon:
        raise ShapeMismatch("vector supported outside the model's blocks")
    certified = all(n in k for n in support)  # the zero vector is a member
    names = sorted(model.generators)
    norm_x = x.norm()
    mass = np.array([np.vdot(x.components[n], x.components[n]).real
                     for n in support])
    k_points = [n for n in range(model.horizon) if n in k]
    residuals = []
    for t in range(probes):
        poly = _random_star_polynomial(rng, names, degree=2)
        vals = _poly_values(model, poly)
        y_norm = np.sqrt(np.sum(np.abs(vals[support]) ** 2 * mass))
        alpha = np.max(np.abs(vals[k_points]), initial=0.0)
        excess = y_norm - alpha * norm_x
        residuals.append((f"probe{t}", max(0.0, float(excess))))
    tol = TAU_RECON * (1.0 + norm_x)
    sampled_pass = all(r <= tol for _, r in residuals)
    if certified and sampled_pass:
        status = "certified"
    elif sampled_pass:
        status = "sampled-pass"
    else:
        status = "fail"
    return DAlphaReport(
        certified=certified,
        probe_residuals=tuple(residuals),
        status=status,
        flags=("sampled-necessity",),
    )


def _random_star_polynomial(rng: np.random.Generator, names, degree: int):
    """Random *-polynomial: list of (coeff, ((name, conj?) ...)) monomials."""
    monomials = []
    for _ in range(int(rng.integers(1, 4))):
        deg = int(rng.integers(0, degree + 1))
        factors = tuple(
            (names[int(rng.integers(len(names)))], bool(rng.integers(2)))
            for _ in range(deg)
        ) if names else ()
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        monomials.append((coeff, factors))
    return monomials


def _poly_values(model: BlockModel, monomials) -> np.ndarray:
    """A *-polynomial's value row, over the model's generator rows."""
    total = np.zeros(model.horizon, dtype=np.complex128)
    for coeff, factors in monomials:
        term = np.full(model.horizon, coeff, dtype=np.complex128)
        for name, conj in factors:
            v = model.generator_rows[name]
            term = term * (np.conj(v) if conj else v)
        total = total + term
    return total


def _block_actions(field_: OperatorField, horizon: int) -> np.ndarray:
    """The (horizon, d, d) stack of matrices by which the field acts on
    blocks 0..horizon-1.  d is the size of the matrix coefficients, or 1
    for a field with only scalar ones: such a field acts on block n as
    c_n times the identity, stacked as the 1x1 block c_n."""
    dim = next((a.shape[0] for _, a in field_.terms
                if isinstance(a, np.ndarray)), 1)
    out = np.zeros((horizon, dim, dim), dtype=np.complex128)
    eye = np.eye(dim)
    for v, a in field_.terms:
        coeff = a if isinstance(a, np.ndarray) else a * eye
        out += _values_at(v, range(horizon), horizon)[:, None, None] * coeff
    return out


@dataclass(frozen=True)
class IntegrabilityReport:
    worst_block: int
    worst_residual: float
    passed: bool


def integrability_check(
    model: BlockModel, field_: OperatorField
) -> IntegrabilityReport:
    """Blockwise normality of the field's action (integrability proxy).

    Every value row of the field must cover the model's horizon, or
    ShapeMismatch is raised.  The commutator norms of every block action
    are taken in one batch.  A non-finite residual fails and names the worst
    block: argmax returns the first NaN, or else the first largest residual.
    """
    if model.horizon < 1:
        return IntegrabilityReport(worst_block=0, worst_residual=0.0, passed=True)
    b = _block_actions(field_, model.horizon)
    b_star = np.conj(np.swapaxes(b, 1, 2))
    resid = np.linalg.norm(b @ b_star - b_star @ b, axis=(1, 2)) / (
        1.0 + np.linalg.norm(b, axis=(1, 2)) ** 2
    )
    worst = int(np.argmax(resid))
    return IntegrabilityReport(
        worst_block=worst,
        worst_residual=float(resid[worst]),
        passed=bool(np.all(resid <= TAU_RECON)),
    )

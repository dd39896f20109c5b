"""Blockwise-countable model of the unbounded theory.

The Hilbert space is a countable direct sum of finite blocks, all of the
model's ``block_dim``, the ambient dimension of its coefficient algebra W;
finitely supported vectors form the dense domain.  A scalar model is the
model over W = C*1, whose blocks are one-dimensional.
Operators act below the model's horizon, so a domain vector is one
(horizon, block_dim) array whose row n is its component on block n.
Algebra generators act diagonally:
the image of b (x) A on block n is f_b(n) * A, where f_b is the generator's
scalar value function and A a (block_dim, block_dim) matrix.  Every scalar
function is passed as its value row,
f(n) for each block n below the horizon; the generators are evaluated into
such rows once per model (``BlockModel.generator_rows``).  Closures are
never materialized; every operator is evaluated on finitely supported
vectors, where all sums are finite and exact.
A preintegral psi(f, A) is read off the field's block actions f(n) * A,
never through ``rho_apply``, so the two sides of a representation check
take separate routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import VonNeumannAlgebra
from .errors import DimMismatch, ShapeMismatch
from .measure import BorelSet, DiscreteSpace
from .nnsm import OperatorField
from .tolerances import TAU_RECON


def scalars() -> VonNeumannAlgebra:
    """The one-dimensional algebra C*1, the coefficients of a scalar model."""
    return VonNeumannAlgebra(ambient_dim=1, basis=np.eye(1, dtype=np.complex128)[None])


@dataclass(frozen=True)
class BlockModel:
    """Countable block-diagonal carrier for unbounded representations.

    ``generators`` maps a generator name to a callable n -> complex, read
    once into ``generator_rows``.  Every block has dimension ``block_dim``:
    the ambient dimension of ``w``, on which b (x) A acts blockwise as
    f_b(n) * A.  By default ``w`` is the one-dimensional algebra C*1 and
    the model is scalar.
    """

    space: DiscreteSpace
    generators: dict  # name -> callable int -> complex
    w: VonNeumannAlgebra = field(default_factory=scalars)

    def __post_init__(self):
        if self.space.is_finite:
            raise ShapeMismatch("block models live over countable spaces")

    @property
    def horizon(self) -> int:
        return self.space.horizon

    @property
    def block_dim(self) -> int:
        return self.w.ambient_dim

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
    """Finitely supported vector below a model's horizon: a (horizon,
    block_dim) complex array whose row n is the component on block n."""

    block: np.ndarray

    def __post_init__(self):
        block = np.asarray(self.block, dtype=np.complex128)
        if block.ndim != 2:
            raise ShapeMismatch("a domain vector is a (blocks, dim) array")
        object.__setattr__(self, "block", block)

    @property
    def support(self) -> frozenset:
        """Blocks with a nonzero entry; a NaN entry counts as nonzero."""
        return frozenset(np.flatnonzero(self.block.any(axis=1)).tolist())

    def norm(self) -> float:
        return float(np.sqrt(np.vdot(self.block, self.block).real))

    def scale(self, lam: complex) -> "DomainVector":
        return DomainVector(lam * self.block)

    def add(self, other: "DomainVector") -> "DomainVector":
        return vector_sum((self, other))

    def sub(self, other: "DomainVector") -> "DomainVector":
        return self.add(other.scale(-1.0))

    def inner(self, other: "DomainVector") -> complex:
        """<self, other>, conjugate-linear in ``other``."""
        return complex(np.vdot(other.block, self.block))


def vector_sum(vectors) -> DomainVector:
    """Sum of domain vectors of one shape, added in the given order."""
    parts = [x.block for x in vectors]
    if len({b.shape for b in parts}) != 1:
        raise DimMismatch("a sum needs domain vectors of one shape")
    return DomainVector(sum(parts[1:], parts[0]))


def _values_at(values, horizon: int) -> np.ndarray:
    """A value row's entries at blocks 0..horizon-1; the row must hold a
    value for every block below ``horizon``, otherwise ShapeMismatch."""
    row = np.asarray(values, dtype=np.complex128)
    if row.ndim != 1 or len(row) < horizon:
        raise ShapeMismatch(f"a value row needs one value per block below "
                            f"the horizon ({horizon})")
    return row[:horizon]


def _require_rows(x: DomainVector, horizon: int) -> None:
    if len(x.block) != horizon:
        raise ShapeMismatch(f"a domain vector needs one row per block below "
                            f"the horizon ({horizon}), got {len(x.block)}")


def spectral_integral_apply(values, x: DomainVector) -> DomainVector:
    """Apply the spectral integral of f, given by its value row, to a
    finitely supported vector with one row per value.

    The blockwise resolution E({n}) is the identity on block n, so block n
    of the result is f(n) x_n.  Finitely supported vectors are always in the
    domain; in this model they are exactly D0, with the support as the
    compact witness.
    """
    _require_rows(x, len(values))
    return DomainVector(_values_at(values, len(values))[:, None] * x.block)


def rho_apply(model: BlockModel, values, a, x: DomainVector) -> DomainVector:
    """rho(b (x) A) x: block n of the result is f(n) * A x_n (exact), with f
    given by its value row ``values``; one broadcast over every block.  A
    must be a (block_dim, block_dim) matrix, or ShapeMismatch is raised."""
    _require_rows(x, model.horizon)
    _require_coefficient(model, a)
    fv = _values_at(values, model.horizon)[:, None]
    return DomainVector(fv * (x.block @ a.T))


def psi_apply(values, a, model: BlockModel, x: DomainVector) -> DomainVector:
    """Preintegral psi(f, A) x on a finitely supported vector, read off the
    block actions of the field f (x) A: block n of the result is
    (f(n) * A) x_n, one contraction over every block.  The value row and A
    are checked as in ``rho_apply``, which this route never calls."""
    _require_rows(x, model.horizon)
    acts = _block_actions(OperatorField(terms=((values, a),)), model)
    return DomainVector(np.einsum("nij,nj->ni", acts, x.block))


def i_m_apply(field_: OperatorField, model: BlockModel,
              x: DomainVector) -> DomainVector:
    """Integral of a field applied on D0: termwise preintegral sum.

    The closure agrees with the preintegral on finitely supported vectors,
    so this is the closure's action there.
    """
    return vector_sum(psi_apply(v, a, model, x) for v, a in field_.terms)


def truncation_projection(k: BorelSet, x: DomainVector) -> DomainVector:
    """M(K)(id) x: keep blocks inside K."""
    inside = np.array([n in k for n in range(len(x.block))], dtype=bool)
    return DomainVector(np.where(inside[:, None], x.block, 0.0))


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
    _require_rows(x, model.horizon)
    rng = np.random.default_rng(seed)
    support = sorted(x.support)
    certified = all(n in k for n in support)  # the zero vector is a member
    names = sorted(model.generators)
    norm_x = x.norm()
    mass = np.einsum("nd,nd->n", np.conj(x.block), x.block).real[support]
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


def _require_coefficient(model: BlockModel, a) -> None:
    """A coefficient is a matrix acting on one block: a (block_dim,
    block_dim) ndarray, also on a scalar model."""
    d = model.block_dim
    shape = getattr(a, "shape", None)
    if shape != (d, d):
        raise ShapeMismatch(f"a coefficient acts on one block as a ({d}, {d}) "
                            f"matrix; got {type(a).__name__} of shape {shape}")


def _block_actions(field_: OperatorField, model: BlockModel) -> np.ndarray:
    """The (horizon, block_dim, block_dim) stack of matrices f(n) * A,
    summed over the terms, by which the field acts on the model's blocks.
    A coefficient of another shape raises ShapeMismatch."""
    d = model.block_dim
    out = np.zeros((model.horizon, d, d), dtype=np.complex128)
    for v, a in field_.terms:
        _require_coefficient(model, a)
        out += _values_at(v, model.horizon)[:, None, None] * a
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

    Every value row of the field must cover the model's horizon, and every
    coefficient act on one block, or ShapeMismatch is raised.  The
    commutator norms of every block action are taken in one batch.  A
    non-finite residual fails and names the worst block: argmax returns the
    first NaN, or else the first largest residual.
    """
    if model.horizon < 1:
        return IntegrabilityReport(worst_block=0, worst_residual=0.0, passed=True)
    b = _block_actions(field_, model)
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

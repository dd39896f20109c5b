"""Blockwise-countable model of the unbounded theory.

The Hilbert space is a countable direct sum of finite blocks, all of the
model's ``block_dim``, the ambient dimension of its coefficient algebra W;
finitely supported vectors form the dense domain.  W is a matrix algebra
M_d (``matrix_algebra``); a scalar model's is M_1 = C*1, on 1x1 blocks.
Operators act below the model's horizon, so a domain vector is one
(horizon, block_dim) array whose row n is its component on block n.
Algebra generators act diagonally:
the image of b (x) A on block n is f_b(n) * A, where f_b is the generator's
scalar value function and A a (block_dim, block_dim) matrix.  Every scalar
function is passed as its value row, exactly one value f(n) per block
n below the horizon (``nnsm.value_rows``; a longer row raises, as a
shorter one does); each generator is evaluated once
per model, on np.arange(horizon) (``BlockModel.generator_rows``).  Closures are
never materialized; every operator is evaluated on finitely supported
vectors, where all sums are finite and exact.
A preintegral psi(f, A) is read off the field's block actions f(n) * A,
never through ``rho_apply``, so the two sides of a representation check
take separate routes.
A *-polynomial is (codes, coeffs): one coefficient per monomial, and its
factors as rows of the table [f_0, conj f_0, f_1, conj f_1, ..., 1]
(``factor_table``; ``BlockModel.factor_rows`` for the generators), evaluated
by ``star_values`` and drawn, one stack per check family, by
``random_star_polynomials``.
The checks work per family.  A stack of vectors is one (..., horizon,
block_dim) array, with ``norm`` and ``inner`` per leading index;
``rho_apply``, ``psi_apply`` and ``i_m_apply`` broadcast value rows (...,
horizon) and coefficients (..., block_dim, block_dim) over it, so a family
is one call with a row, a coefficient and a vector per check.
A compact K is a finite set of blocks in ``measure``'s one set form
(``require_mask``), a boolean block mask (..., horizon) that broadcasts
against the vectors' leading axes: one K for a whole stack, or one per
vector.
A batch of fields is one OperatorField whose term slots hold such stacks;
``i_m_apply`` and ``integrability_check`` sum its slots in order.
The checks return numbers, not verdicts: ``integrability_check`` the worst
blockwise normality residual and its block per batch index, which kind D's
injected row compares with its tolerance, and ``d_alpha_check`` a
support-inside-K mask and the probe excesses per vector, which no pipeline
reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .algebra import VonNeumannAlgebra
from .errors import DimMismatch, ShapeMismatch
from .linalg import adjoint, frob_norm, read_only
from .measure import DiscreteSpace, require_mask
from .nnsm import OperatorField, value_rows


def matrix_algebra(dim: int) -> VonNeumannAlgebra:
    """M_dim, with the matrix units E_ij in row-major order as its
    trace-orthonormal basis; it holds I, and ``matrix_algebra(1)`` is C*1."""
    return VonNeumannAlgebra(dim, np.eye(dim * dim, dtype=complex).reshape(-1, dim, dim))


@dataclass(frozen=True)
class BlockModel:
    """Countable block-diagonal carrier for unbounded representations.

    ``generators`` maps a name to a callable f_b, called once by
    ``generator_rows`` on the index array np.arange(horizon).  Every block
    has dimension ``block_dim``: the ambient dimension of ``w``, on which
    b (x) A acts blockwise as f_b(n) * A.  By default ``w`` is C*1
    (``matrix_algebra(1)``) and the model is scalar.  The generators and
    the rows computed from them are held read-only.
    """

    space: DiscreteSpace
    generators: dict  # name -> callable, index array -> value array
    w: VonNeumannAlgebra = field(default_factory=lambda: matrix_algebra(1))

    def __post_init__(self):
        if self.space.is_finite:
            raise ShapeMismatch("block models live over countable spaces")
        object.__setattr__(self, "generators", MappingProxyType(dict(self.generators)))

    @property
    def horizon(self) -> int:
        return self.space.horizon

    @property
    def block_dim(self) -> int:
        return self.w.ambient_dim

    @cached_property
    def generator_rows(self) -> dict:
        """Generator name -> its value row, f_b(n) for n below the horizon:
        the one place where the generators are evaluated, each once."""
        n = np.arange(self.horizon)
        return MappingProxyType({b: read_only(np.array(f(n), dtype=np.complex128))
                                 for b, f in self.generators.items()})

    @cached_property
    def factor_rows(self) -> np.ndarray:
        """The ``factor_table`` of the generator rows in sorted order."""
        return read_only(factor_table(
            [self.generator_rows[b] for b in sorted(self.generators)],
            np.ones(self.horizon)))


@dataclass(frozen=True)
class DomainVector:
    """Finitely supported vector below a model's horizon: a (horizon,
    block_dim) complex array whose row n is the component on block n; or a
    stack of them, (..., horizon, block_dim), one per leading index."""

    block: np.ndarray

    def __post_init__(self):
        block = np.asarray(self.block, dtype=np.complex128)
        if block.ndim < 2:
            raise ShapeMismatch("a domain vector is a (..., blocks, dim) array")
        object.__setattr__(self, "block", block)

    @property
    def support(self) -> np.ndarray:
        """The (..., horizon) block mask of the blocks with a nonzero entry,
        one per vector; a NaN entry counts as nonzero."""
        return self.block.any(axis=-1)

    def norm(self):
        """||x||, or the array of the norms of a stack's vectors."""
        r = np.sqrt(_vdot(self.block, self.block).real)
        return r if r.ndim else float(r)

    def scale(self, lam: complex) -> "DomainVector":
        return DomainVector(lam * self.block)

    def add(self, other: "DomainVector") -> "DomainVector":
        return vector_sum((self, other))

    def sub(self, other: "DomainVector") -> "DomainVector":
        return self.add(other.scale(-1.0))

    def inner(self, other: "DomainVector"):
        """<self, other>, conjugate-linear in ``other``; per vector for
        stacks."""
        r = _vdot(other.block, self.block)
        return r if r.ndim else complex(r)


def _vdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.vdot of each pair of (..., horizon, block_dim) vectors, bit for
    bit: one matmul of the conjugated, flattened rows of x against those of
    y, which takes one BLAS dot per pair, as np.vdot does."""
    rows = np.conj(x).reshape(*x.shape[:-2], 1, x.shape[-2] * x.shape[-1])
    cols = y.reshape(*y.shape[:-2], y.shape[-2] * y.shape[-1], 1)
    return (rows @ cols)[..., 0, 0]


def vector_sum(vectors) -> DomainVector:
    """Sum of domain vectors of one shape, added in the given order."""
    parts = [x.block for x in vectors]
    if len({b.shape for b in parts}) != 1:
        raise DimMismatch("a sum needs domain vectors of one shape")
    return DomainVector(sum(parts[1:], parts[0]))


def _require_rows(x: DomainVector, horizon: int) -> None:
    if x.block.shape[-2] != horizon:
        raise ShapeMismatch(f"a domain vector needs one row per block below "
                            f"the horizon ({horizon}), got {x.block.shape[-2]}")


def rho_apply(model: BlockModel, values, a, x: DomainVector) -> DomainVector:
    """rho(b (x) A) x: block n of the result is f(n) * A x_n (exact), with f
    given by its value row ``values``; one broadcast over every block and
    every stack axis.  A must be (block_dim, block_dim) matrices, or
    ShapeMismatch is raised."""
    _require_rows(x, model.horizon)
    _require_coefficient(model, a)
    fv = value_rows(values, model.horizon)[..., None]
    return DomainVector(fv * (x.block @ np.swapaxes(a, -1, -2)))


def psi_apply(values, a, model: BlockModel, x: DomainVector) -> DomainVector:
    """Preintegral psi(f, A) x on a finitely supported vector, read off the
    block actions of the field f (x) A: block n of the result is
    (f(n) * A) x_n, one contraction over every block.  The value row and A
    are checked as in ``rho_apply``, which this route never calls."""
    _require_rows(x, model.horizon)
    acts = _term_actions(values, a, model)
    return DomainVector(np.einsum("...nij,...nj->...ni", acts, x.block))


def i_m_apply(field_: OperatorField, model: BlockModel,
              x: DomainVector) -> DomainVector:
    """Integral of a field applied on D0: the preintegrals of its term
    slots, summed in order onto the zero vector of x's shape.

    The closure agrees with the preintegral on finitely supported vectors,
    so this is the closure's action there.
    """
    return DomainVector(sum((psi_apply(v, a, model, x).block
                             for v, a in field_.terms),
                            np.zeros(x.block.shape, dtype=np.complex128)))


def d_alpha_check(x: DomainVector, model: BlockModel, k, probes: int = 20,
                  seed: int = 0):
    """Membership test for the compactly-dominated vectors D_{alpha_K}, as
    the pair (certified, residuals): for a (vectors, horizon, block_dim)
    stack, a (vectors,) mask and a (vectors, probes) array of probe
    excesses max(0, ||rho(p)x|| - alpha_K(p)||x||); for one vector, a bool
    and a (probes,) array.  K is a block mask (``measure.require_mask``):
    one (horizon,) mask for every vector, or a (vectors, horizon) stack
    with one per vector.

    SUFFICIENT: support(x) inside K certifies membership exactly, since
    blockwise ||rho(b) x||^2 = sum |f_b(n)|^2 ||x_n||^2 is dominated by
    sup_{n in K} |f_b(n)|^2 ||x||^2.  NECESSARY (sampled): the inequality is
    probed on random *-polynomials in the generators, one draw of a private
    rng seeded by ``seed`` (``random_star_polynomials``) for the stack,
    evaluated by ``star_values`` as one (probes, blocks) value stack over
    the model's factor rows and read on each vector's support and K.  A NaN
    excess stays NaN.  More leading axes are ShapeMismatch, and a negative
    ``probes`` is ValueError.
    """
    _require_rows(x, model.horizon)
    if x.block.ndim > 3:
        raise ShapeMismatch("d_alpha_check takes one vector or a (vectors, "
                            f"horizon, block_dim) stack, got {x.block.shape}")
    if probes < 0:
        raise ValueError(f"probes must be non-negative, got {probes}")
    single = x.block.ndim == 2
    xs = x.block[None] if single else x.block
    stacked = (len(xs), 1, model.horizon)
    inside = require_mask(k, x.support.shape).reshape(stacked)
    support = x.support.reshape(stacked)
    # the zero vector is a member
    certified = ~np.any(support & ~inside, axis=-1)[:, 0]
    norm_x = DomainVector(xs).norm()[:, None]
    mass = np.einsum("vnd,vnd->vn", np.conj(xs), xs).real[:, None]
    probe_draw = random_star_polynomials(np.random.default_rng(seed),
                                         len(model.generators), probes, degree=2)
    vals = np.abs(star_values(*probe_draw, model.factor_rows))
    y_norm = np.sqrt(np.sum(np.where(support, vals ** 2, 0.0) * mass, axis=-1))
    alpha = np.max(np.where(inside, vals, 0.0), axis=-1, initial=0.0)
    # np.maximum keeps a NaN excess
    residuals = np.maximum(0.0, y_norm - alpha * norm_x)
    return (certified[0], residuals[0]) if single else (certified, residuals)


def random_star_polynomials(rng: np.random.Generator, n_names: int,
                            count: int, degree: int):
    """``count`` random *-polynomials in ``n_names`` generators, from two
    draws of ``rng``: the one *-polynomial draw of the checks.

    Returns (codes, coeffs) over the sorted names, 3 monomial slots of
    ``degree`` factor slots per polynomial.  A polynomial uses its first
    1..3 monomial slots and a monomial its first 0..``degree`` factor slots;
    each count, and each generator pick with its adjoint flag, is floor(n *
    u) (+ 1 for the monomial count) of a uniform u in [0, 1).  Unused factor
    slots hold the constant 1, unused monomial slots the coefficient 0:
    exact ones and zeros.
    """
    u = rng.random((count, 3, 2 + degree))  # monomial count, degree, picks
    used = 3.0 * u[:, :1, 0] >= np.arange(3)
    real = (degree + 1.0) * u[..., 1:2] >= np.arange(1, degree + 1)
    codes = np.where(real & used[..., None],
                     (2 * n_names * u[..., 2:]).astype(int), 2 * n_names)
    coeffs = rng.standard_normal((count, 3, 2)).view(np.complex128)[..., 0]
    return codes, coeffs * used


def factor_table(factors, unit) -> np.ndarray:
    """[f_0, f_0*, f_1, f_1*, ..., unit]: the rows that the codes 0, 1, ...,
    2 * len(factors) name.  Factors of ``unit``'s shape are value rows
    (adjoint: the conjugate) or square matrices (the conjugate transpose)."""
    unit = np.asarray(unit, dtype=np.complex128)
    f = np.reshape(np.asarray(factors, dtype=np.complex128), (-1, *unit.shape))
    table = np.empty((2 * len(f) + 1, *unit.shape), dtype=np.complex128)
    table[0:-1:2] = f
    table[1:-1:2] = np.conj(f if unit.ndim == 1 else np.swapaxes(f, -1, -2))
    table[-1] = unit
    return table


def star_values(codes, coeffs, table) -> np.ndarray:
    """The (..., n) values of *-polynomials (codes (..., m, slots), slots
    >= 1, and coeffs (..., m)) over a ``factor_table`` of length-n value
    rows: per monomial its coefficient times its factors, left to right,
    summed over the monomials in order."""
    terms = coeffs[..., None]
    for s in range(codes.shape[-1]):
        terms = terms * table[codes[..., s]]
    return terms.sum(axis=-2)


def _require_coefficient(model: BlockModel, a) -> None:
    """A coefficient is a matrix acting on one block: a (..., block_dim,
    block_dim) ndarray, also on a scalar model."""
    d = model.block_dim
    shape = getattr(a, "shape", None)
    if shape is None or shape[-2:] != (d, d):
        raise ShapeMismatch(f"a coefficient acts on one block as a ({d}, {d}) "
                            f"matrix; got {type(a).__name__} of shape {shape}")


def _term_actions(values, a, model: BlockModel) -> np.ndarray:
    """The (..., horizon, block_dim, block_dim) matrices f(n) * A by which
    a term f (x) A, or a stack of terms, acts on the model's blocks."""
    _require_coefficient(model, a)
    return value_rows(values, model.horizon)[..., None, None] * a[..., None, :, :]


def integrability_check(model: BlockModel, field_: OperatorField):
    """Blockwise normality of a field's action (integrability proxy), as
    the pair (residual, block) of arrays of the field's batch shape, 0-d
    for an unbatched field: the worst scale-aware commutator residual
    ||B B* - B* B|| / (1 + ||B||^2) over the block actions B and the block
    that holds it.

    Value rows hold one value per block (``nnsm.value_rows``), and every
    coefficient act on one block, or ShapeMismatch is raised.  The block
    actions f(n) * A are summed over the slots in order, and the commutator
    norms of every block action of every batch index are taken in one
    batch.  argmax names the first NaN residual, or else the first largest;
    a model without blocks reads 0.0 at block 0.
    """
    d = model.block_dim
    b = sum((_term_actions(v, a, model) for v, a in field_.terms),
            np.zeros((model.horizon, d, d), dtype=np.complex128))
    b_star = adjoint(b)
    resid = frob_norm(b @ b_star - b_star @ b) / (1.0 + frob_norm(b) ** 2)
    # a trailing zero residual leaves argmax and the maximum as they are,
    # and gives a model without blocks block 0
    resid = np.concatenate([resid, np.zeros((*resid.shape[:-1], 1))], axis=-1)
    worst = np.argmax(resid, axis=-1)
    return np.take_along_axis(resid, worst[..., None], axis=-1)[..., 0], worst

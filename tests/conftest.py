import numpy as np
import pytest

from specmeas import algebra, blocks, harness, linalg, measure, nnsm


def clear_memos():
    """Empty the scenario and sampled-family memos."""
    harness._scenario.cache_clear()
    algebra.sample_projections.cache_clear()


@pytest.fixture(autouse=True)
def fresh_memos():
    """Every test starts with empty memos, so a value built under one
    test's monkeypatch never reaches another test."""
    clear_memos()


def tensor_model(seed: int, h_dim: int = 2, n_atoms: int = 3, unitary: bool = True):
    """NNSM on a finite space via Phi_x(A) = U (A (x) D_x) U*.

    The D_x are diagonal projections partitioning C^{n_atoms}, so the model
    is normalized by construction and every compression is a genuine
    spectral measure.
    """
    rng = np.random.default_rng(seed)
    w1 = algebra.bicommutant([linalg.random_hermitian(rng, h_dim)], h_dim)
    while w1.dim < h_dim * h_dim:
        w1 = algebra.bicommutant(
            [linalg.random_hermitian(rng, h_dim), linalg.random_hermitian(rng, h_dim)],
            h_dim,
        )
    k = h_dim * n_atoms
    u = linalg.random_unitary(rng, k) if unitary else np.eye(k, dtype=complex)
    space = measure.DiscreteSpace(labels=tuple(range(n_atoms)))
    images = np.zeros((n_atoms, w1.dim, k, k), dtype=complex)
    for x in range(n_atoms):
        d_x = np.zeros((n_atoms, n_atoms), dtype=complex)
        d_x[x, x] = 1.0
        for i, b in enumerate(w1.basis):
            images[x, i] = u @ np.kron(b, d_x) @ linalg.adjoint(u)
    m = nnsm.NonNegSpectralMeasure(space, w1, images)
    return m, u, rng


def member_measure(batch: measure.SpectralMeasure, i: int) -> measure.SpectralMeasure:
    """The i-th measure of a SpectralMeasure batched on one leading axis,
    built on its own from its slices."""
    return measure.SpectralMeasure(batch.space, batch.atoms[i], total=batch.total[i])


def domain_vector(model, comps) -> blocks.DomainVector:
    """The vector of a block model with component comps[n] on block n and
    zero on every other block below the horizon."""
    block = np.zeros((model.horizon, model.block_dim), dtype=complex)
    for n, v in comps.items():
        block[n] = v
    return blocks.DomainVector(block)


def hermitian_element(w: algebra.VonNeumannAlgebra, rng) -> np.ndarray:
    """One random hermitian element of w, from one (2, dim w) standard
    normal draw: the draw that the pipelines make per element."""
    return w.hermitian_elements(rng.standard_normal((1, 2, w.dim)))[0]


def decode_star_polynomials(codes, coeffs, names):
    """*-polynomials in (codes, coeffs) form as lists of
    (coeff, ((name, conj?), ...)) monomials, without the unused slots."""
    return [
        [(complex(c), tuple((names[f // 2], bool(f % 2))
                            for f in row if f < 2 * len(names)))
         for c, row in zip(cs, rows) if c != 0]
        for cs, rows in zip(np.asarray(coeffs).tolist(), np.asarray(codes).tolist())
    ]


def point_mask(space: measure.DiscreteSpace, members) -> np.ndarray:
    """The (n_points,) set of ``space`` that holds exactly the points in
    ``members``: a boolean mask indexed like ``space.points()``."""
    return np.array([x in members for x in space.points()], dtype=bool)


def block_mask(horizon: int, members) -> np.ndarray:
    """The (horizon,) block mask that holds exactly the blocks in
    ``members``: the form of a compact K and of a support."""
    inside = np.zeros(horizon, dtype=bool)
    inside[list(members)] = True
    return inside


def stacked_fields(fields) -> nnsm.OperatorField:
    """Unbatched fields as one field batched over them: slot t holds each
    field's term t, or an exact-zero row and coefficient where it has fewer
    terms.  At least one field must have a term."""
    width = max(len(f.terms) for f in fields)
    first = next(f.terms[0] for f in fields if f.terms)
    zero = tuple(np.zeros_like(x) for x in first)
    padded = [f.terms + (zero,) * (width - len(f.terms)) for f in fields]
    return nnsm.OperatorField(terms=tuple(
        tuple(np.stack(part) for part in zip(*slot)) for slot in zip(*padded)))


def truncate_to_eps(coeffs, eps):
    """D0 density witness for the (infinitely supported) target whose block
    coefficients are the rows of ``coeffs``: keep the rows below the
    smallest horizon h >= 1 whose tail is within eps, and return that member
    with its tail norm.  The tail norms of every h come from one reverse
    cumulative sum; the returned tail sums the dropped rows in order.  The
    rows' masses are the inner products of a stack of one-block vectors."""
    kept = np.array(coeffs, dtype=np.complex128)
    rows = blocks.DomainVector(kept[:, None])
    mass = rows.inner(rows).real
    tails = np.sqrt(np.cumsum(mass[::-1])[::-1])
    within = np.flatnonzero(tails[1:] <= eps)
    horizon = int(within[0]) + 1 if within.size else len(coeffs)
    kept[horizon:] = 0.0
    return blocks.DomainVector(kept), float(np.sqrt(sum(mass[horizon:].tolist())))

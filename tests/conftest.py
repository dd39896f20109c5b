import numpy as np

from specmeas import algebra, blocks, linalg, measure, nnsm


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

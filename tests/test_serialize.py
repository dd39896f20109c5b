import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmeas import linalg, measure, serialize
from specmeas.errors import InvalidDocument

from conftest import tensor_model


def test_matrix_round_trip_lossless():
    a = np.array([[1.0 / 3.0, -2.5j], [1e-17, 7e300]], dtype=complex)
    doc = serialize.matrix_to_doc(a)
    back = serialize.matrix_from_doc(doc)
    assert np.array_equal(a, back)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), r=st.integers(1, 5), c=st.integers(1, 5))
def test_matrix_round_trip_random(seed, r, c):
    rng = np.random.default_rng(seed)
    a = linalg.random_complex(rng, r, c)
    assert np.array_equal(serialize.matrix_from_doc(serialize.matrix_to_doc(a)), a)


def test_matrix_rejects_malformed():
    with pytest.raises(InvalidDocument):
        serialize.matrix_from_doc({"rows": 2, "cols": 2, "data": [[0.0, 0.0]]})
    with pytest.raises(InvalidDocument):
        serialize.matrix_from_doc({"rows": 1})
    with pytest.raises(InvalidDocument):
        serialize.matrix_from_doc(
            {"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]})


def test_space_round_trip():
    fin = measure.DiscreteSpace(labels=("a", 1, 2))
    cnt = measure.DiscreteSpace(horizon=12)
    assert serialize.space_from_doc(serialize.space_to_doc(fin)) == fin
    assert serialize.space_from_doc(serialize.space_to_doc(cnt)) == cnt
    with pytest.raises(InvalidDocument):
        serialize.space_from_doc({"kind": "mystery"})


def test_measure_round_trip_reports_residual():
    space = measure.DiscreteSpace(labels=(0, 1))
    e = measure.SpectralMeasure(
        space=space,
        atoms={0: np.diag([1.0, 0.0]).astype(complex),
               1: np.diag([0.0, 1.0]).astype(complex)},
    )
    back, resid = serialize.measure_from_doc(serialize.measure_to_doc(e))
    assert resid <= 1e-12
    assert np.array_equal(back.atom(0), e.atom(0))
    assert np.array_equal(back.total, e.total)


def test_nnsm_round_trip(tmp_path):
    m, _, rng = tensor_model(seed=20)
    path = tmp_path / "nnsm.json"
    serialize.dump(serialize.nnsm_to_doc(m), path)
    back, resid = serialize.nnsm_from_doc(serialize.load(path))
    assert resid <= 1e-10
    a = m.w1.random_hermitian_element(rng)
    for x in m.space.points():
        assert np.allclose(back.apply(x, a), m.apply(x, a), atol=1e-10)


def test_generator_rules():
    f = serialize.generator_rule({"kind": "exp-index", "rate": -1.0})
    assert f(2) == pytest.approx(np.exp(-2.0))
    num = serialize.generator_rule(
        {"kind": "poly", "coeffs": [[0.0, 0.0], [1.0, 0.0]]})
    assert num(7) == 7.0
    flat = serialize.generator_rule({"kind": "bounded-const", "value": [0.5, -0.5]})
    assert flat(3) == 0.5 - 0.5j
    with pytest.raises(InvalidDocument):
        serialize.generator_rule({"kind": "nope"})


def test_load_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(InvalidDocument):
        serialize.load(p)

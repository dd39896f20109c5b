import functools
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmeas import cli, harness, linalg, measure, serialize
from specmeas.errors import InvalidDocument

from conftest import tensor_model


def test_matrix_round_trip_lossless():
    a = np.array([[1.0 / 3.0, -2.5j], [1e-17, 7e300],
                  [complex(-0.0, 5e-324), complex(5e-324, -0.0)]], dtype=complex)
    doc = serialize.matrix_to_doc(a)
    back = serialize.matrices_from_doc([json.loads(json.dumps(doc))])[0]
    assert np.array_equal(a, back)
    assert np.array_equal(np.signbit(a.view(float)), np.signbit(back.view(float)))


def test_matrix_to_doc_data_is_the_per_entry_floats():
    # a transposed view is not contiguous, and a real matrix is coerced
    rng = np.random.default_rng(5)
    for a in (linalg.random_complex(rng, 3, 4).T, rng.standard_normal((2, 3)),
              np.array([[-0.0, complex(0.0, -0.0)]])):
        data = serialize.matrix_to_doc(a)["data"]
        expected = [[float(z.real), float(z.imag)]
                    for z in np.asarray(a, dtype=complex).reshape(-1)]
        assert data == expected
        assert all(type(v) is float for pair in data for v in pair)
        assert np.array_equal(np.signbit(data), np.signbit(expected))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), r=st.integers(1, 5), c=st.integers(1, 5))
def test_matrix_round_trip_random(seed, r, c):
    rng = np.random.default_rng(seed)
    a = linalg.random_complex(rng, r, c)
    docs = [serialize.matrix_to_doc(a), serialize.matrix_to_doc(2.0 * a)]
    assert np.array_equal(serialize.matrices_from_doc(docs), np.stack([a, 2.0 * a]))


def test_matrix_rejects_malformed():
    def rejected(doc):
        with pytest.raises(InvalidDocument):
            serialize.matrices_from_doc([doc])

    rejected({"rows": 2, "cols": 2, "data": [[0.0, 0.0]]})
    rejected({"rows": 1})
    for bad in (float("nan"), "1.5", None, [1.0], 10**400):
        rejected({"rows": 1, "cols": 1, "data": [[bad, 0.0]]})
    for pairs in ([[1.0, 2.0, 3.0]], [[1.0]], ["ab"], [[[1.0], 2.0]]):
        rejected({"rows": 1, "cols": 1, "data": pairs})
    # each document's data has rows * cols pairs, not just their total
    with pytest.raises(InvalidDocument):
        serialize.matrices_from_doc([{"rows": 1, "cols": 2, "data": [[0, 0]] * k}
                                     for k in (1, 3)])


def test_matrix_accepts_json_integers_and_booleans():
    # integers of any size within float range convert as float() does
    doc = {"rows": 1, "cols": 3, "data": [[2**70, True], [3, False], [-2**64, 0.5]]}
    back = serialize.matrices_from_doc([doc])[0]
    assert back.tolist() == [[complex(2**70, 1), 3, complex(-2**64, 0.5)]]


def test_space_round_trip():
    fin = measure.DiscreteSpace(labels=("a", 1, 2))
    cnt = measure.DiscreteSpace(horizon=12)
    assert serialize.space_from_doc(serialize.space_to_doc(fin)) == fin
    assert serialize.space_from_doc(serialize.space_to_doc(cnt)) == cnt
    for bad in ({"kind": "mystery"}, [1], "finite"):
        with pytest.raises(InvalidDocument):
            serialize.space_from_doc(bad)


def test_measure_round_trip_reports_residual():
    space = measure.DiscreteSpace(labels=(0, 1))
    e = measure.SpectralMeasure(
        space, (0, 1),
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
    )
    back, resid = serialize.measure_from_doc(serialize.measure_to_doc(e))
    assert resid <= 1e-12
    assert back.labels == e.labels
    assert np.array_equal(back.atoms, e.atoms)
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
    for text in ("{not json", "[" * 100_000 + "]" * 100_000,
                 '{"horizon": ' + "9" * 5000 + "}"):
        p.write_text(text)
        with pytest.raises(InvalidDocument):
            serialize.load(p)
    p.write_bytes(b'{"kind": "\xff"}')
    with pytest.raises(InvalidDocument):
        serialize.load(p)


def test_indented_documents_still_load(tmp_path):
    # documents are written on one line; older indented files load the same
    doc = serialize.nnsm_to_doc(harness.gen_scenario("B", 3).payload["oracle"])
    one_line, indented = tmp_path / "one-line.json", tmp_path / "indented.json"
    serialize.dump(doc, one_line)
    with open(indented, "w") as fh:
        json.dump(doc, fh, indent=1)
    assert one_line.read_text().count("\n") == 1
    assert serialize.load(one_line) == serialize.load(indented) == doc
    reports = [harness.check_measure_file(p) for p in (one_line, indented)]
    assert reports[0].checks == reports[1].checks
    assert reports[0].passed


@functools.cache
def _base_document(base: str) -> str:
    if base == "measure":
        e = measure.SpectralMeasure(
            measure.DiscreteSpace(labels=(0, 1)), (0, 1),
            [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
        )
        return json.dumps(serialize.measure_to_doc(e))
    return json.dumps(serialize.nnsm_to_doc(harness.gen_scenario("B", 3).payload["oracle"]))


def _nodes(node, path=()):
    """(path, value) of every node of a JSON document, in document order."""
    yield path, node
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


TOP_LEVEL = (5, None, [1, 2], "abc")


def _mutate(doc, mutation, pick, value):
    """Apply one mutation and return the mutated document; ``pick`` chooses
    where, counted from the end of the document.  "top-level" replaces the
    whole document by a JSON value that is no object."""
    if mutation == "top-level":
        return TOP_LEVEL[pick % len(TOP_LEVEL)]
    nodes = list(_nodes(doc))

    def get(path):
        node = doc
        for key in path:
            node = node[key]
        return node

    def choose(paths):
        return paths[-1 - pick % len(paths)]

    atoms = doc["atoms"] if "atoms" in doc else doc["atom_maps"]
    if mutation == "drop-key":
        # object keys are strings, list indices integers
        path = choose([p for p, _ in nodes if p and isinstance(p[-1], str)])
        del get(path[:-1])[path[-1]]
    elif mutation == "number":
        path = choose([p for p, v in nodes
                       if isinstance(v, (int, float)) and not isinstance(v, bool)])
        get(path[:-1])[path[-1]] = value
    elif mutation in ("rows", "cols", "truncate"):
        matrix = get(choose([p for p, v in nodes if isinstance(v, dict) and "data" in v]))
        if mutation == "truncate":
            matrix["data"] = matrix["data"][:pick % len(matrix["data"])]
        else:
            matrix[mutation] += 1
    elif mutation == "repeat-label":
        atoms.append(json.loads(json.dumps(atoms[pick % len(atoms)])))
    elif mutation == "outside-label":
        atoms[pick % len(atoms)][0] = -1
    return doc


MUTATIONS = ("none", "drop-key", "number", "rows", "cols", "truncate",
             "repeat-label", "outside-label", "top-level")


@settings(max_examples=100, deadline=None)
@given(base=st.sampled_from(("measure", "nnsm")), mutation=st.sampled_from(MUTATIONS),
       pick=st.integers(0, 2**32),
       value=st.sampled_from(("1.5", None, [1.0], 10**400, float("nan"), 0.5)))
@example(base="measure", mutation="number", pick=0, value=10**400)
@example(base="nnsm", mutation="number", pick=0, value=10**400)
@example(base="measure", mutation="top-level", pick=0, value=None)
@example(base="measure", mutation="top-level", pick=1, value=None)
@example(base="measure", mutation="top-level", pick=2, value=None)
@example(base="measure", mutation="top-level", pick=3, value=None)
def test_check_measure_survives_document_mutations(base, mutation, pick, value):
    # pick 0 of "number" is the document's last matrix entry; an unmutated
    # document passes; picks 0-3 of "top-level" are 5, null, [1, 2], "abc"
    doc = _mutate(json.loads(_base_document(base)), mutation, pick, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        serialize.dump(doc, path)
        code = cli.run_cli(["check-measure", path])
        checks = harness.check_measure_file(path).checks
    if mutation == "none":
        assert code == 0
    elif mutation == "top-level":
        assert code == 1
        assert [c.name for c in checks] == ["document[InvalidDocument]"]
    else:
        assert code in (0, 1, 2)

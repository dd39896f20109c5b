import contextlib
import functools
import io
import json
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmeas import cli, harness, measure, nnsm, serialize
from specmeas.errors import InvalidDocument
from specmeas.harness import Caps
from specmeas.tolerances import TAU_ALG, TAU_DOC


def run(capsys, *argv):
    code = cli.run_cli(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_no_args_usage_exit_2(capsys):
    code, _, err = run(capsys)
    assert code == 2


def test_verify_b_single_scenario(capsys):
    code, out, _ = run(capsys, "verify-b", "--seed", "7", "--count", "1")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["pass"] is True
    assert doc["scenario"] == "B-7"
    assert doc["wall_ms"] == 0


def test_verify_deterministic_output(capsys):
    code1, out1, _ = run(capsys, "verify-a", "--seed", "3", "--count", "4")
    code2, out2, _ = run(capsys, "verify-a", "--seed", "3", "--count", "4")
    assert code1 == code2 == 0
    assert out1 == out2


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("SPECREP_SEED", "11")
    code, out, _ = run(capsys, "verify-a")
    assert code == 0
    assert json.loads(out.splitlines()[0])["scenario"] == "A-11"


def test_env_seed_that_is_no_integer_is_a_usage_error(capsys, monkeypatch):
    for value, message in (("abc", "invalid int value: 'abc'"),
                           ("-1", "--seed: must be non-negative, got -1")):
        monkeypatch.setenv("SPECREP_SEED", value)
        for argv in (["verify-a"], ["verify-d"], ["fuzz", "--seconds", "0.1"]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert message in err and "Traceback" not in err
    # an explicit --seed still wins over the environment
    code, out, _ = run(capsys, "verify-a", "--seed", "4")
    assert code == 0 and json.loads(out.splitlines()[0])["scenario"] == "A-4"


@pytest.mark.parametrize("argv, message", [
    (["verify-a", "--count", "0"], "--count: must be at least 1, got 0"),
    (["verify-d", "--count", "-3"], "--count: must be at least 1, got -3"),
    (["report", "--count", "-2"], "--count: must be at least 1, got -2"),
    (["fuzz", "--seconds", "-1"], "--seconds: must be positive and finite"),
    (["fuzz", "--seconds", "0"], "--seconds: must be positive and finite"),
    (["fuzz", "--seconds", "nan"], "--seconds: must be positive and finite"),
    (["fuzz", "--seconds", "inf"], "--seconds: must be positive and finite"),
    (["verify-a", "--seed", "-5"], "--seed: must be non-negative, got -5"),
    (["fuzz", "--seed", "-3"], "--seed: must be non-negative, got -3"),
    (["report", "--seed", "-1"], "--seed: must be non-negative, got -1"),
])
def test_a_run_that_asks_for_no_work_is_a_usage_error(capsys, tmp_path, argv,
                                                       message):
    out_file = tmp_path / "r.json"
    if argv[0] == "report":
        argv = argv + ["--out", str(out_file)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err
    assert not out_file.exists()


def test_caps_parsing():
    caps = cli.parse_caps("h=2,k=8,x=4,n=16")
    assert caps == Caps(h_dim=2, k_dim=8, space=4, horizon=16)
    with pytest.raises(Exception):
        cli.parse_caps("h=9")
    with pytest.raises(Exception):
        cli.parse_caps("zz=2")


def test_caps_the_generators_cannot_honour_are_a_usage_error(capsys):
    for caps, message in (("n=7", "horizon cap 7 < 8"),
                          ("k=3", "dim K cap 3 < dim H cap 4")):
        code, out, err = run(capsys, "verify-d", "--caps", caps)
        assert code == 2 and out == ""
        assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["report", "--kinds", "a,a", "--count", "2"],
     "argument --kinds: repeated kind 'a'"),
    (["fuzz", "--kinds", "c,d,C", "--seconds", "1"],
     "argument --kinds: repeated kind 'c'"),
    (["verify-a", "--caps", "h=2,h=3"], "argument --caps: repeated caps key 'h'"),
    (["verify-c", "--caps", "n=0_16"],
     "argument --caps: caps value '0_16' is not a decimal integer"),
    (["verify-b", "--caps", "h=+2"],
     "argument --caps: caps value '+2' is not a decimal integer"),
    (["verify-b", "--caps", "x=\u0663"],
     "argument --caps: caps value '\u0663' is not a decimal integer"),
])
def test_repeated_or_malformed_input_is_a_usage_error(capsys, tmp_path, argv,
                                                      message):
    out_file = tmp_path / "r.json"
    if argv[0] == "report":
        argv = argv + ["--out", str(out_file)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err
    assert not out_file.exists()


def _strict_json(text):
    """json.loads that refuses the NaN and Infinity tokens, as RFC 8259
    JSON has none."""
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("space, entry, count", [
    ({"kind": "finite", "labels": [0]}, 1e300, 1),
    ({"kind": "countable", "horizon": 2}, 1e308, 2),
])
def test_check_measure_writes_a_non_finite_residual_as_null(capsys, tmp_path,
                                                            space, entry, count):
    # one atom of 1e300 overflows the residual to inf; two 2x2 atoms of
    # 1e308 entries make it NaN
    k = 1 if count == 1 else 2
    atom = {"rows": k, "cols": k, "data": [[entry, 0]] * (k * k)}
    doc = {"space": space, "atoms": [[n, atom] for n in range(count)],
           "total": serialize.matrix_to_doc(np.eye(k))}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-measure", str(path))
    assert code == 1 and "Traceback" not in err
    (check,) = _strict_json(out)["checks"]
    assert check["name"] == "spectral-measure-invariants"
    assert check["residual"] is None and check["pass"] is False


def test_check_measure_good_and_bad(capsys, tmp_path):
    space = measure.DiscreteSpace(labels=(0, 1))
    e = measure.SpectralMeasure(
        space,
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
    )
    good = tmp_path / "good.json"
    serialize.dump(serialize.measure_to_doc(e), good)
    code, _, _ = run(capsys, "check-measure", str(good))
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, out, err = run(capsys, "check-measure", str(bad))
    assert code == 1
    assert "document[InvalidDocument]" in err


def _check_rejected(capsys, path):
    code, _, err = run(capsys, "check-measure", str(path))
    assert code == 1
    assert "document[InvalidDocument]" in err and "Traceback" not in err


def test_check_measure_rejects_a_repeated_measure_label(capsys, tmp_path):
    e = measure.SpectralMeasure(
        measure.DiscreteSpace(labels=(0, 1)),
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
    )
    doc = serialize.measure_to_doc(e)
    # a repeated label beside an atom too many fails on the count, and one
    # in place of another point's label as a repeat
    extra = json.loads(json.dumps(doc))
    extra["atoms"].insert(0, [0, serialize.matrix_to_doc(5.0 * np.ones((2, 2)))])
    with pytest.raises(InvalidDocument, match="atoms listed: 3, points: 2;"):
        serialize.measure_from_doc(extra)
    doc["atoms"][1] = [0, serialize.matrix_to_doc(5.0 * np.ones((2, 2)))]
    with pytest.raises(InvalidDocument, match="repeated atom labels 0"):
        serialize.measure_from_doc(doc)
    for bad, name in ((extra, "extra.json"), (doc, "repeated.json")):
        serialize.dump(bad, tmp_path / name)
        _check_rejected(capsys, tmp_path / name)


@pytest.mark.parametrize("space, label", [
    ({"kind": "finite", "labels": [0, 1]}, 5),
    ({"kind": "countable", "horizon": 2}, -1),
])
def test_check_measure_rejects_a_measure_label_outside_the_space(
        capsys, tmp_path, space, label):
    doc = {
        "space": space,
        "atoms": [[0, serialize.matrix_to_doc(np.diag([1.0, 0.0]))],
                  [label, serialize.matrix_to_doc(np.diag([0.0, 1.0]))]],
        "total": serialize.matrix_to_doc(np.eye(2)),
    }
    with pytest.raises(InvalidDocument, match=f"atom label {label} not in the space"):
        serialize.measure_from_doc(doc)
    path = tmp_path / "outside.json"
    serialize.dump(doc, path)
    _check_rejected(capsys, path)


@pytest.mark.parametrize("horizon", [-5, "7", True])
def test_check_measure_rejects_a_horizon_that_is_not_a_non_negative_int(
        capsys, tmp_path, horizon):
    doc = {
        "space": {"kind": "countable", "horizon": horizon},
        "atoms": [[0, serialize.matrix_to_doc(np.eye(2))]],
        "total": serialize.matrix_to_doc(np.eye(2)),
    }
    with pytest.raises(InvalidDocument, match="horizon must be a non-negative int"):
        serialize.measure_from_doc(doc)
    path = tmp_path / "horizon.json"
    serialize.dump(doc, path)
    _check_rejected(capsys, path)


def test_check_measure_fails_an_nnsm_that_maps_nothing(capsys, tmp_path):
    # M(X)(1) of an NNSM whose every point has the zero map is 0, not the
    # identity
    doc = serialize.nnsm_to_doc(harness.gen_scenario("B", 3).payload["oracle"])
    k = doc["target_dim"]
    zero = serialize.matrix_to_doc(np.zeros((k, k)))
    doc["atom_maps"] = [[x, [zero] * len(imgs)] for x, imgs in doc["atom_maps"]]
    m, resid = serialize.nnsm_from_doc(doc)
    assert m.images.shape == (len(m.space), m.w1.dim, k, k) and not m.images.any()
    assert resid == pytest.approx(np.sqrt(k))
    path = tmp_path / "empty.json"
    serialize.dump(doc, path)
    code, out, err = run(capsys, "check-measure", str(path))
    assert code == 1
    assert "failed invariants: nnsm-invariants" in err and "Traceback" not in err


def test_an_nnsm_without_atoms_is_checked_without_k_by_k_arrays():
    # a 160-byte document that claims a large target space: on a space
    # without points M(X)(1) = 0, so its distance sqrt(k) from the identity
    # needs no k x k matrix (one complex 1500 x 1500 array is 36 MB)
    k = 1500
    doc = {"space": {"kind": "finite", "labels": []},
           "w1": {"ambient_dim": 1,
                  "basis": [{"rows": 1, "cols": 1, "data": [[1, 0]]}]},
           "target_dim": k, "atom_maps": []}
    tracemalloc.start()
    try:
        m, resid = serialize.nnsm_from_doc(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert m.images.shape == (0, 1, k, k)
    assert resid == np.sqrt(k)


def test_check_measure_rejects_a_repeated_nnsm_atom_label(capsys, tmp_path):
    doc = serialize.nnsm_to_doc(harness.gen_scenario("B", 4).payload["oracle"])
    label, images = doc["atom_maps"][0]
    scaled = [serialize.matrix_to_doc(7.0 * m)
              for m in serialize.matrices_from_doc(images)]
    doc["atom_maps"][1] = [label, scaled]
    with pytest.raises(InvalidDocument, match=f"repeated atom labels {label!r}"):
        serialize.nnsm_from_doc(doc)
    path = tmp_path / "repeated.json"
    serialize.dump(doc, path)
    _check_rejected(capsys, path)


@pytest.mark.parametrize("field", ["rows", "cols", "ambient_dim", "target_dim"])
def test_check_measure_rejects_a_dimension_that_is_no_integer(capsys, tmp_path, field):
    # int() would truncate 4.5 to 4, and the document would pass
    doc = serialize.nnsm_to_doc(harness.gen_scenario("B", 0).payload["oracle"])
    owner = {"rows": doc["w1"]["basis"][1], "cols": doc["atom_maps"][0][1][1],
             "ambient_dim": doc["w1"], "target_dim": doc}[field]
    size = owner[field]
    for value in (size + 0.5, float(size), True):
        owner[field] = value
        with pytest.raises(InvalidDocument, match=f"{field} must be an integer"):
            serialize.nnsm_from_doc(doc)
    owner[field] = size + 0.5
    path = tmp_path / f"{field}.json"
    serialize.dump(doc, path)
    _check_rejected(capsys, path)


def test_check_measure_rejects_a_measure_dimension_that_is_no_integer(capsys, tmp_path):
    doc = {"space": {"kind": "finite", "labels": [0]},
           "atoms": [[0, {"rows": 1.5, "cols": 1, "data": [[1, 0]]}]],
           "total": {"rows": 1, "cols": True, "data": [[1, 0]]}}
    with pytest.raises(InvalidDocument, match="rows must be an integer, got 1.5"):
        serialize.measure_from_doc(doc)
    doc["atoms"][0][1]["rows"] = 1
    with pytest.raises(InvalidDocument, match="cols must be an integer, got True"):
        serialize.measure_from_doc(doc)
    path = tmp_path / "bool-cols.json"
    serialize.dump(doc, path)
    _check_rejected(capsys, path)


def _diagonal_half_doc():
    # W1 = the diagonal C^2 in M_2 and Phi(E11) = Phi(E22) = I/2: unital,
    # positive and *-preserving, but Phi(E11)^2 = I/4 != Phi(E11)
    half = serialize.matrix_to_doc(np.eye(2) / 2)
    return {"space": {"kind": "finite", "labels": [0]},
            "w1": {"ambient_dim": 2, "basis": [
                serialize.matrix_to_doc(np.diag([1.0, 0.0])),
                serialize.matrix_to_doc(np.diag([0.0, 1.0]))]},
            "target_dim": 2, "atom_maps": [[0, [half, half]]]}


def _bumped_b1_doc():
    # E11 (norm 1) added to atom 0's image of basis element 1, which has no
    # identity component: E_id and M(X)(1) do not move
    m = harness.gen_scenario("B", 1).payload["oracle"]
    images = m.images.copy()
    images[0, 1, 0, 0] += 1.0
    return serialize.nnsm_to_doc(replace(m, images=images))


@pytest.mark.parametrize("make, residual", [
    (_diagonal_half_doc, np.sqrt(2) / 4), (_bumped_b1_doc, None)])
def test_check_measure_fails_atom_maps_that_are_no_homomorphisms(
        capsys, tmp_path, make, residual):
    _, resid = serialize.nnsm_from_doc(make())
    assert resid > TAU_DOC
    if residual is not None:
        assert resid == pytest.approx(residual)
    path = tmp_path / "not-multiplicative.json"
    serialize.dump(make(), path)
    code, _, err = run(capsys, "check-measure", str(path))
    assert code == 1
    assert "failed invariants: nnsm-invariants" in err and "Traceback" not in err


def _matrix(doc):
    return np.array([complex(re, im) for re, im in doc["data"]]).reshape(
        doc["rows"], doc["cols"])


def _definition_gaps(doc):
    """The NNSM definition recomputed pair by pair from a document: W1's
    closure under products and adjoints, and the atom maps' distance from
    *-homomorphisms with orthogonal units that sum to the identity."""
    basis = [_matrix(b) for b in doc["w1"]["basis"]]
    maps = [[_matrix(img) for img in imgs] for _, imgs in doc["atom_maps"]]
    k = doc["target_dim"]

    def coords(a):
        return [np.vdot(b, a) for b in basis]

    def phi(images, a):
        return sum((c * img for c, img in zip(coords(a), images)),
                   np.zeros((k, k), dtype=complex))

    closure, gaps = [], []
    for a in [bi @ bj for bi in basis for bj in basis] + [b.conj().T for b in basis]:
        back = sum(c * b for c, b in zip(coords(a), basis))
        closure.append(np.linalg.norm(a - back) / (1 + np.linalg.norm(a)))
    units = [phi(images, np.eye(len(basis[0]))) for images in maps]
    for images in maps:
        for bi, img_i in zip(basis, images):
            gaps.append(np.linalg.norm(phi(images, bi.conj().T) - img_i.conj().T))
            for bj, img_j in zip(basis, images):
                gaps.append(np.linalg.norm(img_i @ img_j - phi(images, bi @ bj)))
    gaps += [np.linalg.norm(ex @ ey) for x, ex in enumerate(units)
             for y, ey in enumerate(units) if x != y]
    gaps.append(np.linalg.norm(sum(units, np.zeros((k, k))) - np.eye(k)))
    return max(closure), max(gaps)


# small documents, with W1 of dimension 1 (seed 11), 3 (seed 8), 4 (seeds
# 1-3) and 9 (seed 12)
FUZZ_SEEDS = (1, 2, 3, 8, 11, 12)


@functools.cache
def _fuzz_text(seed):
    return json.dumps(serialize.nnsm_to_doc(
        harness.gen_scenario("B", seed).payload["oracle"]))


def _nodes(tree, path=()):
    """(path, node) for every node below the root of a JSON tree."""
    items = (tree.items() if isinstance(tree, dict)
             else enumerate(tree) if isinstance(tree, list) else ())
    for key, child in items:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _mutate(doc, data):
    """One leaf edit, deletion or list-element duplication at a drawn node;
    half of the draws go to the nodes outside the matrix data, which are
    few but hold every dimension, label and space field."""
    in_data = data.draw(st.booleans())
    pool = [n for n in _nodes(doc) if ("data" in n[0]) == in_data]
    if not pool:
        return
    path, node = pool[data.draw(st.integers(0, len(pool) - 1))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = data.draw(st.sampled_from(["edit", "delete", "duplicate"]))
    if action == "delete":
        del parent[key]
    elif action == "duplicate" and isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(node)))
    elif not isinstance(node, (dict, list)):
        scale = node if type(node) in (int, float) else 0
        parent[key] = data.draw(st.sampled_from([
            scale + 1e-9, scale + 1e-3, scale + 0.5, scale + 1, 2 * scale, -scale,
            0, 1, -1, 1.5, 1e300, True, False, None, "x", [], {}]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.sampled_from(FUZZ_SEEDS), edits=st.integers(1, 3), data=st.data())
def test_check_measure_mutation_fuzz(tmp_path_factory, seed, edits, data):
    # mutants of valid kind-B documents exit 0, 1 or 2 with no escaped
    # exception, and every mutant that passes satisfies the definition
    doc = json.loads(_fuzz_text(seed))
    for _ in range(edits):
        _mutate(doc, data)
    path = tmp_path_factory.mktemp("fuzz") / "mutant.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    # an entry of 1e300 overflows the Gram and product checks to inf or
    # NaN, which fails them without a NumPy RuntimeWarning
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.run_cli(["check-measure", str(path)])
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code == 0:
        closure, gap = _definition_gaps(doc)
        # the slack covers round-off between the two summation orders
        assert closure <= TAU_ALG + 1e-12 and gap <= TAU_DOC + 1e-12


def test_report_json_and_text(capsys, tmp_path):
    out_json = tmp_path / "agg.json"
    code, _, _ = run(capsys, "report", "--out", str(out_json),
                     "--kinds", "a", "--seed", "1", "--count", "2")
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert doc["pass"] is True and len(doc["reports"]) == 2
    out_text = tmp_path / "agg.txt"
    code, _, _ = run(capsys, "report", "--out", str(out_text),
                     "--format", "text", "--kinds", "c", "--seed", "1",
                     "--count", "1")
    assert code == 0
    assert "0 failed" in out_text.read_text()


def test_report_byte_identical(capsys, tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for p in (p1, p2):
        code, _, _ = run(capsys, "report", "--out", str(p),
                         "--kinds", "a,b,c,d", "--seed", "5", "--count", "2")
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_fuzz_smoke(capsys):
    code, out, _ = run(capsys, "fuzz", "--kinds", "a", "--seconds", "0.2",
                       "--seed", "0")
    assert code == 0
    assert "fuzz:" in out


def test_fuzz_prints_failing_reports_without_their_timing(capsys, monkeypatch):
    # fuzz has no --timing flag, so a failing report reads wall_ms 0 and
    # two runs over the same seeds print the same report lines
    def failing(scenario):
        return harness.VerificationReport(
            scenario=scenario.scenario_id,
            checks=(harness.CheckEntry("forced", 1.0, 0.5),), wall_ms=7)

    monkeypatch.setitem(harness.VERIFIERS, "A", failing)
    code, out, _ = run(capsys, "fuzz", "--kinds", "a", "--seconds", "0.05",
                       "--seed", "0")
    assert code == 1
    reports = [line for line in out.splitlines() if line.startswith("{")]
    assert reports and all('"wall_ms": 0' in line for line in reports)


def test_fuzz_rejects_unknown_kind(capsys):
    code, _, err = run(capsys, "fuzz", "--kinds", "q", "--seconds", "0.1")
    assert code == 2
    assert "unknown kind" in err
    # report parses --kinds the same way
    code, _, err = run(capsys, "report", "--out", "unused.json", "--kinds", "q")
    assert code == 2
    assert "argument --kinds: unknown kind 'q'" in err


def test_fuzz_faults_below_the_least_h_cap_is_a_usage_error(capsys):
    code, out, err = run(capsys, "fuzz", "--faults", "--caps", "h=1",
                         "--seconds", "1")
    assert code == 2
    assert "argument --faults: needs a dim H cap of at least 2, got h=1" in err
    assert out == ""
    # without --faults the same cap runs every kind
    code, out, _ = run(capsys, "fuzz", "--caps", "h=1", "--seconds", "0.2")
    assert code == 0 and "0 failed" in out
    code, out, _ = run(capsys, "fuzz", "--kinds", "d", "--faults", "--caps",
                       "h=2", "--seconds", "0.5")
    assert code == 0 and "0 failed" in out


def test_check_measure_unequal_atom_dims_no_traceback(tmp_path):
    # one 2x2 and one 3x3 atom: rejected as an invalid document, not a crash
    doc = {
        "space": {"kind": "finite", "labels": [0, 1]},
        "atoms": [[0, serialize.matrix_to_doc(np.diag([1.0, 0.0]))],
                  [1, serialize.matrix_to_doc(np.diag([0.0, 1.0, 0.0]))]],
        "total": serialize.matrix_to_doc(np.eye(2)),
    }
    path = tmp_path / "mixed.json"
    serialize.dump(doc, path)
    proc = subprocess.run(
        [sys.executable, "-m", "specmeas.cli", "check-measure", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "document[InvalidDocument]" in proc.stderr


def test_check_measure_rejects_an_entry_beyond_float_range(tmp_path):
    # 10**400 is a valid JSON number, but no float can hold it
    doc = {
        "space": {"kind": "finite", "labels": [0]},
        "atoms": [[0, {"rows": 1, "cols": 1, "data": [[10**400, 0]]}]],
        "total": {"rows": 1, "cols": 1, "data": [[1, 0]]},
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "specmeas.cli", "check-measure", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "document[InvalidDocument]" in proc.stderr


def test_check_measure_rejects_non_orthonormal_w1_basis(capsys, tmp_path):
    # basis and images both scaled by 2: every stored map is unchanged as a
    # set of pairs, but coordinates read off the basis would be off by 4
    doc = serialize.nnsm_to_doc(harness.gen_scenario("B", 3).payload["oracle"])
    for mat in doc["w1"]["basis"] + [img for _, imgs in doc["atom_maps"] for img in imgs]:
        mat["data"] = [[2.0 * re, 2.0 * im] for re, im in mat["data"]]
    path = tmp_path / "scaled.json"
    serialize.dump(doc, path)
    code, _, err = run(capsys, "check-measure", str(path))
    assert code == 1
    assert "document[InvalidDocument]" in err


def test_check_measure_rejects_a_w1_without_the_identity(tmp_path):
    # one trace-orthonormal basis element (E12 + E21)/sqrt(2): the basis
    # passes the Gram test, but a von Neumann algebra holds the identity
    r = 0.5**0.5
    doc = {"space": {"kind": "finite", "labels": [0]},
           "w1": {"ambient_dim": 2, "basis": [serialize.matrix_to_doc(
               np.array([[0.0, r], [r, 0.0]]))]},
           "target_dim": 1,
           "atom_maps": [[0, [serialize.matrix_to_doc(np.eye(1))]]]}
    with pytest.raises(InvalidDocument, match="W1 does not contain the identity"):
        serialize.nnsm_from_doc(doc)
    path = tmp_path / "no-identity.json"
    serialize.dump(doc, path)
    proc = subprocess.run(
        [sys.executable, "-m", "specmeas.cli", "check-measure", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "document[InvalidDocument]" in proc.stderr


# a W1 basis entry of 1e300(1 + i) makes the Gram matrix inf - inf = NaN;
# one atom of 1e300 overflows the spectral measure's idempotence residual
NAN_GRAM_NNSM = {
    "space": {"kind": "finite", "labels": [0]},
    "w1": {"ambient_dim": 1,
           "basis": [{"rows": 1, "cols": 1, "data": [[1e300, 1e300]]}]},
    "target_dim": 1,
    "atom_maps": [[0, [{"rows": 1, "cols": 1, "data": [[1, 0]]}]]]}
HUGE_ATOM_MEASURE = {
    "space": {"kind": "finite", "labels": [0]},
    "atoms": [[0, {"rows": 1, "cols": 1, "data": [[1e300, 0]]}]],
    "total": {"rows": 1, "cols": 1, "data": [[1, 0]]}}


def test_check_measure_names_a_nan_gram_gap():
    # the NaN gap fails the Gram check itself, not a later one
    with pytest.raises(InvalidDocument,
                       match="not trace-orthonormal: its Gram matrix is nan"):
        serialize.nnsm_from_doc(NAN_GRAM_NNSM)


@pytest.mark.parametrize("doc, failing", [
    (NAN_GRAM_NNSM, "document[InvalidDocument]"),
    (HUGE_ATOM_MEASURE, "spectral-measure-invariants"),
])
def test_check_measure_overflow_fails_without_warnings(tmp_path, doc, failing):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "specmeas.cli", "check-measure", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert f"failed invariants: {failing}" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("mutation", ["label", "stack-length", "target-dim"])
def test_check_measure_rejects_bad_atom_maps_no_traceback(tmp_path, mutation):
    # an atom outside the space, or an image stack that does not map each
    # W1 basis element to a target_dim x target_dim matrix
    doc = serialize.nnsm_to_doc(harness.gen_scenario("B", 3).payload["oracle"])
    if mutation == "label":
        doc["atom_maps"][0][0] = 99
    elif mutation == "stack-length":
        doc["atom_maps"][0][1] = doc["atom_maps"][0][1][:-1]
    else:
        doc["target_dim"] += 1
    path = tmp_path / f"{mutation}.json"
    serialize.dump(doc, path)
    proc = subprocess.run(
        [sys.executable, "-m", "specmeas.cli", "check-measure", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "document[InvalidDocument]" in proc.stderr


def _rejected_with_a_document_row(capsys, path):
    """check-measure exits 1 on ``path`` with one document[InvalidDocument]
    row and no traceback."""
    code, out, err = run(capsys, "check-measure", str(path))
    assert code == 1 and "Traceback" not in err
    assert [c["name"] for c in _strict_json(out)["checks"]] == [
        "document[InvalidDocument]"]


def _one_point_doc(kind, space, label=0):
    """A one-atom measure or NNSM document on ``space``, over W1 = C."""
    one = serialize.matrix_to_doc(np.eye(1))
    if kind == "measure":
        return {"space": space, "atoms": [[label, one]], "total": one}
    return {"space": space, "w1": {"ambient_dim": 1, "basis": [one]},
            "target_dim": 1, "atom_maps": [[label, [one]]]}


@pytest.mark.parametrize("kind", ["measure", "nnsm"])
@pytest.mark.parametrize("labels", ["ab", {"a": 1}, 7, None])
def test_space_labels_that_are_no_json_array_are_an_invalid_document(
        capsys, tmp_path, kind, labels):
    # a string or an object would read as the points it iterates over
    doc = _one_point_doc(kind, {"kind": "finite", "labels": labels}, label="a")
    read = serialize.measure_from_doc if kind == "measure" else serialize.nnsm_from_doc
    with pytest.raises(InvalidDocument, match="space labels must be a JSON array"):
        read(doc)
    serialize.dump(doc, tmp_path / "labels.json")
    _rejected_with_a_document_row(capsys, tmp_path / "labels.json")


@pytest.mark.parametrize("kind", ["measure", "nnsm"])
@pytest.mark.parametrize("case", ["point-without-atom", "past-horizon", "huge-horizon"])
def test_a_document_lists_one_atom_per_point(capsys, tmp_path, kind, case):
    # a point with no atom, a label past a countable horizon and one atom on
    # 10**12 points are rejected before any per-point array is allocated;
    # the NNSM claims k = 1500, where one zero map would be 36 MB
    doc = _one_point_doc(kind, {
        "point-without-atom": {"kind": "finite", "labels": [0, 1]},
        "past-horizon": {"kind": "countable", "horizon": 1},
        "huge-horizon": {"kind": "countable", "horizon": 10**12}}[case],
        label=5 if case == "past-horizon" else 0)
    if kind == "nnsm":
        doc["target_dim"] = 1500
    read = serialize.measure_from_doc if kind == "measure" else serialize.nnsm_from_doc
    tracemalloc.start()
    try:
        with pytest.raises(InvalidDocument, match="one atom per point|not in the space"):
            read(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    serialize.dump(doc, tmp_path / f"{case}.json")
    _rejected_with_a_document_row(capsys, tmp_path / f"{case}.json")

import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from specmeas import cli, harness, measure, serialize
from specmeas.errors import InvalidDocument
from specmeas.harness import Caps


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


def test_check_measure_good_and_bad(capsys, tmp_path):
    space = measure.DiscreteSpace(labels=(0, 1))
    e = measure.SpectralMeasure(
        space, (0, 1),
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
        measure.DiscreteSpace(labels=(0, 1)), (0, 1),
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
    )
    doc = serialize.measure_to_doc(e)
    doc["atoms"].insert(0, [0, serialize.matrix_to_doc(5.0 * np.ones((2, 2)))])
    with pytest.raises(InvalidDocument, match="repeated atom labels 0"):
        serialize.measure_from_doc(doc)
    path = tmp_path / "repeated.json"
    serialize.dump(doc, path)
    _check_rejected(capsys, path)


@pytest.mark.parametrize("space, label", [
    ({"kind": "finite", "labels": [0, 1]}, 5),
    ({"kind": "countable", "horizon": 4}, -1),
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
    # M(X)(1) of an NNSM without atoms is 0, not the identity
    doc = serialize.nnsm_to_doc(harness.gen_scenario("B", 3).payload["oracle"])
    doc["atom_maps"] = []
    m, resid = serialize.nnsm_from_doc(doc)
    assert m.images.shape == (0, m.w1.dim, doc["target_dim"], doc["target_dim"])
    assert resid == pytest.approx(np.sqrt(doc["target_dim"]))
    path = tmp_path / "empty.json"
    serialize.dump(doc, path)
    code, out, err = run(capsys, "check-measure", str(path))
    assert code == 1
    assert "failed invariants: nnsm-invariants" in err and "Traceback" not in err


def test_an_nnsm_without_atoms_is_checked_without_k_by_k_arrays():
    # a 160-byte document that claims a large target space: with no atoms
    # M(X)(1) = 0, so its distance sqrt(k) from the identity needs no
    # k x k matrix (one complex 1500 x 1500 array is 36 MB)
    k = 1500
    doc = {"space": {"kind": "finite", "labels": [0]},
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
    doc["atom_maps"].insert(0, [label, scaled])
    with pytest.raises(InvalidDocument, match=f"repeated atom labels {label!r}"):
        serialize.nnsm_from_doc(doc)
    path = tmp_path / "repeated.json"
    serialize.dump(doc, path)
    _check_rejected(capsys, path)


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

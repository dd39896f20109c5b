import importlib.util
import sys
from pathlib import Path

from specmeas.harness import CheckEntry, VerificationReport

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _failing(scenario_id):
    bad = CheckEntry(name="represent[F0]", residual=1.0, tol=0.5)
    return VerificationReport(scenario=scenario_id, checks=(bad,))


def test_round_trip_demo_exit_code(tmp_path, monkeypatch, capsys):
    demo = _load("round_trip_demo")
    argv = ["round_trip_demo.py", "--out", str(tmp_path / "measure.json")]
    monkeypatch.setattr(sys, "argv", argv)
    assert demo.main() == 0
    with monkeypatch.context() as m:
        m.setattr(demo, "verify_theorem_b",
                  lambda scenario: _failing(scenario.scenario_id))
        assert demo.main() == 1
    assert "FAIL represent[F0]" in capsys.readouterr().out
    monkeypatch.setattr(demo, "check_measure_file",
                        lambda path: _failing(f"check-measure:{path}"))
    assert demo.main() == 1

"""Guard: every tolerance, floor and magnitude of ``src/specmeas`` is named
in ``tolerances.py``.  No other module holds an exponent-form float
literal (1e-8, 2.5E3); plain literals such as 0.5 or 2.0 are arithmetic."""

import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "specmeas"


def test_exponent_form_literals_live_in_tolerances():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        with path.open("rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                text = tok.string.lower()
                if (tok.type == tokenize.NUMBER and "e" in text
                        and not text.startswith("0x")):
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert not found, found

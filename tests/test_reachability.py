"""Guard: no public API of ``specmeas`` is reached only from tests.

Every public module-level function or class, and every public method, in
``src/specmeas`` must be named somewhere in ``src/``, ``scripts/`` or
``perfbench/`` outside its own definition: as a name, an attribute, an
imported name or in a string that is a whole dotted name, as
``perfbench/tracing.py``'s ``TRACED`` entries are (it looks functions up by
dotted name); prose strings name nothing.  Names that only tests need stay
on ``ALLOWED`` with a reason.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "specmeas"
SEARCHED = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")

# "<module>.<name>" or "<module>.<Class>.<method>" -> why it stays
ALLOWED = {
    "linalg.SpectralDecomposition.validate":
        "test oracle for eig_hermitian's resolution of the identity",
    "linalg.SpectralDecomposition.reconstruct":
        "test oracle: sum of eigenvalue times projection rebuilds the input",
    "algebra.CharacterAtlas.reconstruct":
        "test oracle: the joint eigenvalues rebuild every generator",
    "algebra.ProjectionFamily.validate":
        "test oracle for sampled and assembled projection families",
    "serialize.measure_to_doc":
        "writer paired with the check-measure reader; tests build documents with it",
    "harness.number_operator_scenario":
        "the number-operator scenario that the acceptance gate runs",
    "nnsm.extension_by_limit":
        "limiting-sequence oracle for extend_at in acceptance criterion 4",
    "nnsm.OperatorField.star":
        "the adjoint field F*, whose integral acceptance criterion 6 applies",
    "nnsm.OperatorField.product":
        "the product field FG, whose integral acceptance criterion 6 checks "
        "against the product of the two integrals",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DOTTED = re.compile(r"\w+(\.\w+)+\*?")


def _docstrings(tree: ast.AST) -> set:
    """ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(id(body[0].value))
    return out


def _names_used(tree: ast.AST) -> Counter:
    """How often each identifier is referenced in ``tree``."""
    docs = _docstrings(tree)
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.split(".")[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs and _DOTTED.fullmatch(node.value)):
            found.update(_IDENT.findall(node.value))
    return found


def _definitions(path: Path, tree: ast.Module):
    """(qualified name, bare name, node) of every public definition."""
    module = path.stem
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{module}.{node.name}.{item.name}", item.name, item


def _unreached() -> list:
    """Qualified names of the public definitions that nothing but their own
    body names in the searched trees."""
    paths = sorted({p for d in SEARCHED for p in d.rglob("*.py")})
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    uses = Counter()
    for tree in trees.values():
        uses.update(_names_used(tree))
    return [
        qual
        for path in sorted(PACKAGE.glob("*.py"))
        for qual, name, node in _definitions(path, trees[path])
        if uses[name] == _names_used(node)[name]
    ]


def test_public_api_is_reached_outside_tests():
    unreached = [q for q in _unreached() if q not in ALLOWED]
    assert not unreached, (
        "public names that only tests reach; delete them or add them to "
        f"ALLOWED with a reason: {unreached}"
    )


def test_allowlist_names_existing_definitions():
    defined = {q for path in PACKAGE.glob("*.py")
               for q, _, _ in _definitions(path, ast.parse(path.read_text()))}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)


def test_only_whole_dotted_name_strings_count():
    tree = ast.parse(
        'TRACED = ("nnsm.integrate*", "blocks.OperatorField.product")\n'
        'print(f"product-rule[P{i}]", "the product of the integrals")\n'
    )
    used = _names_used(tree)
    assert used["integrate"] == 1 and used["product"] == 1
    assert _names_used(ast.parse('x = "product-rule[P0]"'))["product"] == 0
    assert _names_used(ast.parse('x = "product of F and G"'))["product"] == 0

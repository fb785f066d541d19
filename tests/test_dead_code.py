"""Every public module-level function and class of the package has a user
in the package or the benchmark; what only tests call is dead code."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "derivqa"

# The paper's first evaluation; only the acceptance tests run it.
EXEMPT = {"audit_precision"}


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.name, node.name


def _referenced_names():
    names = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_definition_is_used():
    used = _referenced_names()
    unused = [f"{module}: {name}" for module, name in _public_definitions()
              if name not in used and name not in EXEMPT]
    assert unused == []

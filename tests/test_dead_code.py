"""Every public module-level function and class of the package, every public
method and property of its classes, and every value its classes store (a
dataclass field or an attribute set on `self`) has a user in the package or
the benchmark; what only tests use is dead code. Every private helper, a
module-level `_function` or a non-dunder `_method`, has a caller in the
package. The package reads no `features` attribute: `TokenNode.features` is
the benchmark's view of a token's two derivation fields."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "derivqa"

# The paper's first evaluation; only the acceptance tests run it.
EXEMPT = {"audit_precision"}

# Stored values that no code reads by name, each with the reason it stays.
EXEMPT_FIELDS = {
    "AnswerCandidate.matched":
        "a result `answer` returns to library callers; the planned `ask --explain` prints it",
}

# The class whose fields are also read through getattr, with names that string
# constants hold: load_config, validate and _fingerprint read config fields so.
GETATTR_CLASS = "PipelineConfig"

# The receiver of reads through `self` in `__post_init__`, which is no class.
CHECK_ONLY = "<__post_init__>"


def _trees(*roots):
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _package_classes():
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                yield path.name, node


def _public_definitions():
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.name, node.name


def _public_methods():
    """Public methods and properties of the package's classes."""
    for module, cls in _package_classes():
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield module, f"{cls.name}.{node.name}"


def _private_helpers():
    """Module-level `_functions` and non-dunder `_methods` of the package."""
    def private(node):
        return (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                and not (node.name.startswith("__") and node.name.endswith("__")))

    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if private(node):
                yield path.name, node.name
            elif isinstance(node, ast.ClassDef):
                yield from ((path.name, f"{node.name}.{method.name}")
                            for method in node.body if private(method))


def _referenced_names(roots=(ROOT / "src", ROOT / "bench")):
    names = set()
    for _, tree in _trees(*roots):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def _stored_fields():
    """(module, class, name) of each dataclass field, and of each attribute a
    class's methods set on `self`."""
    for module, cls in _package_classes():
        names = set()
        if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
            names.update(node.target.id for node in cls.body
                         if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name))
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                names.add(node.attr)
        for name in sorted(names):
            yield module, cls.name, name


def _annotated_class(annotation):
    """The class a parameter annotation names, or None."""
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Name):
        return annotation.id
    return None


def _attribute_reads(node, types, reads):
    """Add (receiver class, name) for each attribute read under `node`. The
    receiver class is known for `self` in a method and for a parameter with
    a class annotation, and is None for every other receiver."""
    if isinstance(node, ast.ClassDef):
        types = {**types, "self": node.name}
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        owner = types.get("self")
        types = {**types, **{a.arg: _annotated_class(a.annotation)
                             for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}}
        if owner is not None:
            # `self` keeps its class in a method, except in `__post_init__`:
            # a value read only there is kept only to be checked, not used
            types["self"] = (CHECK_ONLY if getattr(node, "name", None) == "__post_init__"
                             else owner)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        receiver = types.get(node.value.id) if isinstance(node.value, ast.Name) else None
        reads.add((receiver, node.attr))
    for child in ast.iter_child_nodes(node):
        _attribute_reads(child, types, reads)


def _unread_fields():
    """Stored values never read as an attribute of a receiver that may be
    their class, nor through getattr."""
    reads, strings = set(), set()
    for _, tree in _trees(ROOT / "src", ROOT / "bench"):
        _attribute_reads(tree, {}, reads)
        strings.update(node.value for node in ast.walk(tree)
                       if isinstance(node, ast.Constant) and isinstance(node.value, str))
    for module, cls, name in _stored_fields():
        if ((None, name) in reads or (cls, name) in reads
                or cls == GETATTR_CLASS and name in strings):
            continue
        yield module, f"{cls}.{name}"


def test_every_public_definition_is_used():
    used = _referenced_names()
    unused = [f"{module}: {name}" for module, name in _public_definitions()
              if name not in used and name not in EXEMPT]
    assert unused == []


def test_every_public_method_is_used():
    used = _referenced_names()
    unused = [f"{module}: {name}" for module, name in _public_methods()
              if name.rpartition(".")[2] not in used]
    assert unused == []


def test_every_private_helper_is_called():
    used = _referenced_names([ROOT / "src"])
    unused = [f"{module}: {name}" for module, name in _private_helpers()
              if name.rpartition(".")[2] not in used]
    assert unused == []


def test_every_stored_value_is_read():
    unread = [f"{module}: {name}" for module, name in _unread_fields()
              if name not in EXEMPT_FIELDS]
    assert unread == []


def test_the_package_reads_no_features():
    reads = [f"{path.name}:{node.lineno}" for path, tree in _trees(PACKAGE)
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "features"]
    assert reads == []


def test_every_field_exemption_is_still_needed():
    assert sorted(name for _, name in _unread_fields()) == sorted(EXEMPT_FIELDS)

"""src/sgphase holds only shipped code.

Every public module-level function and public method in the package has a
caller in src/ or perfbench/, or is package API (`sgphase.__all__`).  A
formula that only the tests need belongs in tests/reference.py.
"""

import ast
from pathlib import Path

import sgphase

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sgphase"

# public names kept in src without a caller, each with its reason
ALLOWED = {
    "quadratic_truncation_error":
        "ROADMAP item 10: the first-order corrections to the quadratic "
        "model will call it",
}


def public_definitions(path: Path):
    """(qualified name, name) of each public module-level function and
    each public method of a module-level class."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, funcs):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, funcs):
                    yield f"{node.name}.{item.name}", item.name


def referenced_names(paths) -> set[str]:
    """Every name the files read: variables, attributes, and the parts of
    string literals that are dotted names (perfbench names its spans
    "module.function" and reaches modules through importlib)."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    names.update(parts)
    return names


def test_every_public_function_has_a_shipped_caller():
    modules = sorted(PACKAGE.glob("*.py"))
    used = referenced_names(
        modules + sorted((ROOT / "perfbench").glob("*.py")))
    unused = [f"{path.stem}.{qualname}"
              for path in modules
              for qualname, name in public_definitions(path)
              if not name.startswith("_") and name not in used
              and name not in sgphase.__all__ and name not in ALLOWED]
    assert not unused, (
        f"public src names that only tests call: {unused}; move them to "
        f"tests/reference.py or delete them")
    defined = {name for path in modules
               for _, name in public_definitions(path)}
    assert set(ALLOWED) <= defined, "an allowed name no longer exists"

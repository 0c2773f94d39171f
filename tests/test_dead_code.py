"""Every top-level function and class of the package is used inside the package,
every module-level UPPER_CASE constant and every public method, property and
classmethod of a class is read there, no module imports another module's
private names, and no public function takes a private parameter."""

import ast
import re
from pathlib import Path

import polent

SOURCES = sorted(Path(polent.__file__).parent.glob("*.py"))


def _unread(names) -> list[str]:
    """module:name for each top-level name, as names(node) lists them, that no polent code reads."""
    defined, read = {}, set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue  # a re-export is not a use
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            for name in names(node):
                defined[name] = path.name
        # names in code only: docstrings are constants and comments are not parsed
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}:{name}" for name, module in defined.items() if name not in read)


def _definitions(private: bool):
    def names(node):
        is_definition = isinstance(node, (ast.FunctionDef, ast.ClassDef))
        return [node.name] if is_definition and node.name.startswith("_") == private else []
    return names


def _constants(node) -> list[str]:
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)]


def _methods(node) -> list[str]:
    body = node.body if isinstance(node, ast.ClassDef) else []
    return [f.name for f in body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]


def test_every_public_definition_is_used_by_polent_code():
    unused = _unread(_definitions(private=False))
    assert not unused, f"public definitions no polent code uses: {unused}"


def test_every_private_definition_is_used_by_polent_code():
    # a helper kept in the package only for the tests is an oracle: it belongs under tests/
    unused = _unread(_definitions(private=True))
    assert not unused, f"private definitions no polent code uses: {unused}"


def test_every_constant_is_read_by_polent_code():
    # a constant that no code reads is a setting that sets nothing
    unread = _unread(_constants)
    assert not unread, f"constants no polent code reads: {unread}"


def test_every_public_method_is_read_by_polent_code():
    # by name, as methods, properties and classmethods are read as attributes:
    # one that only the tests call is a test helper, and belongs under tests/
    unread = _unread(_methods)
    assert not unread, f"public methods no polent code reads: {unread}"


def test_no_module_imports_a_private_name():
    imports = sorted(
        f"{path.name}: {alias.name} from {'.' * node.level}{node.module or ''}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("polent"))
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert not imports, f"private names imported across polent modules: {imports}"


def test_no_public_function_takes_a_private_parameter():
    private = sorted(
        f"{path.name}: {node.name}({arg.arg})"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                    node.args.vararg, node.args.kwarg)
        if arg is not None and arg.arg.startswith("_")
    )
    assert not private, f"public functions with private parameters: {private}"

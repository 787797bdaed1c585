"""Every name a library module imports is used in that module, and every
private module-level helper is used somewhere in the package.

An AST scan of each `tatevec` module except the package `__init__`, which
re-exports what it imports.  A name counts as used when it is read
anywhere in the module, as a bare name or as the root of an attribute
chain, in code or in a string annotation.  A last test checks that a fresh
`import tatevec` loads only the library's core modules.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import tatevec

SRC = pathlib.Path(tatevec.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "Matrix" or "Optional[Matrix]"
            try:
                used |= _used(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used)
    assert unused == []


def test_no_unused_private_helpers():
    # a module-level _name function or class must be read somewhere in the
    # package outside its own definition
    trees = {p: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    unused = []
    for path in MODULES:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not node.name.startswith("_"):
                continue
            readers = [t for p, t in trees.items() if p != path]
            readers += [stmt for stmt in trees[path].body if stmt is not node]
            if not any(node.name in _used(t) for t in readers):
                unused.append(f"{path.stem}.{node.name} (line {node.lineno})")
    assert unused == []


def test_no_imports_inside_functions():
    # every import of the package sits at module level, where it is done
    # once and seen by the unused-import scan
    nested = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [
                    f"{path.stem}.{fn.name} (line {node.lineno})"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert nested == []


def test_one_json_writer():
    # the package calls json.dumps once, in serialize.dumps; each call is
    # named by the innermost function around it
    callers = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split('.')[0]}.{node.name}"
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            callers.extend(f"{where}: imports {a.name}" for a in node.names if a.name == "dumps")
        f = node.func if isinstance(node, ast.Call) else None
        if isinstance(f, ast.Attribute) and f.attr == "dumps" and isinstance(f.value, ast.Name) and f.value.id == "json":
            callers.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert callers == ["serialize.dumps"]


def test_import_tatevec_stays_lean():
    # a fresh `import tatevec` loads the modules the package re-exports
    # from, and neither the document, command-line, suite and generator
    # modules nor numpy.ma: each fresh interpreter that imports the
    # library pays their import and compile time
    code = "import sys, tatevec; print(sorted(m for m in sys.modules if m.startswith('tatevec')), 'numpy.ma' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    core = ["bidirected", "duality", "exactla", "spaces", "splitting", "tensor"]
    assert (run.returncode, run.stdout) == (0, f"{['tatevec'] + [f'tatevec.{m}' for m in core]} False\n")

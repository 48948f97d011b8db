"""The package holds only code that runs: every top-level function and
class in src/convlab is referenced from src/ or bench/.  Code that only
the tests call (scalar references, derivations) lives in
tests/reference.py instead.  The modules a lineworld run loads import no
numpy suite at module level, and a bare package import loads none of
its modules."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "convlab").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


def _module(node: ast.ImportFrom):
    """The convlab module an import reads from: its stem, "" for the
    package itself, None outside the package."""
    name = node.module or ""
    if node.level == 0:
        if name != "convlab" and not name.startswith("convlab."):
            return None
        name = name[len("convlab"):].lstrip(".")
    return name


def referenced_names():
    """(module, name) for every definition that src/ or bench/ refers to:
    a module using its own name, `from <module> import name`, an attribute
    `<alias>.name` of an imported module, and a ("module", "name") string
    pair in bench/, where bench/layers.py names the functions it wraps."""
    refs = set()
    for path in SRC + BENCH:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}  # local name -> module stem, from `from convlab import x as y`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _module(node) is not None:
                for alias in node.names:
                    if _module(node):
                        refs.add((_module(node), alias.name))
                    else:
                        aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and path in SRC:
                refs.add((path.stem, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                refs.add((aliases[node.value.id], node.attr))
            elif (path in BENCH and isinstance(node, ast.Tuple) and len(node.elts) == 2
                  and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                          for e in node.elts)):
                refs.add(tuple(e.value for e in node.elts))
    return refs


def test_every_top_level_definition_is_referenced():
    used = referenced_names()
    unused = [f"{path.stem}.{node.name}" for path in SRC
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and (path.stem, node.name) not in used]
    assert SRC and not unused, (f"defined in src/convlab but referenced from neither src/ "
                                f"nor bench/ (move test-only code to tests/reference.py): "
                                f"{unused}")


# what a lineworld run loads, and the numpy modules none of them may import at module level
LIGHT = ("__init__", "framework", "lineworld", "cli", "checks")
HEAVY = {"numpy", "rand", "gaussian", "perrin", "predsel"}


def module_level_imports(source: str):
    """(line, module) for each import that runs when the source is imported:
    all but those inside a function.  A convlab module is named by its stem,
    any other by its top-level package."""
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and _module(node) is None:
            names = [node.module]
        elif isinstance(node, ast.ImportFrom):
            names = [_module(node)] if _module(node) else [a.name for a in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            yield node.lineno, parts[1] if parts[0] == "convlab" and len(parts) > 1 else parts[0]


def test_guard_sees_module_level_imports_only():
    source = ("import numpy.linalg\nfrom . import perrin as pr\nfrom .rand import substream\n"
              "from convlab import gaussian\nif True:\n    import convlab.predsel\n"
              "def f():\n    import numpy\n    from . import perrin\n")
    assert sorted(module_level_imports(source)) == [
        (1, "numpy"), (2, "perrin"), (3, "rand"), (4, "gaussian"), (6, "predsel")]


def test_lineworld_path_imports_no_numpy_suite_at_module_level():
    paths = [ROOT / "src" / "convlab" / f"{stem}.py" for stem in LIGHT]
    found = [f"{path.name}:{line} imports {name}" for path in paths
             for line, name in module_level_imports(path.read_text(encoding="utf-8"))
             if name in HEAVY]
    assert not found, f"the lineworld path would load numpy: {found}"


def test_bare_package_import_loads_no_submodule():
    # the package binds only __version__: importing it compiles and loads nothing else
    script = ("import json, sys, convlab; "
              "print(json.dumps(sorted(m for m in sys.modules if m.startswith('convlab.'))))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert json.loads(done.stdout) == []

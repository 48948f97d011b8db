"""The package holds only code that runs: every top-level function and
class in src/convlab is referenced from src/ or bench/.  Code that only
the tests call (scalar references, derivations) lives in
tests/reference.py instead."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "convlab").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


def referenced_names():
    """Every identifier that src/ or bench/ reads, imports or (bench only,
    where bench/layers.py names the functions it wraps) spells as a string."""
    names = set()
    for path in SRC + BENCH:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif (path in BENCH and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                names.add(node.value)
    return names


def test_every_top_level_definition_is_referenced():
    used = referenced_names()
    unused = [f"{path.stem}.{node.name}" for path in SRC
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used]
    assert SRC and not unused, (f"defined in src/convlab but referenced from neither src/ "
                                f"nor bench/ (move test-only code to tests/reference.py): "
                                f"{unused}")

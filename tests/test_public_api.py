"""Every public function, class and method has a caller outside the tests.

The scan is textual: a public top-level function or class of
``src/structprop`` (or a public method of such a class) has a caller when
its name appears as a whole word in library or benchmark code other than
its own definition.  Test files never count as callers.  The only names
allowed to have none are the oracles in ``ALLOWED``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "structprop"
PERFBENCH = ROOT / "perfbench"

# Oracles: the tests compare the library's output against them, and nothing
# in the library needs to call them.
ALLOWED = {
    "models_equal": "oracle for the MPS and sidecar round-trip tests",
    "witness_satisfies": "oracle for the planted-witness tests of synth",
}


def _sources() -> dict[Path, list[str]]:
    paths = sorted(SRC.rglob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    return {
        path: path.read_text(encoding="utf-8").splitlines()
        for path in paths
        if not path.name.startswith("test_")
    }


def _public_definitions(path: Path, lines: list[str]):
    """Public top-level functions and classes, and the classes' public methods."""
    for node in ast.parse("\n".join(lines)).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item


def _has_caller(path: Path, node, sources) -> bool:
    word = re.compile(rf"\b{re.escape(node.name)}\b")
    for other, lines in sources.items():
        for lineno, line in enumerate(lines, start=1):
            if other == path and node.lineno <= lineno <= node.end_lineno:
                continue  # the definition itself
            if word.search(line):
                return True
    return False


def test_only_oracles_lack_a_caller_outside_tests():
    sources = _sources()
    uncalled = {
        node.name: f"{path.relative_to(ROOT)}:{node.lineno}"
        for path, lines in sources.items()
        if SRC in path.parents
        for node in _public_definitions(path, lines)
        if not _has_caller(path, node, sources)
    }
    assert sorted(uncalled) == sorted(ALLOWED), uncalled

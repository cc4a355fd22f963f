"""Every public name and every option has a caller outside the tests.

The name scan is textual: a public top-level function or class of
``src/structprop`` (or a public method of such a class) has a caller when
its name appears as a whole word in library or benchmark code other than
its own definition.  The only names allowed to have none are the oracles in
``ALLOWED``.

The option scan reads calls: a defaulted parameter, or a field of a
``*Config`` dataclass, is set when some call of that name in library or
benchmark code passes it by keyword or by position.  The only options
allowed to be unset are those in ``KEPT_OPTIONS``.  Test files never count
as callers.
"""

import ast
import math
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


# Options that no library or benchmark code sets, kept each for its reason.
KEPT_OPTIONS = {
    "main(argv=)": "lets the tests drive the command line in-process",
    "PropagatorConfig.max_fixpoint_rounds": (
        "perfbench reads it; ROADMAP item 8 turns it into a module constant"
    ),
}


def _defaulted(func: ast.FunctionDef, skip: int):
    """(position or None, name) of each parameter of ``func`` with a default."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], start=first):
        yield index - skip, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _options(tree: ast.Module):
    """(label, callee, position or None, name) of every settable option.

    The options are the defaulted parameters of public functions, of public
    methods and of ``__init__`` of public classes, plus every field of a
    public ``*Config`` dataclass.  ``callee`` is the name a call uses.
    """
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            for position, name in _defaulted(node, 0):
                yield f"{node.name}({name}=)", node.name, position, name
        else:
            if node.name.endswith("Config") and _is_dataclass(node):
                fields = [
                    item.target.id for item in node.body if isinstance(item, ast.AnnAssign)
                ]
                for position, name in enumerate(fields):
                    yield f"{node.name}.{name}", node.name, position, name
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in item.decorator_list)
                if item.name == "__init__":
                    for position, name in _defaulted(item, 1):
                        yield f"{node.name}({name}=)", node.name, position, name
                elif not item.name.startswith("_"):
                    for position, name in _defaulted(item, 0 if static else 1):
                        label = f"{node.name}.{item.name}({name}=)"
                        yield label, item.name, position, name


def _calls(sources) -> dict[str, list[tuple[float, set[str] | None]]]:
    """Per callee name: (positional argument count, keyword names) of each call.

    A ``*args`` argument counts as any number of positions, and a
    ``**kwargs`` argument as every keyword (``None``).
    """
    calls: dict[str, list] = {}
    for lines in sources.values():
        for node in ast.walk(ast.parse("\n".join(lines))):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            if callee is None:
                continue
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {kw.arg for kw in node.keywords}
            calls.setdefault(callee, []).append(
                (math.inf if starred else len(node.args),
                 None if None in keywords else keywords)
            )
    return calls


def test_every_option_is_set_outside_tests():
    sources = _sources()
    calls = _calls(sources)

    def is_set(callee: str, position, name: str) -> bool:
        for count, keywords in calls.get(callee, ()):
            if keywords is None or name in keywords:
                return True
            if position is not None and count > position:
                return True
        return False

    unset = {
        label: str(path.relative_to(ROOT))
        for path, lines in sources.items()
        if SRC in path.parents
        for label, callee, position, name in _options(ast.parse("\n".join(lines)))
        if not is_set(callee, position, name)
    }
    assert sorted(unset) == sorted(KEPT_OPTIONS), unset

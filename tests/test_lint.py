"""Dead imports and dead locals, checked where the builder runs.

CI runs ``ruff check --select F401,F841`` over the same paths; ruff and
pyflakes are not installed in the build sandbox, so this is the AST pass
PRs 13-14 ran by hand, kept as a tier-1 test (ROADMAP 5e).  It is a
conservative subset of the two rules: an import counts as used when its
bound name is loaded anywhere in the module or listed in ``__all__``; a
local counts as dead when a function assigns a plain name (not a tuple
target, not ``_``-prefixed) and never reads it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "repro"

#: The paths CI's ``F401,F841`` gate covers: all of ``src/repro``.
LINTED = sorted(SRC.rglob("*.py"))

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _loaded_names(tree: ast.AST) -> set:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def _exported(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names |= {
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            }
    return names


def unused_imports(source: str) -> list:
    """``F401``: names bound by an import and never read or exported."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _loaded_names(tree) | _exported(tree)
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*" and bound not in used:
                problems.append(f"line {node.lineno}: {bound!r} imported but unused")
    return problems


def _own_nodes(function: ast.AST):
    """The function's nodes, not descending into nested scopes' bodies."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(source: str) -> list:
    """``F841``: plain-name locals a function assigns and never reads."""
    tree = ast.parse(source)
    problems = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # A closure may read the name: count loads in the whole subtree.
        read = _loaded_names(function)
        declared = set()
        stored = {}
        for node in _own_nodes(function):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared |= set(node.names)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        stored.setdefault(target.id, node.lineno)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    stored.setdefault(node.target.id, node.lineno)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                stored.setdefault(node.name, node.lineno)
        for name, lineno in sorted(stored.items(), key=lambda item: item[1]):
            if name not in read and name not in declared and not name.startswith("_"):
                problems.append(
                    f"line {lineno}: local {name!r} assigned but never used"
                )
    return problems


@pytest.mark.parametrize(
    "path", LINTED, ids=[str(path.relative_to(SRC)) for path in LINTED]
)
def test_no_dead_imports_or_locals(path):
    source = path.read_text(encoding="utf-8")
    problems = unused_imports(source) + unused_locals(source)
    where = path.relative_to(SRC.parent.parent)
    assert not problems, f"{where}:\n" + "\n".join(problems)


def test_the_pass_catches_what_it_claims_to():
    source = (
        "import json\n"
        "import os\n"
        "from dataclasses import asdict as _asdict, dataclass\n"
        "__all__ = ['dataclass']\n"
        "def f(x):\n"
        "    dead = x + 1\n"
        "    live = x + 2\n"
        "    a, b = x\n"
        "    return os.path.join(live)\n"
    )
    assert unused_imports(source) == [
        "line 1: 'json' imported but unused",
        "line 3: '_asdict' imported but unused",
    ]
    assert unused_locals(source) == ["line 6: local 'dead' assigned but never used"]

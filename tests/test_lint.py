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


# --------------------------------------------------- one fault-DSL reading

#: The interpreter every plane calls for the message-level event kinds.
INTERPRETER = SRC / "faults" / "messages.py"
#: Where the kinds are defined; it derives the monitor's liar windows from
#: ``ByzantineReplies`` but realises no event.
DEFINITIONS = SRC / "faults" / "schedule.py"


def _message_kinds() -> set:
    tree = ast.parse(INTERPRETER.read_text(encoding="utf-8"))
    return {
        node.name[len("_tap_"):]
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_tap_")
    }


def _names_in(node: ast.AST) -> set:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def kind_dispatch(source: str, kinds: set) -> list:
    """Places that branch on a message-level event class: ``isinstance``,
    ``type(x) is/== Kind`` and ``_apply_<Kind>`` handlers."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and _names_in(node.args[1]) & kinds
        ):
            named = _names_in(node.args[1]) & kinds
            found.append(f"line {node.lineno}: isinstance on {sorted(named)}")
        elif isinstance(node, ast.Compare) and any(
            isinstance(side, ast.Call)
            and isinstance(side.func, ast.Name)
            and side.func.id == "type"
            for side in [node.left, *node.comparators]
        ):
            named = set().union(*(_names_in(side) for side in [node.left, *node.comparators]))
            if named & kinds:
                found.append(f"line {node.lineno}: type() compared with {sorted(named & kinds)}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith(
            "_apply_"
        ):
            if node.name[len("_apply_"):] in kinds:
                found.append(f"line {node.lineno}: handler {node.name}")
    return found


def test_no_module_outside_the_interpreter_dispatches_on_a_message_kind():
    kinds = _message_kinds()
    assert len(kinds) == 8, sorted(kinds)
    problems = [
        f"{path.relative_to(SRC)} {problem}"
        for path in LINTED
        if path not in (INTERPRETER, DEFINITIONS)
        for problem in kind_dispatch(path.read_text(encoding="utf-8"), kinds)
    ]
    assert not problems, "a second reading of the message kinds:\n" + "\n".join(problems)


def _tap_chaining_loops(source: str) -> list:
    """``for tap in taps: for msg in deliveries: tap(...)`` — a loop whose
    inner loop calls the outer loop's variable."""
    loops = []
    for outer in ast.walk(ast.parse(source)):
        if not (isinstance(outer, ast.For) and isinstance(outer.target, ast.Name)):
            continue
        for inner in ast.walk(outer):
            if inner is not outer and isinstance(inner, ast.For) and any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == outer.target.id
                for call in ast.walk(inner)
            ):
                loops.append(outer.lineno)
                break
    return loops


def test_the_tap_chaining_loop_exists_once():
    where = [
        (str(path.relative_to(SRC)), line)
        for path in LINTED
        for line in _tap_chaining_loops(path.read_text(encoding="utf-8"))
    ]
    assert len(where) == 1 and where[0][0] == "network/transport.py", where


def test_one_message_fault_counter_set():
    from dataclasses import fields

    from repro.faults.messages import MessageFaultStats
    from repro.runtime.proxy import ProxyStats

    counters = {field.name for field in fields(MessageFaultStats)}
    owners = [
        f"{path.relative_to(SRC)}:{cls.name}"
        for path in LINTED
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        and any(
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id in counters
            for stmt in cls.body
        )
    ]
    assert owners == ["faults/messages.py:MessageFaultStats"]
    # The relay counts only what the relay itself does.
    relay = {field.name for field in fields(ProxyStats)}
    assert relay == {"relayed", "delayed"} | {n for n in relay if n.startswith("dropped_")}


def test_the_reading_checks_catch_what_they_claim_to():
    source = (
        "def _apply_MessageTamper(self, event): pass\n"
        "def f(event, taps, deliveries):\n"
        "    if isinstance(event, (LinkFlap, schedule.MessageReplay)): pass\n"
        "    if type(event) is DelayAttack: pass\n"
        "    if isinstance(event, LinkFlap): pass\n"
        "    for tap in taps:\n"
        "        for msg in deliveries:\n"
        "            tap(msg)\n"
    )
    kinds = {"MessageTamper", "MessageReplay", "DelayAttack"}
    assert kind_dispatch(source, kinds) == [
        "line 1: handler _apply_MessageTamper",
        "line 3: isinstance on ['MessageReplay']",
        "line 4: type() compared with ['DelayAttack']",
    ]
    assert _tap_chaining_loops(source) == [6]

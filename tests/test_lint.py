"""AST checks ruff does not cover or may not be installed to run.

* Dead imports and dead locals.  CI runs ``ruff check --select
  F401,F841`` over the same paths; this is a conservative subset of the
  two rules, kept as a tier-1 test for hosts without ruff or pyflakes:
  an import counts as used when its bound name is loaded anywhere in the
  module or listed in ``__all__``; a local counts as dead when a
  function assigns a plain name (not a tuple target, not
  ``_``-prefixed) and never reads it.
* Name resolution, which no type checker here provides: a read of
  ``self.x`` that no method, ``__init__``, class body or in-repo base
  of the class assigns — the field deleted from ``__init__`` while a
  read is left behind.  Checked in ``core/``, ``kernel/``,
  ``service/server.py`` and ``service/hardening.py``; a class with a
  base from outside the repo is skipped (its attributes are unknown).
* One reading of the fault DSL's message events.
"""

from __future__ import annotations

import ast
import functools
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


#: Bases that add no instance attributes a subclass could read.
_EMPTY_BASES = {"object", "ABC", "Generic", "Protocol"}


def _base_name(base: ast.expr) -> str:
    if isinstance(base, ast.Subscript):  # Generic[T]
        base = base.value
    if isinstance(base, ast.Attribute):
        return base.attr
    return base.id if isinstance(base, ast.Name) else ""


def _self_attr(node: ast.AST, self_name: str):
    """``x`` when ``node`` is ``<self>.x``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == self_name
    ):
        return node.attr
    return None


def _methods(cls: ast.ClassDef):
    """``(method, name of its self parameter)`` for each instance method."""
    for item in cls.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        decorators = {_base_name(d) for d in item.decorator_list}
        if "staticmethod" in decorators or "classmethod" in decorators:
            continue
        if item.args.args:
            yield item, item.args.args[0].arg


def _method_nodes(method: ast.AST):
    """A method's nodes, closures included, nested classes excluded."""
    stack = list(ast.iter_child_nodes(method))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, ast.ClassDef):
            stack.extend(ast.iter_child_nodes(node))


def _reads_and_stores(method: ast.AST, self_name: str):
    """``(node, attr, is_read)`` for every ``<self>.attr`` in a method; an
    augmented assignment's target is a read (``x += 1`` needs ``x``)."""
    nodes = list(_method_nodes(method))
    augmented = {id(node.target) for node in nodes if isinstance(node, ast.AugAssign)}
    for node in nodes:
        attr = _self_attr(node, self_name)
        if attr is not None:
            yield node, attr, isinstance(node.ctx, ast.Load) or id(node) in augmented


def _own_attributes(cls: ast.ClassDef) -> set:
    """Every name the class body or one of its methods binds on the class
    or on ``self``."""
    names = set()
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(item.name)
        elif isinstance(item, (ast.Assign, ast.AnnAssign)):
            targets = item.targets if isinstance(item, ast.Assign) else [item.target]
            for target in targets:
                names |= {
                    node.id for node in ast.walk(target) if isinstance(node, ast.Name)
                }
    for method, self_name in _methods(cls):
        names |= {
            attr
            for node, attr, is_read in _reads_and_stores(method, self_name)
            if not is_read and isinstance(node.ctx, ast.Store)
        }
        for node in _method_nodes(method):
            if (
                isinstance(node, ast.Call)
                and _base_name(node.func) in ("setattr", "__setattr__")
                and len(node.args) >= 2
                and isinstance(node.args[-2], ast.Constant)
                and any(
                    isinstance(arg, ast.Name) and arg.id == self_name
                    for arg in node.args[:-2]
                )
            ):
                names.add(node.args[-2].value)
    return names


@functools.lru_cache(maxsize=None)
def _class_index() -> dict:
    """Class name -> its ClassDefs across ``src/repro``."""
    index: dict = {}
    for path in LINTED:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                index.setdefault(node.name, []).append(node)
    return index


def _resolvable(cls: ast.ClassDef, index: dict, seen=()) -> "set | None":
    """Every attribute ``cls`` and its in-repo bases bind, or None when a
    base lies outside the repo (its attributes cannot be known)."""
    names = _own_attributes(cls)
    for base in cls.bases:
        name = _base_name(base)
        if name in _EMPTY_BASES:
            continue
        candidates = [c for c in index.get(name, []) if c not in seen and c is not cls]
        if not candidates:
            return None
        for candidate in candidates:  # same-named classes: take them all
            inherited = _resolvable(candidate, index, seen + (cls,))
            if inherited is None:
                return None
            names |= inherited
    return names


def unresolved_self_attributes(source: str, index: dict) -> list:
    """Reads of ``self.x`` that no method, ``__init__``, class body or
    in-repo base of the enclosing class assigns."""
    problems = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        known = _resolvable(cls, index)
        if known is None:
            continue
        for method, self_name in _methods(cls):
            for node, attr, is_read in _reads_and_stores(method, self_name):
                if is_read and attr not in known and not attr.startswith("__"):
                    problems.append(
                        (
                            node.lineno,
                            f"line {node.lineno}: {cls.name}.{method.name} reads "
                            f"self.{attr}, which nothing assigns",
                        )
                    )
    return [problem for _, problem in sorted(problems)]


#: Where a read of a never-assigned ``self`` attribute is checked: the
#: paper's rules, the kernel, the server and its peer-health book.
NAME_CHECKED = sorted(
    [*(SRC / "core").rglob("*.py"), *(SRC / "kernel").rglob("*.py")]
    + [SRC / "service" / "server.py", SRC / "service" / "hardening.py"]
)


@pytest.mark.parametrize(
    "path", NAME_CHECKED, ids=[str(path.relative_to(SRC)) for path in NAME_CHECKED]
)
def test_every_self_attribute_read_is_assigned(path):
    problems = unresolved_self_attributes(path.read_text(encoding="utf-8"), _class_index())
    where = path.relative_to(SRC.parent.parent)
    assert not problems, f"{where}:\n" + "\n".join(problems)


def test_the_name_check_catches_what_it_claims_to():
    source = (
        "class Base:\n"
        "    LIMIT = 3\n"
        "    def __init__(self):\n"
        "        self.kept = 1\n"
        "class Policy(Base):\n"
        "    def __init__(self):\n"
        "        super().__init__()\n"
        "        setattr(self, 'bound', 0)\n"
        "    def step(self):\n"
        "        self.later = self.kept + self.LIMIT + self.bound\n"
        "        return self.MAX_K + self.later + self.helper()\n"
        "    def helper(self):\n"
        "        self.rounds += 1\n"
        "        return self.dropped\n"
        "class Foreign(dict):\n"
        "    def get_it(self):\n"
        "        return self.anything\n"
    )
    index: dict = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            index.setdefault(node.name, []).append(node)
    assert unresolved_self_attributes(source, index) == [
        "line 11: Policy.step reads self.MAX_K, which nothing assigns",
        "line 13: Policy.helper reads self.rounds, which nothing assigns",
        "line 14: Policy.helper reads self.dropped, which nothing assigns",
    ]


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

"""Source hygiene of the ``chorc`` package, read with ``ast``: no module
imports a name it does not use, every module-level private function or
class is referenced somewhere in the package, every public one, and every
public name a module-level assignment binds, is read outside its own body
in the package or the benchmark, every ``__slots__``
entry is read somewhere in the package, every attribute a class stores is
read in the package or the benchmark, and in its own module if the class is
private, no function matches with a literal
pattern that ``re`` would look up again on every call, and no nested
function reaches itself through its closure."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import chorc

PACKAGE = Path(chorc.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
BENCH_MODULES = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_used(tree, attributes: bool) -> set:
    """Every name read, plus the strings listed in ``__all__`` and, with
    ``attributes``, every attribute name read (``module._helper``)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and attributes:
            used.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = _names_used(tree, attributes=False)
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert unused == [], f"{path.name} imports names it does not use"


def test_private_definitions_are_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    used = set().union(*(_names_used(tree, attributes=True) for tree in trees.values()))
    unreferenced = [
        f"{name}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in used
    ]
    assert unreferenced == []


#: Public definitions that nothing in the package or the benchmark reads,
#: with the reason each stays. ``format_chor``: the tests and ROADMAP item 4
#: state the print-then-parse round trip for it.
UNREAD_PUBLIC = {"lang.format_chor"}


def _looked_up(node) -> bool:
    """Whether ``node`` looks a package module up as the benchmark does:
    ``chorc()["verify"]``."""
    return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call)
            and _named(node.value.func) == "chorc")


def _imports(tree) -> set:
    """The names that ``tree``'s imports bind, and those it binds to a
    module it looks up (``m = chorc()["verify"]``)."""
    return {(alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names} | {
        target.id for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _looked_up(node.value)
        for target in node.targets if isinstance(target, ast.Name)}


def _reads(node, imported: set) -> Counter:
    """How often each name is read under ``node``: as a name, or as an
    attribute of an imported name (``lang.shape``, ``chorc.cli.main``) or a
    looked-up module (``chorc()["verify"].MUTATIONS``), not of any other
    value, so a field ``.participants`` reads no function
    ``participants``."""
    reads = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            base = sub.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in imported or _looked_up(base):
                reads[sub.attr] += 1
    return reads


def _bound(node) -> list:
    """The names a module-level statement defines: a function's or class's,
    or those an assignment binds, unpacked targets included."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name)]


def test_public_definitions_are_read():
    """A public module-level function, class or assigned name, such as a
    constant, is read outside its own body somewhere in the package or the
    benchmark: one that only the tests read goes, and its tests read what
    the code keeps."""
    trees = {path: _tree(path) for path in MODULES + BENCH_MODULES}
    reads = sum((_reads(tree, _imports(tree)) for tree in trees.values()), Counter())
    unread = [
        f"{path.stem}.{name}"
        for path in MODULES
        for node in trees[path].body
        for name in _bound(node)
        if not name.startswith("_")
        and reads[name] == _reads(node, _imports(trees[path]))[name]
    ]
    assert sorted(unread) == sorted(UNREAD_PUBLIC)


def test_bound_names_are_found():
    tree = ast.parse("""
def run(): pass
class Box: pass
LIMIT = 3
A, (B, C) = 1, (2, 3)
TABLE: dict = {}
LIMIT += 1
import os
""")
    assert [name for node in tree.body for name in _bound(node)] == [
        "run", "Box", "LIMIT", "A", "B", "C", "TABLE"]


def test_slots_are_read():
    """A slot that nothing reads, such as one a deleted cache left behind,
    is dead weight in every instance."""
    trees = [_tree(path) for path in MODULES]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "__slots__"
                                for t in node.targets)
                        and isinstance(node.value, ast.Tuple)):
                    unread += [f"{cls.name}.{elt.value}" for elt in node.value.elts
                               if not elt.value.startswith("__") and elt.value not in read]
    assert unread == []


def _named(node) -> str:
    """The name an ``ast.Name`` or the last attribute of an ``ast.Attribute``
    spells, else ""."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def _calls(node, owner=None):
    """Each call in ``node``, as (name of the class it is made in or None,
    call)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield owner, child
        yield from _calls(child, child.name if isinstance(child, ast.ClassDef) else owner)


def stored_attributes(tree) -> list:
    """Each attribute a class in ``tree`` stores, as (class, name): the
    fields of a dataclass or a ``NamedTuple``, every ``self.x`` that one of
    its methods assigns, the keyword fields of each ``interned(...)`` call,
    under the class it names (``cls`` is the class it is made in), and the
    literal name each ``object.__setattr__`` or ``_setattr`` call stores,
    under the class it is made in, else its target's name."""
    stored = []
    for owner, call in _calls(tree):
        name, args = _named(call.func), call.args
        if name == "interned" and args:
            cls = owner if _named(args[0]) == "cls" else _named(args[0])
            stored += [(cls, kw.arg) for kw in call.keywords if kw.arg]
        elif (name in ("__setattr__", "_setattr") and len(args) == 3
              and isinstance(args[1], ast.Constant)):
            stored.append((owner or _named(args[0]), args[1].value))
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if ("dataclass" in {_named(getattr(d, "func", d)) for d in cls.decorator_list}
                or "NamedTuple" in {_named(b) for b in cls.bases}):
            stored += [(cls.name, node.target.id) for node in cls.body
                       if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or not fn.args.args:
                continue
            me = fn.args.args[0].arg
            for node in ast.walk(fn):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == me):
                    stored.append((cls.name, node.attr))
    return stored


def attributes_read(tree) -> set:
    """Every attribute name read in ``tree``: as an attribute, or through
    ``getattr`` with a literal name."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and _named(node.func) == "getattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
            read.add(node.args[1].value)
    return read


def unread_attributes(trees: dict, others=()) -> list:
    """Each attribute that a class in ``trees``, module name -> tree,
    stores and that is not read where it must be, as "module.class.name":
    anywhere in ``trees`` or ``others``, and, for a private class, whose
    name starts with ``_``, in its own module, since no other module may
    reach the class."""
    read = {module: attributes_read(tree) for module, tree in trees.items()}
    anywhere = set().union(*read.values(), *map(attributes_read, others))
    return sorted({f"{module}.{cls}.{name}" for module, tree in trees.items()
                   for cls, name in stored_attributes(tree)
                   if name not in (read[module] if cls.startswith("_") else anywhere)})


def test_stored_attributes_are_read():
    """An attribute that a class in the package stores is read somewhere in
    the package or the benchmark, matched by name, and one that a private
    class stores is read in its own module: a field that only the tests,
    or only another module's same-named field, read goes, and its tests
    read what the code keeps."""
    trees = {path.stem: _tree(path) for path in MODULES}
    assert unread_attributes(trees, map(_tree, BENCH_MODULES)) == []


def test_private_fields_are_read_in_their_module():
    # _Frame stores receivers, which only another module reads, through
    # another class's field of that name; Box's count is read elsewhere.
    trees = {"chorsem": ast.parse("""
class _Frame(Interned):
    def __new__(cls, keys):
        return interned(cls, keys, layouts=(), receivers=())

    def split(self):
        return self.layouts


class Box:
    def __init__(self):
        self.count = 0
"""), "cbs": ast.parse("inter.receivers; box.count")}
    assert unread_attributes(trees) == ["chorsem._Frame.receivers"]
    assert unread_attributes(trees, [ast.parse("x.layouts")]) == ["chorsem._Frame.receivers"]
    del trees["cbs"]
    assert unread_attributes(trees) == ["chorsem.Box.count", "chorsem._Frame.receivers"]


def test_stored_attributes_are_found():
    tree = ast.parse("""
@dataclass(frozen=True)
class Record:
    text: str
    size: int = 0


class Pair(NamedTuple):
    left: int


class Box:
    kind: str

    def __init__(self, value):
        self.value, self.seen = value, False
        other.skipped = 1

    def touch(me):
        me.count += 1


class Node(Interned):
    def __new__(cls, left):
        return interned(cls, id(left), left=left, size=1)


def leaf(value):
    node = interned(Node, value, value=value)
    object.__setattr__(node, "tag", None)
    _setattr(node, name, value)
""")
    assert sorted(stored_attributes(tree)) == [
        ("Box", "count"), ("Box", "seen"), ("Box", "value"), ("Node", "left"),
        ("Node", "size"), ("Node", "value"), ("Pair", "left"), ("Record", "size"),
        ("Record", "text"), ("node", "tag")]
    read = attributes_read(ast.parse("x.a; getattr(y, 'b', None); z.c = 1; getattr(w, n)"))
    assert read == {"a", "b"}


#: The ``re`` functions that look a string pattern up in ``re``'s cache, and
#: compile it when it has been evicted, on every call.
_RE_CALLS = frozenset({"sub", "match", "search", "fullmatch", "findall", "finditer", "split"})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_uncompiled_regex_in_functions(path):
    """A function body matches with module-level compiled patterns, never
    with ``re.sub(r"...", ...)`` and the like on a literal pattern."""
    calls = []
    for fn in ast.walk(_tree(path)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                    and node.func.attr in _RE_CALLS
                    and node.args and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, (str, bytes))):
                calls.append(f"re.{node.func.attr} (line {node.lineno})")
    assert sorted(set(calls)) == [], f"{path.name} matches uncompiled patterns"


def _nested_functions(fn) -> list:
    """The functions defined in ``fn``'s body, outside any function, lambda
    or class it defines."""
    out, todo = [], list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(node)
        elif not isinstance(node, (ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return out


def closure_cycles(tree) -> list:
    """Each nested function, as "enclosing.nested", that reaches its own
    name through the functions nested in the same enclosing function, a
    self-reference included."""
    cycles = []
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nested = {fn.name: fn for fn in _nested_functions(outer)}
        refs = {name: {node.id for stmt in fn.body for node in ast.walk(stmt)
                       if isinstance(node, ast.Name) and node.id in nested}
                for name, fn in nested.items()}
        for name in nested:
            reached, todo = set(), [name]
            while todo:
                new = refs[todo.pop()] - reached
                reached |= new
                todo += new
            if name in reached:
                cycles.append(f"{outer.name}.{name}")
    return cycles


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_nested_function_reaches_itself(path):
    """A nested function that can reach its own name holds itself through
    its closure cells, so every call of its enclosing function leaves a
    cycle for the collector. Such a walk is a module-level function."""
    assert closure_cycles(_tree(path)) == [], f"{path.name} leaves closure cycles"


def test_closure_cycles_are_found():
    tree = ast.parse("""
def outer():
    def walk(t):
        return visit(t)

    def visit(t):
        return [walk(c) for c in t]

    def leaf():
        return visit

    def fact(n):
        return n and n * fact(n - 1)
    return walk, leaf, fact


def plain():
    def declare(x):
        return node_id(x)

    def node_id(x):
        return x
    return declare
""")
    assert sorted(closure_cycles(tree)) == ["outer.fact", "outer.visit", "outer.walk"]

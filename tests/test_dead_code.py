"""No definition in the package that only its own unit test reads.

The guard parses ``src/impscat/*.py`` with ``ast`` and fails for any
function, class or method (dunders aside), or annotated field of a class
body (a dataclass or NamedTuple field), whose name nothing reads.  A name
is read where it appears
- as a ``Name`` or ``Attribute`` anywhere in the package, its own
  definition aside, but for a ``Name`` whose id is a parameter or an
  assignment target of its innermost enclosing function: that local reads
  no definition (a parameter ``distance`` reads no method ``distance``);
- as a ``Name``, an ``Attribute`` or a string constant under ``perfbench/``,
  whose tracer names its targets as strings;
- as a name anywhere in ``tests/test_acceptance.py``, the paper's criteria;
or where ``KEEP`` names it, with the reason it stays.  A keyword of a
constructor call reads no field: it only fills one.  Names are matched
bare, not by module or class: a method is read wherever an attribute of its
name is, except an attribute of a module that an ``import`` statement binds
outside the package (``np.empty`` reads no method ``empty``).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> why it stays although nothing reads it yet
KEEP = {
    "continuation_constants": "the continuation γ of the proof pipeline (ROADMAP item 9)",
    "prop41_bound": "the Prop. 4.1 stage of the proof pipeline (ROADMAP item 9)",
    "alternate": "the Corollary's second admissible (λ, τ) pair, which the empirical "
                 "threshold map compares against (ROADMAP item 13)",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def parsed(paths) -> list:
    return [ast.parse(path.read_text(), filename=str(path)) for path in paths]


def foreign_modules(tree) -> set:
    """The names that ``import`` statements in ``tree`` bind to modules other
    than impscat's: ``np`` for ``import numpy as np``, ``os`` for
    ``import os.path``."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.split(".")[0] != "impscat"}


def function_locals(function) -> set:
    """The parameters of ``function`` (a def or a lambda) and the names its
    own body assigns, the bodies of functions nested in it aside."""
    args = function.args
    names = {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                 args.vararg, args.kwarg) if arg is not None}
    pending = list(ast.iter_child_nodes(function))
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif not isinstance(node, _SCOPES):
            pending.extend(ast.iter_child_nodes(node))
    return names


def name_loads(node, local=frozenset()):
    """The ids of the ``Name`` loads under ``node`` that are not a local
    (:func:`function_locals`) of their innermost enclosing function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _SCOPES):
            yield from name_loads(child, function_locals(child))
        elif isinstance(child, ast.Name):
            if isinstance(child.ctx, ast.Load) and child.id not in local:
                yield child.id
        else:
            yield from name_loads(child, local)


def names_read(trees, strings: bool = False, imports: bool = False) -> set:
    """Every ``Name`` load of :func:`name_loads` and ``Attribute`` attr in
    ``trees``, an attribute of a foreign module (:func:`foreign_modules`)
    aside, and, if asked, every string constant and every name an import
    brings in."""
    out = set()
    for tree in trees:
        foreign = foreign_modules(tree)
        out.update(name_loads(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if not (isinstance(node.value, ast.Name) and node.value.id in foreign):
                    out.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
            elif imports and isinstance(node, ast.ImportFrom):
                out.update(alias.asname or alias.name for alias in node.names)
    return out


def defined(trees) -> set:
    """The function, class and method names that ``trees`` define, dunders
    aside, and the annotated fields of their class bodies."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, _DEFINITIONS):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(stmt.target.id for stmt in node.body
                             if isinstance(stmt, ast.AnnAssign)
                             and isinstance(stmt.target, ast.Name))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def package_and_readers() -> tuple:
    """(the package's definitions, every name read by the package, perfbench
    and the acceptance tests)."""
    src = parsed(sorted((ROOT / "src" / "impscat").glob("*.py")))
    read = (names_read(src)
            | names_read(parsed(sorted((ROOT / "perfbench").rglob("*.py"))), strings=True)
            | names_read(parsed([ROOT / "tests" / "test_acceptance.py"]), imports=True))
    return defined(src), read


def test_every_definition_is_read():
    definitions, read = package_and_readers()
    assert sorted(definitions - read - KEEP.keys()) == []


def test_every_kept_name_is_defined_and_otherwise_unread():
    # a KEEP entry that names nothing, or that something now reads, is stale
    definitions, read = package_and_readers()
    assert KEEP.keys() <= definitions
    assert not KEEP.keys() & read


def test_attributes_of_foreign_modules_read_nothing():
    # np.empty reads no method named `empty`; an attribute of impscat does
    foreign = ast.parse("import numpy as np\nimport impscat as im\nnp.empty(3)\nim.solve_farfield")
    assert names_read([foreign]) == {"np", "im", "solve_farfield"}
    assert "empty" in names_read([ast.parse("report.empty")])


def test_locals_of_a_function_read_nothing():
    # a parameter or local named like a method reads no method; a name the
    # function only loads, or one loaded at module level, still reads
    tree = ast.parse("def f(distance, *rest, **extra):\n"
                     "    total = distance + len(rest) + len(extra)\n"
                     "    for step in total:\n"
                     "        helper(step, key=lambda norm: norm)\n"
                     "norm = 1\n"
                     "print(norm)")
    assert names_read([tree]) == {"len", "helper", "print", "norm"}
    assert names_read([ast.parse("def f():\n    return distance")]) == {"distance"}


def test_record_fields_are_definitions():
    # an annotated field of a class body is defined; filling it by a
    # constructor keyword reads nothing, an attribute load does
    tree = ast.parse("class Record:\n"
                     "    used: float\n"
                     "    unused: float = 0.0\n"
                     "    label = 'not annotated'\n"
                     "record = Record(used=1.0, unused=2.0)\n"
                     "print(record.used)")
    assert defined([tree]) == {"Record", "used", "unused"}
    assert defined([tree]) - names_read([tree]) == {"unused"}

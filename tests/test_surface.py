"""The package keeps no function that only tests or the exports use, and one home for its
memory limits.

Every module-level function of ``src/crosscap3``, public or private, must be
referenced by name from code that runs: module-level code, a class body, or a function
that is itself referenced that way, in some module other than ``__init__``.
A function that is referenced only from functions nothing runs counts as
unused too, so a dead helper cannot keep its own helpers alive.  The
references are read with ``ast``; an import alone is not a reference.
Reference implementations that only tests call belong in
``tests/oracles.py``.

The scratch block size and the table budget are bound in ``tet_tree``
alone, with the helpers that apply them; every other module takes its
block sizes and budget checks from those helpers.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "crosscap3"

# Library API that no CLI command calls, kept in the package on purpose.
ALLOWED = {
    "compose",  # the group operations, which the benchmark's group-law stream calls
    "inverse",
    "image_of_ordered_tet",
    "propagate_map",  # the propagated vertex map of one element
    "check_distance_stability",  # window stability of distances, acceptance criterion 4
}


def _names(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def unused_functions(src: Path = SRC) -> list:
    """The module-level functions that nothing reachable references, as ``module.name``."""
    functions = {}  # name -> the names its body references
    defined = []
    roots = set(ALLOWED)
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.setdefault(node.name, set()).update(_names(node) - {node.name})
                defined.append((path.stem, node.name))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names(node)
    live, todo = set(), [n for n in roots if n in functions]
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo += [n for n in functions[name] if n in functions]
    return [f"{module}.{name}" for module, name in defined if name not in live]


def test_every_public_function_is_used_in_the_package():
    unused = [f for f in unused_functions() if not f.split(".")[1].startswith("_")]
    assert not unused, f"{len(unused)} public functions only tests or the exports use: {', '.join(unused)}"


def test_every_private_function_is_used_in_the_package():
    unused = [f for f in unused_functions() if f.split(".")[1].startswith("_")]
    assert not unused, f"{len(unused)} private functions only tests use: {', '.join(unused)}"


def test_allowlist_names_existing_functions():
    defined = {
        node.name
        for path in SRC.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
    }
    assert ALLOWED <= defined


def test_a_chain_of_dead_functions_is_found(tmp_path):
    # ``helper`` is referenced only by ``dead``, which nothing references.
    (tmp_path / "mod.py").write_text(
        "def dead():\n    return helper()\n\n\ndef helper():\n    return 1\n\n\ndef used():\n    return 2\n\n\nVALUE = used()\n"
    )
    (tmp_path / "__init__.py").write_text("from .mod import dead, helper, used\n")
    assert unused_functions(tmp_path) == ["mod.dead", "mod.helper"]


def test_a_dead_private_helper_is_found(tmp_path):
    # ``_left_over`` is referenced only from a test, which the scan does not read.
    (tmp_path / "mod.py").write_text(
        "def _left_over():\n    return 1\n\n\ndef _used():\n    return 2\n\n\ndef run():\n    return _used()\n\n\nVALUE = run()\n"
    )
    (tmp_path / "__init__.py").write_text("from .mod import run\n")
    assert unused_functions(tmp_path) == ["mod._left_over"]


LIMITS = {"BLOCK_ELEMS", "MAX_TABLE_BYTES"}
HELPERS = {"_blocks", "_block_rows", "_check_budget"}


def limit_bindings(src: Path = SRC) -> list:
    """``module.name`` for each memory limit that a module other than ``tet_tree`` binds, imports
    or reads off another module, and each block or budget helper it defines or assigns."""
    found = set()
    for path in sorted(src.glob("*.py")):
        if path.stem == "tet_tree":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {n for alias in node.names for n in (alias.name, alias.asname)} & LIMITS
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = {node.name} & HELPERS
            elif isinstance(node, ast.Name):
                names = {node.id} & (LIMITS | HELPERS if isinstance(node.ctx, ast.Store) else LIMITS)
            elif isinstance(node, ast.Attribute):
                names = {node.attr} & LIMITS
            else:
                continue
            found |= {f"{path.stem}.{name}" for name in names}
    return sorted(found)


def test_only_tet_tree_binds_the_memory_limits():
    assert limit_bindings() == []


def test_a_second_binding_is_found(tmp_path):
    (tmp_path / "tet_tree.py").write_text("BLOCK_ELEMS = 1\n\n\ndef _blocks(rows, width):\n    return []\n")
    (tmp_path / "mod.py").write_text(
        "from .tet_tree import BLOCK_ELEMS as B\nfrom . import tet_tree\n\nMAX_TABLE_BYTES = 2\n"
        "STEP = tet_tree.BLOCK_ELEMS\n\n\ndef _blocks(rows, width):\n    return []\n"
    )
    (tmp_path / "other.py").write_text("from .tet_tree import _blocks\n\n_check_budget = None\n")
    assert limit_bindings(tmp_path) == ["mod.BLOCK_ELEMS", "mod.MAX_TABLE_BYTES", "mod._blocks", "other._check_budget"]

"""Every public name of the package has a caller.

A public top-level function or class of `src/relqopt/*.py`, or a public method
of such a class, must be referenced somewhere outside its own definition: in
`src/relqopt`, in the acceptance tests (`tests/test_acceptance.py` and its
oracle `tests/fd_oracle.py`) or in the benchmark (`perfbench/*.py`). The unit
tests do not count, so a name that only they call fails here.

A reference is any `Name`, `Attribute` or imported name that spells the same
identifier. That is the blind spot: a name shared with another API counts as
used, whatever object the reference reaches. A `uniform` method would pass
because of `rng.uniform`, and a `boost` method because of any `.boost`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "relqopt").glob("*.py"))
CALLERS = [*SOURCES, ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "fd_oracle.py",
           *sorted((ROOT / "perfbench").glob("*.py"))]


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (sub for sub in node.body if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_"))


def _spelled(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return None


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}
    # every spelling in the caller files, with the nodes that spell it
    spellings = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = _spelled(node)
            if name is not None:
                spellings.setdefault(name, []).append(node)
    unused = []
    for path in SOURCES:
        for definition in _public_definitions(trees[path]):
            own = {id(node) for node in ast.walk(definition)}
            if all(id(node) in own for node in spellings.get(definition.name, ())):
                unused.append(f"{path.name}:{definition.lineno} {definition.name}")
    assert not unused, "public names without a caller: " + ", ".join(unused)

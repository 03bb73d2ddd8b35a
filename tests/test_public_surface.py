"""`src/` holds only what runs: every public module-level function or class
of flatlink, and every public method or property of a public class, is
named by code that is not its own test.

A name counts as used when it appears as an identifier in another flatlink
module, or in its own module outside its definition; as an identifier or a
string constant in perfbench (the tracer names its targets as strings); or
as an identifier in the acceptance suite. Docstrings and comments do not
count. Test-only references live in `tests/_reference.py`. Every other
name is in ALLOWED, with the reason it is kept; README's "Kept as API"
lists the same names. A method or property is named as Class.method, and
counts as used only when an attribute of its name is read or perfbench names
it in a string: an attribute access names no class. So a method or
property whose name another flatlink class also uses, for a field, a
property or a method, counts as used when any of them is read; each such
name is in SHARED, with where each of its definitions is read, so a new
one is looked at before it can hide behind another.

Every private module-level function or class of flatlink is named in
`src/` outside its own definition, as an identifier in its own module or
in another that imports it; the import itself does not count. So a
helper the package stops calling is deleted, or moved into
`tests/_reference.py`, instead of staying behind for the tests alone.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flatlink"

ALLOWED = {
    "intersect_subspaces": "boundary API, checked against its Fraction reference",
    "sum_subspaces": "boundary API, checked against its Fraction reference",
    "QPoly.derivative": "the irreducibility reference in test_qkernel_irreducible.py calls it",
    "isolate_real_roots": "qkernel's root-isolation API; rational_roots runs its bisection, "
    "_isolate, on the Sturm chain it has already built",
}


SHARED = {
    "m": "FlatX.m and SubspaceY.m: symspace checks that flats and subspaces share m; "
    "Arrangement.m: projlink's frame solve and common_flags; "
    "Pattern.m: the CLI's verdicts and certify_pattern_stability",
    "dim": "ProjPoint.dim: Arrangement and the frame solve check their points; "
    "ProjHyperplane.dim: LinePlanePair checks its plane against its line; "
    "LinePlanePair.dim: common_flags checks it against the arrangement",
}


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring nodes in tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def _identifiers(tree: ast.AST, skip: ast.AST = None) -> set[str]:
    """Names used in tree, outside the subtree skip, and attribute names
    with a leading dot."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add("." + node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _strings(tree: ast.AST) -> set[str]:
    skip = _docstrings(tree)
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip
    }


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public function, class, and method
    or property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def unused_public_names() -> list[str]:
    modules = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    outside = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = _parse(path)
        outside |= _identifiers(tree) | {"." + x for x in _strings(tree)}
    outside |= _identifiers(_parse(ROOT / "tests" / "test_acceptance.py"))

    unused = []
    for name, tree in modules.items():
        others = set().union(*(_identifiers(t) for n, t in modules.items() if n != name))
        for qualified, node in _public_definitions(tree):
            used = others | outside | _identifiers(tree, skip=node)
            # a function or class is named bare or as an attribute of its
            # module; a method or property only as an attribute
            if "." + node.name not in used and (qualified != node.name or node.name not in used):
                unused.append(f"{name}.{qualified}")
    return unused


def test_every_public_name_runs_outside_its_tests():
    unused = [n for n in unused_public_names() if n.split(".", 1)[1] not in ALLOWED]
    assert unused == [], (
        "public names used only by tests: move them into tests/_reference.py, "
        "or add them to ALLOWED with a reason"
    )


def test_allowed_names_exist_and_are_otherwise_unused():
    """Each ALLOWED entry is a public definition that the rule would flag,
    so the list cannot keep a name that has since found a caller or gone."""
    flagged = {n.split(".", 1)[1] for n in unused_public_names()}
    assert flagged == set(ALLOWED)


def shared_names() -> set[str]:
    """Names of the public methods and properties of public classes that
    another flatlink class also defines, as a field, property or method."""
    members = []  # (class node, member name, public method or property)
    for path in sorted(SRC.glob("*.py")):
        for cls in _parse(path).body:
            if isinstance(cls, ast.ClassDef):
                for item in cls.body:
                    if isinstance(item, ast.FunctionDef):
                        public = not (cls.name.startswith("_") or item.name.startswith("_"))
                        members.append((cls, item.name, public))
                    elif isinstance(item, ast.AnnAssign):
                        members.append((cls, item.target.id, False))
    return {
        name
        for cls, name, public in members
        if public and any(n == name and other is not cls for other, n, _ in members)
    }


def test_shared_names_are_listed():
    assert shared_names() == set(SHARED)


def test_readme_lists_the_allowed_names():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Kept as API", 1)[1].split("\n## ", 1)[0]
    for name in ALLOWED:
        assert f"`{name}`" in section


def _private_definitions() -> list[tuple[str, ast.AST, dict]]:
    """(module.name, node, parsed modules) of each private module-level
    function or class in `src/`."""
    modules = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    return [
        (f"{name}.{node.name}", node, modules)
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]


PRIVATE = {qualified: (node, modules) for qualified, node, modules in _private_definitions()}


@pytest.mark.parametrize("qualified", sorted(PRIVATE))
def test_every_private_name_runs_in_src(qualified):
    node, modules = PRIVATE[qualified]
    own = qualified.split(".", 1)[0]
    used = _identifiers(modules[own], skip=node).union(
        *(_identifiers(t) for n, t in modules.items() if n != own)
    )
    assert node.name in used or "." + node.name in used, (
        f"{qualified} is not named in src/ outside its definition: delete it, "
        "or move it into tests/_reference.py"
    )

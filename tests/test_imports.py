"""What the modules of `src/flatlink` import, read from their syntax trees.

Every imported name is used: it appears as an identifier in its module, or
in the module's `__all__` (as `__init__.py` re-exports its names). And the
two decision routes stay apart: the symmetric-space oracle (`symspace`)
and the descent built on it (`congruence`) import nothing from the
projective criterion (`projlink`), nor it from them.

No module imports `dataclasses`: its import pulls in `inspect`, `ast` and
`dis`, and its decorator compiles each record's methods with `exec`, which
together were most of a fresh interpreter's set-up. The records derive from
`qkernel._Record` instead (`tests/test_records.py`).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "flatlink"
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}

APART = [
    ("symspace", "projlink"),
    ("congruence", "projlink"),
    ("projlink", "symspace"),
    ("projlink", "congruence"),
]


def _imports(tree: ast.Module):
    """(bound name, flatlink module it comes from or None) per import:
    `from .m import x` takes x from m, `from . import m` binds m itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], None
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = node.module or ""
            for alias in node.names:
                if node.level:
                    origin = module or alias.name
                elif module.startswith("flatlink."):
                    origin = module.removeprefix("flatlink.")
                else:
                    origin = None
                yield alias.asname or alias.name, origin


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_imported_name_is_used(module):
    tree = MODULES[module]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    unused = sorted({name for name, _ in _imports(tree)} - used)
    assert unused == [], f"{module} imports names it never uses: {unused}"


@pytest.mark.parametrize("importer, source", APART, ids=lambda x: x)
def test_decision_routes_do_not_import_each_other(importer, source):
    names = sorted(name for name, origin in _imports(MODULES[importer]) if origin == source)
    assert names == [], f"{importer} imports {names} from {source}"


def _imported_modules(tree: ast.Module):
    """The top-level name of every module an absolute import reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_no_module_imports_dataclasses():
    importers = sorted(m for m, tree in MODULES.items() if "dataclasses" in _imported_modules(tree))
    assert importers == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter (without `site`, whose path hooks may import
    anything) that imports the CLI has loaded neither module."""
    code = "import sys, flatlink.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"

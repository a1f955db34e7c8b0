"""The protocol core imports no extension.

Fault injection (:mod:`repro.faults`) and adaptive home migration
(:mod:`repro.gdo.migration`) attach to the lock manager's and the
executor's hook lists from ``Cluster``; the modules of the paper's
algorithms — the lock manager, the transaction tree, the executor and
the method context, the directory entry, directory, holder cache and
deadlock detector, and the consistency protocols — must not import
them.  The walk reads every ``import`` and ``from ... import`` of those
files, at any depth (a lazy import inside a function counts too).

``repro/net/transport.py`` still imports ``repro.faults.injector``: the
message-fault draws are the transport half of the same separation, and
it is not in this list.
"""

import ast
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent

CORE = sorted(
    ["txn/locks.py", "txn/transaction.py", "runtime/executor.py",
     "runtime/context.py", "gdo/entry.py", "gdo/directory.py",
     "gdo/cache.py", "gdo/deadlock.py"]
    + [str(path.relative_to(ROOT)) for path in (ROOT / "core").glob("*.py")]
)

EXTENSIONS = ("repro.faults", "repro.gdo.migration")


def imported_modules(source):
    """Every module an ``import`` statement in ``source`` names; for
    ``from package import name`` also ``package.name``, which may be a
    submodule."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
            names.extend(f"{node.module}.{alias.name}"
                         for alias in node.names)
    return names


def extension_imports(source):
    return sorted({name for name in imported_modules(source)
                   if any(name == ext or name.startswith(ext + ".")
                          for ext in EXTENSIONS)})


def test_the_core_list_is_real():
    assert len(CORE) > 10 and "core/protocol.py" in CORE
    assert all((ROOT / path).is_file() for path in CORE)


@pytest.mark.parametrize("path", CORE)
def test_core_module_imports_no_extension(path):
    assert extension_imports((ROOT / path).read_text()) == []


def test_the_walk_sees_every_spelling():
    source = (
        "import repro.faults.wal\n"
        "from repro.faults.injector import NULL_INJECTOR\n"
        "from repro.gdo import migration\n"
        "from repro.gdo.entry import LockMode\n"
        "def lazy():\n"
        "    from repro.gdo.migration import MigrationConfig\n"
    )
    assert extension_imports(source) == [
        "repro.faults.injector", "repro.faults.injector.NULL_INJECTOR",
        "repro.faults.wal", "repro.gdo.migration",
        "repro.gdo.migration.MigrationConfig",
    ]

"""Lint: every name a module imports is used by that module.

An import nothing reads misleads a reader about what the module depends
on, and a dead plane-class import hides which planes an experiment really
builds. For each module under ``src/repro`` (the package ``__init__.py``
files re-export on purpose, so they are skipped), every name an import
statement binds must appear in the module's text outside its import
statements. A plain text match is deliberate: it also counts a name used
only in a string annotation, and it needs nothing beyond the standard
library.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _bound_names(tree):
    """``(statement, name)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node, alias.asname or alias.name


def _scan():
    """Every bound import as ``(module, line, name, used)``."""
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        rel = path.relative_to(SRC).as_posix()
        text = path.read_text()
        bound = list(_bound_names(ast.parse(text)))
        import_lines = set()
        for node, _name in bound:
            import_lines.update(range(node.lineno - 1, node.end_lineno))
        rest = "\n".join(line for i, line in enumerate(text.splitlines())
                         if i not in import_lines)
        for node, name in bound:
            used = re.search(rf"\b{re.escape(name)}\b", rest) is not None
            yield rel, node.lineno, name, used


def test_scan_sees_the_imports():
    """If the walk stopped matching import statements the lint below would
    pass vacuously: it must see hundreds of them, including known ones."""
    seen = {(rel, name) for rel, _line, name, _used in _scan()}
    assert len(seen) > 500
    assert ("sim/fastforward.py", "SimulationError") in seen
    assert ("core/norman.py", "KopiNic") in seen


def test_every_imported_name_is_used():
    unused = [f"{rel}:{line}: {name}"
              for rel, line, name, used in _scan() if not used]
    assert unused == []

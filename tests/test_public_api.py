"""Every public name of the library has a caller outside the tests.

A module-level ``def`` or ``class`` in ``src/nccbank`` whose name does not
start with an underscore is public.  It must be referenced by the library
itself, a demo, perfbench or the console script in ``pyproject.toml``;
otherwise it is an API that no pipeline uses and should be deleted (the
tests alone do not keep a name alive).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "nccbank"
CALLERS = [LIBRARY, ROOT / "demos", ROOT / "perfbench"]


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _script_targets():
    """The functions ``[project.scripts]`` points at ("module:function")."""
    targets = set()
    section = None
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            targets.add(line.split("=", 1)[1].strip().strip("\"'").split(":")[-1])
    return targets


def referenced_names():
    """Every ``Name``, ``Attribute`` and import alias in the callers."""
    names = _script_targets()
    for folder in CALLERS:
        for path in sorted(folder.glob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.split(".")[-1])
    return names


def public_definitions():
    """(module, name) of every module-level public def and class."""
    defs = []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in _parse(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs.append((path.stem, node.name))
    return defs


def test_scan_sees_both_sides():
    # an empty scan of the library would pass the test below vacuously
    assert ("nccnet", "train") in public_definitions()
    assert {"train", "main"} <= referenced_names()


def test_every_public_name_has_a_caller():
    names = referenced_names()
    unused = [f"{mod}.{name}" for mod, name in public_definitions()
              if name not in names]
    assert unused == []

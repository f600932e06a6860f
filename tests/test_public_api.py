"""Every public name of the library has a caller outside the tests.

A module-level ``def``, ``class`` or assigned constant in ``src/nccbank``
whose name does not start with an underscore is public.  It must be loaded
by the library itself, a demo or perfbench, or be the console script in
``pyproject.toml``; otherwise it is an API that no pipeline uses and should
be deleted (the tests alone do not keep a name alive, and neither does a
constant's own assignment).
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
    """Every loaded ``Name`` and ``Attribute`` and every import alias (an
    import loads the name from its module) in the callers."""
    names = _script_targets()
    for folder in CALLERS:
        for path in sorted(folder.glob("*.py")):
            for node in ast.walk(_parse(path)):
                loaded = isinstance(getattr(node, "ctx", None), ast.Load)
                if isinstance(node, ast.Name) and loaded:
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and loaded:
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.split(".")[-1])
    return names


def _defined_names(node):
    """Names a module-level statement defines: a def or class, or the
    plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return []


def public_definitions():
    """(module, name) of every module-level public def, class and constant."""
    defs = []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in _parse(path).body:
            defs += [(path.stem, name) for name in _defined_names(node)
                     if not name.startswith("_")]
    return defs


def test_scan_sees_both_sides():
    # an empty scan of the library would pass the test below vacuously
    assert {("nccnet", "train"), ("filterbank", "TAP_QFORMAT")} <= set(
        public_definitions())
    assert {"train", "main"} <= referenced_names()


def test_every_public_name_has_a_caller():
    names = referenced_names()
    unused = [f"{mod}.{name}" for mod, name in public_definitions()
              if name not in names]
    assert unused == []

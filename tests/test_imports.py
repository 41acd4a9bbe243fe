"""Import hygiene of the package: every imported name is used, no module
but `jets` reads a private name of `jets`, whose coefficient layout stays
behind its public readouts, `picalc` reads the jets of fields, never a
field itself, and every public function and class is read by the package,
apart from a named few."""

import ast
from pathlib import Path

import pytest

import finslerkit

PACKAGE = Path(finslerkit.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def unused_imports(source: str) -> list:
    """Names bound by an import statement anywhere in `source` and never
    read as a name (or as the root of an attribute chain) in it."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_scan_finds_an_unused_import():
    source = "import os\nfrom math import pi, tau\nprint(pi, os.sep)\n"
    assert unused_imports(source) == [(2, "tau")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def private_jets_names(source: str) -> list:
    """(line, name) of each underscore name that `source` takes from the jets
    module: imported from it, or read as an attribute of a name `jets`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "jets":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "jets" and node.attr.startswith("_")):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_scan_finds_a_private_jets_name():
    source = ("from .jets import Jet, _table_size\n"
              "from finslerkit.jets import _leibniz\n"
              "from . import jets\n"
              "print(Jet, jets.jet_eval, jets._shift_map)\n")
    assert private_jets_names(source) == [(1, "_table_size"), (2, "_leibniz"),
                                          (4, "_shift_map")]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "jets.py"])
def test_no_private_jets_names_outside_jets(module):
    assert private_jets_names((PACKAGE / module).read_text()) == []


FIELD_CLASSES = ("PiVectorField", "ComponentField", "GradientField")


def field_reads(source: str) -> list:
    """(line, name) of each place `source` reads a field rather than its
    jets: a call of an attribute named `jets`, or an import of a pi-vector
    field class."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in FIELD_CLASSES]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "jets"):
            found.append((node.lineno, "jets"))
    return sorted(found)


def test_scan_finds_a_field_read():
    source = ("from .fields import GradientField, covector_jets, project_away\n"
              "from finslerkit.fields import PiVectorField as Field\n"
              "def f(fr, X, Xj):\n"
              "    return X.jets(fr), fr.flat_jets(Xj), Xj.jets\n")
    assert field_reads(source) == [(1, "GradientField"), (2, "PiVectorField"), (4, "jets")]


def test_the_calculus_takes_jets():
    assert field_reads((PACKAGE / "picalc.py").read_text()) == []


def unread_public_names(package: dict, readers=()) -> list:
    """"module.name" of each public module-level function and class of
    `package` (module stem -> source) that no source reads: its own module
    reads it as a name, another module imports it or reads it as
    `module.name`, and so may each of the sources `readers`."""
    trees = {stem: ast.parse(source) for stem, source in package.items()}
    defined = {(stem, node.name) for stem, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    read = set()
    for owner, tree in [*trees.items(), *((None, ast.parse(s)) for s in readers)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                stem = (node.module or "").split(".")[-1]
                read |= {(stem, alias.name) for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read.add((node.value.id, node.attr))
            elif isinstance(node, ast.Name) and owner is not None:
                read.add((owner, node.id))
    return sorted(f"{stem}.{name}" for stem, name in defined - read)


def test_scan_finds_an_unread_public_name():
    package = {
        "jets": "def sqrt(x): pass\ndef sin(x): pass\ndef _table(): pass\n"
                "def fd(f): return _table()\ndef helper(): pass\nhelper()\n",
        "frame": "from . import jets\nfrom .jets import sqrt\nclass Frame: pass\n"
                 "def point_frame(s, p): return jets.fd(sqrt)\n",
    }
    assert unread_public_names(package) == ["frame.Frame", "frame.point_frame", "jets.sin"]
    bench = "from finslerkit import frame\nframe.point_frame(None, None)\n"
    assert unread_public_names(package, [bench]) == ["frame.Frame", "jets.sin"]


# public names that no other module of the package reads, and why each stays:
# the rest is read by the package itself, so nothing in it exists for tests only
UNREAD_BY_THE_PACKAGE = {
    "jets.sin": "Lagrangian vocabulary",
    "jets.cos": "Lagrangian vocabulary",
    "jets.log": "Lagrangian vocabulary",
    "frame.point_frame": "read by perfbench (ROADMAP item 15)",
}


def test_no_public_name_exists_for_tests_only():
    package = {stem[:-3]: (PACKAGE / stem).read_text() for stem in MODULES}
    bench = [p.read_text() for p in sorted(PERFBENCH.glob("*.py"))]
    assert unread_public_names(package) == sorted(UNREAD_BY_THE_PACKAGE)
    assert unread_public_names(package, bench) == sorted(
        name for name, why in UNREAD_BY_THE_PACKAGE.items() if "perfbench" not in why)

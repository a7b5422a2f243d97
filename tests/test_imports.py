"""Every module of the package uses each name it imports, and every
name the package defines is read somewhere; exporting a name is not
reading it.  A public name that only tests read is on an allowlist
with its reason.  Starting the CLI loads no ``dataclasses``."""

import ast
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pullcalc"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by an import statement that no expression reads."""
    imported = set()
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used)


def test_the_scan_sees_an_unused_name():
    assert unused_imports("import os\nfrom math import gcd, lcm\nprint(os.sep, gcd)") == ["lcm"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def dead_definitions(defining: dict, reading: list):
    """Module-level functions, classes and assigned names, and the
    methods of module-level classes, that no source reads.

    ``defining`` maps a label to the source whose top level is scanned;
    every source in ``defining`` and ``reading`` counts as a reader.  A
    read is a loaded name, an attribute or a name imported outside an
    ``__init__.py``: a package's imports and its ``__all__`` only
    re-export.  Dunder names are exempt.
    """
    defined = []
    read = set()
    for label, source in defining.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((label, node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend(
                    (label, method.name)
                    for method in node.body
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defined.append((label, name.id))
    sources = [(label.endswith("__init__.py"), s) for label, s in defining.items()]
    for is_init, source in sources + [(False, s) for s in reading]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and not is_init:
                read.update(a.name for a in node.names)
    return sorted(
        "%s: %s" % (label, name)
        for label, name in defined
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    )


def test_the_scan_sees_a_dead_definition():
    defining = {
        "a.py": "__all__ = ['kept']\nX = 1\n_Y = 2\ndef kept(): return _Y\nclass Gone: pass\n",
        "b.py": "from a import X\n",
        "c.py": "class Held:\n    def used(self): pass\n    def _unused(self): pass\n    def __len__(self): return 0\n",
    }
    reader = "import a, c\na.helper = a.kept()\nc.Held().used()\n"
    assert dead_definitions(defining, [reader]) == ["a.py: Gone", "c.py: _unused"]
    # exported and re-exported, but never called
    defining["pkg/__init__.py"] = "from .a import kept\n__all__ = ['kept']\n"
    assert dead_definitions(defining, ["import c\nc.Held().used()\n"]) == [
        "a.py: Gone", "a.py: kept", "c.py: _unused"
    ]


def test_every_definition_is_read_or_exported():
    defining = {p.relative_to(SRC).as_posix(): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    reading = [p.read_text() for p in sorted((ROOT / "tests").rglob("*.py"))]
    assert dead_definitions(defining, reading) == []


# Public names that no module under src/, perfbench/ or tools/ reads,
# each with the reason it stays.  A new name that only tests read fails.
TEST_ONLY_NAMES = {
    "analysis.py: alternating_layers": "acceptance lock: the Fibonacci extremes in closed form",
    "diagrams/taffy.py: rotate_taffy": "test reference: the half-turn that build_taffy draws directly",
    "diagrams/tangles.py: format_tangle": "library API: the printer paired with parse_tangle",
    "rationals.py: make": "acceptance lock: builds every fraction the criteria check",
    "rationals.py: neg_recip": "acceptance lock: the -1/q symmetry rotate_canonical must match",
    "treewalk.py: append_turn": "test reference: one rewrite step, folded to match canonicalize_rewrite",
    "treewalk.py: rotate_canonical": "acceptance lock: the structural half-turn of a canonical class",
    "treewalk.py: slow_euclid_trace": "library API: the paper's subtractive walk, step by step",
    "words.py: inverse_turn": "library API: the turn algebra's inverse, paired with invert_word",
    "words.py: invert_word": "library API: the inverse of a word in the free group",
}


def test_every_name_only_tests_read_is_on_the_allowlist():
    defining = {p.relative_to(SRC).as_posix(): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    reading = [p.read_text() for d in ("perfbench", "tools") for p in sorted((ROOT / d).rglob("*.py"))]
    public = [
        label for label in dead_definitions(defining, reading) if not label.split(": ")[1].startswith("_")
    ]
    assert public == sorted(TEST_ONLY_NAMES)


def test_the_cli_loads_no_dataclasses_machinery():
    """Every record is a NamedTuple, so a cold start of the CLI loads
    neither ``dataclasses`` nor the modules it pulls in."""
    code = "import sys; sys.path.insert(0, %r); import pullcalc.cli; print(*sys.modules)"
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", code % str(ROOT / "src")],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "pullcalc.cli" in loaded
    assert [m for m in ("dataclasses", "inspect", "ast", "dis", "tokenize") if m in loaded] == []

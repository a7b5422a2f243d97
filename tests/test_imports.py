"""Every module of the package uses each name it imports, and every
name the package defines is read somewhere; exporting a name is not
reading it.  A public name that only tests read is on an allowlist
with its reason.  Only ``words`` spells a turn, only the algebra
modules fold a word, and no module guards its attributes with a
``__setattr__``.  Starting the CLI loads
no ``dataclasses``, only the drawing commands load the diagram
modules, and only ``--json`` loads ``json``.  The package's public
names are locked, and each resolves on first use."""

import ast
import pathlib
import subprocess
import sys

import pytest

import pullcalc

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
    "diagrams/geometry.py: bounding_box": "test reference: the tight box of a piece, read by the quadratic scan",
    "diagrams/taffy.py: rotate_taffy": "test reference: the half-turn that build_taffy draws directly",
    "diagrams/tangles.py: crossings": "library API: each twist's position and sign, which the SVG draws from the word",
    "rationals.py: make": "acceptance lock: builds every fraction the criteria check",
    "rationals.py: neg_recip": "acceptance lock: the -1/q symmetry rotate_canonical must match",
    "treewalk.py: rotate_canonical": "acceptance lock: the structural half-turn of a canonical class",
    "treewalk.py: slow_euclid_trace": "library API: the paper's subtractive walk, step by step",
    "words.py: format_tangle": "library API: the printer paired with parse_tangle",
    "words.py: invert_word": "library API: the inverse of a word in the free group",
}


def test_every_name_only_tests_read_is_on_the_allowlist():
    defining = {p.relative_to(SRC).as_posix(): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    reading = [p.read_text() for d in ("perfbench", "tools") for p in sorted((ROOT / d).rglob("*.py"))]
    public = [
        label for label in dead_definitions(defining, reading) if not label.split(": ")[1].startswith("_")
    ]
    assert public == sorted(TEST_ONLY_NAMES)


def turn_spellings(source: str):
    """String constants, docstrings aside, that spell a turn: a bare
    letter of either alphabet, or anything with ``^-1`` in it."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(first.value)
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node not in docstrings
        and (node.value in ("R", "L", "V", "H") or "^-1" in node.value)
    )


def test_the_scan_sees_a_spelled_turn():
    source = '"""R^-1 aside."""\ndef f():\n    """L"""\n    return {"L": 1, "x^-1": 2, "RL": 3, "l": 4}\n'
    assert turn_spellings(source) == [(4, "L"), (4, "x^-1")]


@pytest.mark.parametrize(
    "module",
    ["analysis", "cli", "diagrams/geometry", "diagrams/taffy", "diagrams/tangles", "kernel", "rationals", "treewalk"],
)
def test_only_words_spells_a_turn(module):
    assert turn_spellings((SRC / (module + ".py")).read_text()) == []


def test_words_writes_each_alphabet_once():
    assert sorted(value for _, value in turn_spellings((SRC / "words.py").read_text())) == ["H", "L", "R", "V"]


def fold_readers(sources: dict, fold: str = "fold_turns"):
    """The labels of the sources that define or read the kernel loop
    ``fold``: as a definition, a name, an attribute or an imported name."""
    return sorted(
        label
        for label, source in sources.items()
        if any(
            isinstance(node, ast.FunctionDef) and node.name == fold
            or isinstance(node, ast.Name) and node.id == fold
            or isinstance(node, ast.Attribute) and node.attr == fold
            or isinstance(node, ast.ImportFrom) and any(a.name == fold for a in node.names)
            for node in ast.walk(ast.parse(source))
        )
    )


def test_the_scan_sees_a_fold():
    sources = {
        "a.py": "from k import fold_turns as f\n",
        "b.py": "import k\nk.fold_turns(w)\n",
        "c.py": "def fold_turns(w): pass\n",
        "d.py": '"""fold_turns"""\nfold = k.fold\n',
    }
    assert fold_readers(sources) == ["a.py", "b.py", "c.py"]


def test_only_the_algebra_folds_a_word():
    """The CLI and the diagram modules never fold a word: every
    per-prefix answer reads treewalk's walk over the prefixes."""
    sources = {p.relative_to(SRC).as_posix(): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    assert fold_readers(sources) == ["analysis.py", "kernel.py", "rationals.py", "treewalk.py"]


def test_only_treewalk_walks_the_prefixes():
    """The per-turn prefix walk is read only through ``treewalk``'s
    ``_prefix_pairs``, with its cap: the CLI and the diagrams never fold."""
    sources = {p.relative_to(SRC).as_posix(): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    assert fold_readers(sources, "fold_prefixes") == ["kernel.py", "treewalk.py"]


def attribute_guards(source: str):
    """Lines that define a ``__setattr__`` method or call
    ``object.__setattr__``: nothing assigns to a value once it is built,
    so no class pays for a guard or for a way round one."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__setattr__"
        or isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    )


def test_the_scan_sees_an_attribute_guard():
    source = (
        "class A:\n"
        "    def __setattr__(self, name, value):\n"
        "        raise AttributeError(name)\n"
        "    def _of(self):\n"
        "        object.__setattr__(self, 'x', 1)\n"
        "        self.y = setattr\n"
    )
    assert attribute_guards(source) == [2, 5]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_module_guards_its_attributes(path):
    assert attribute_guards(path.read_text()) == []


def loaded_modules(code: str) -> list:
    """The modules a fresh ``python -S`` has loaded after running ``code``."""
    code = "import sys; sys.path.insert(0, %r)\n%s\nprint(*sys.modules)" % (str(ROOT / "src"), code)
    return subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()


def test_the_cli_loads_no_dataclasses_machinery():
    """Every record is a NamedTuple, so a cold start of the CLI loads
    neither ``dataclasses`` nor the modules it pulls in."""
    loaded = loaded_modules("import pullcalc.cli")
    assert "pullcalc.cli" in loaded
    assert [m for m in ("dataclasses", "inspect", "ast", "dis", "tokenize") if m in loaded] == []


def test_importing_the_package_loads_no_submodule():
    loaded = loaded_modules("import pullcalc")
    assert "pullcalc" in loaded
    assert [m for m in loaded if m.startswith("pullcalc.")] == []


def test_only_the_drawing_commands_load_the_diagram_modules():
    arithmetic = """
from pullcalc import cli
for argv in (["eval", "R L", "--json"], ["tangle-eval", "V H", "--json"], ["canon", "R L"]):
    assert cli.run(argv).exit_code == 0, argv
"""
    loaded = loaded_modules(arithmetic)
    assert "pullcalc.cli" in loaded
    assert [m for m in loaded if m.startswith("pullcalc.diagrams")] == []
    loaded = loaded_modules(arithmetic + "assert cli.run(['render-taffy', '3/2']).exit_code == 0")
    for module in ("geometry", "taffy", "tangles"):
        assert "pullcalc.diagrams." + module in loaded


# The package's public names at the last change to its layout.
PUBLIC_NAMES = [
    "CanonicalClass", "ExtRational", "INFINITY", "INITIAL", "L", "L_INV", "LayerCounts",
    "R", "R_INV", "Word", "WordSyntaxError", "alternating_layers", "alternating_word",
    "apply_turn_rule", "build_taffy", "build_tangle", "canonical_word", "canonicalize_arith",
    "canonicalize_rewrite", "cf_eval", "cf_expand", "cw_row", "effectiveness_report",
    "equivalent", "fibonacci", "format_cf", "format_tangle", "format_word",
    "four_way_children", "invert_word", "layer_counts", "make", "max_total_layers",
    "neg_recip", "number_trace", "parse_fraction", "parse_tangle", "parse_word", "reduce",
    "render_taffy_svg", "render_tangle_svg", "rotate_canonical", "rotate_taffy",
    "slow_euclid_trace", "taffy_number", "tangle_number", "to_run_form", "verify_taffy",
    "word_to_cf",
]


def test_the_public_names_are_locked_and_resolve():
    assert sorted(pullcalc.__all__) == PUBLIC_NAMES
    assert len(pullcalc.__all__) == 49
    star = {}
    exec("from pullcalc import *", star)
    for name in PUBLIC_NAMES:
        assert star[name] is getattr(pullcalc, name), name
        assert name in vars(pullcalc), name  # cached on first use


def test_an_unknown_name_is_refused():
    with pytest.raises(AttributeError):
        pullcalc.nope
    with pytest.raises(ImportError):
        exec("from pullcalc import nope", {})


def test_the_diagram_package_keeps_the_tangle_arithmetic_names():
    from pullcalc import diagrams, treewalk, words

    assert diagrams.parse_tangle is words.parse_tangle
    assert diagrams.format_tangle is words.format_tangle
    assert diagrams.tangle_number is treewalk.tangle_number


def test_only_json_output_loads_json():
    plain = """
from pullcalc import cli
for argv in (["eval", "R L"], ["canon", "R L"], ["render-taffy", "3/2"]):
    assert cli.run(argv).exit_code == 0, argv
"""
    loaded = loaded_modules(plain)
    assert "pullcalc.cli" in loaded and "json" not in loaded
    assert "json" in loaded_modules(plain + "assert cli.run(['eval', 'R L', '--json']).exit_code == 0")

"""pullcalc: exact arithmetic for taffy pulls and rational tangles.

Every public name is imported from its home module on first use and
then cached here, so a later lookup is a plain attribute read.  Where
bytecode is not cached (``PYTHONDONTWRITEBYTECODE``), Python compiles
every module it imports from source, so the source a command imports
is start-up time; and of the CLI's subcommands only the two render
commands draw.  So ``import pullcalc`` loads no submodule, and the
diagram modules load only when a drawing name is first used.
"""

import importlib

__version__ = "0.1.0"

# home module -> its public names; each name is written here once
_PUBLIC = {
    "analysis": """alternating_layers alternating_word cw_row effectiveness_report
        fibonacci four_way_children max_total_layers""",
    "diagrams": """build_taffy build_tangle render_taffy_svg render_tangle_svg
        rotate_taffy verify_taffy""",
    "rationals": """ExtRational apply_turn_rule cf_eval cf_expand format_cf make
        neg_recip parse_fraction""",
    "treewalk": """INFINITY INITIAL CanonicalClass LayerCounts canonical_word
        canonicalize_arith canonicalize_rewrite equivalent layer_counts
        number_trace rotate_canonical slow_euclid_trace taffy_number
        tangle_number word_to_cf""",
    "words": """L L_INV R R_INV Word WordSyntaxError format_tangle format_word
        invert_word parse_tangle parse_word reduce to_run_form""",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value

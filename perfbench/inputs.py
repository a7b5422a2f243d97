"""Seeded input text for every workload.

Everything the program receives is text in its own notation, made here
from ``--seed`` and nothing else.  Where a workload's cost must not
depend on the seed (the long words and the diagrams), the seed changes
how a fixed value is spelled, or which of its mirror images is drawn,
never the size of the value: the per-layer counts then repeat exactly
for every seed, and the spread between seeds measures the host, not
the inputs.
"""

from __future__ import annotations

import random

import oracle

# --- spelling -------------------------------------------------------------------

def spell(runs, rng: random.Random, names=("R", "L")) -> str:
    """Write runs as text, choosing freely among equivalent spellings.

    A run may be split into pieces, and each piece is written as X^k,
    as k repeated letters, or (for inverses) in lowercase.
    """
    parts = []
    for letter, k in runs:
        if k == 0:
            continue
        remaining = abs(k)
        sign = 1 if k > 0 else -1
        while remaining:
            piece = remaining if remaining <= 3 or rng.random() < 0.6 else rng.randint(1, remaining - 1)
            remaining -= piece
            name = names[letter]
            style = rng.randrange(3)
            if style == 0 or piece > 4:
                parts.append("%s^%d" % (name, sign * piece) if (piece, sign) != (1, 1) else name)
            elif style == 1 and sign < 0:
                parts.append(" ".join([name.lower()] * piece))
            else:
                token = name if sign > 0 else name + "^-1"
                parts.append(" ".join([token] * piece))
    return " ".join(parts) if parts else "e"


def random_turns(rng: random.Random, n: int):
    """n turns, all four kinds equally likely, as single-turn runs."""
    return [(rng.randrange(2), rng.choice((1, -1))) for _ in range(n)]


# --- algebra-short ----------------------------------------------------------------

SHORT_BATCHES = 8
SHORT_WORDS = 250
SHORT_MAX_TURNS = 40
SHORT_CW_DEPTHS = (6, 7, 8, 9)
SHORT_REPORT_TURNS = 40
SHORT_BRUTE_LENGTH = 11


def algebra_short(seed: int):
    """Batches of short words; each batch also names a tree row and a report."""
    rng = random.Random("algebra-short/%d" % seed)
    batches = []
    for b in range(SHORT_BATCHES):
        texts = [spell(random_turns(rng, rng.randint(1, SHORT_MAX_TURNS)), rng) for _ in range(SHORT_WORDS)]
        report = spell([(rng.randrange(2), 1) for _ in range(SHORT_REPORT_TURNS)], rng)
        batches.append(
            {
                "words": texts,
                "cw_depth": SHORT_CW_DEPTHS[b % len(SHORT_CW_DEPTHS)],
                "report": report,
                "brute": SHORT_BRUTE_LENGTH,
            }
        )
    return batches


# --- algebra-long -------------------------------------------------------------------

LONG_BUNDLES = 2
# Fixed values; the seed only rewrites how they are written.
_BASE = random.Random("algebra-long/base")
MIXED_BASE = [(i % 2, _BASE.randint(1, 3)) for i in range(750)]
FORWARD_BASE = [(i % 2, _BASE.randint(1, 3)) for i in range(2000)]
EXPONENT_BASE = [(0, 131071), (1, -3), (0, 7), (1, 65537), (0, -40009), (1, 2), (0, 30011), (1, -5)]
EXPONENT_PAIR = 40000
# Words that act as the identity on every fraction: (R L^-1)^3 and
# (R L^-1 R)^2 are -I in SL(2, Z).
_RELATORS = (
    [(0, 1), (1, -1), (0, 1), (1, -1), (0, 1), (1, -1)],
    [(0, 1), (1, -1), (0, 1), (0, 1), (1, -1), (0, 1)],
)
MIXED_CANCEL_PAIRS = 300
MIXED_RELATORS = 150
MIXED_CONJUGATES = 250


def _inverse(turns):
    return [(letter, -k) for letter, k in reversed(turns)]


def scramble(base_runs, rng: random.Random):
    """The same value, written as a longer mixed word with cancellations.

    Inserts cancelling pairs, conjugated cancelling pairs and relators
    (and their inverses) at seeded positions; none changes the value.
    """
    turns = []
    for letter, k in base_runs:
        turns.extend([(letter, 1 if k > 0 else -1)] * abs(k))
    gadgets = []
    for _ in range(MIXED_CANCEL_PAIRS):
        t = random_turns(rng, 1)
        gadgets.append(t + _inverse(t))
    for _ in range(MIXED_RELATORS):
        r = list(rng.choice(_RELATORS))
        gadgets.append(r if rng.random() < 0.5 else _inverse(r))
    for _ in range(MIXED_CONJUGATES):
        t = random_turns(rng, 2)
        gadgets.append(t + _inverse(t))
    slots = sorted(rng.randrange(len(turns) + 1) for _ in gadgets)
    rng.shuffle(gadgets)
    out = []
    prev = 0
    for slot, gadget in zip(slots, gadgets):
        out.extend(turns[prev:slot])
        out.extend(gadget)
        prev = slot
    out.extend(turns[prev:])
    return out


def algebra_long(seed: int):
    rng = random.Random("algebra-long/%d" % seed)
    bundles = []
    for _ in range(LONG_BUNDLES):
        sign = rng.choice((1, -1))
        mixed = [(letter, sign * k) for letter, k in scramble(MIXED_BASE, rng)]
        exponent = list(EXPONENT_BASE)
        at = rng.randrange(len(exponent) + 1)
        letter = rng.randrange(2)
        pair = [(letter, EXPONENT_PAIR), (letter, -EXPONENT_PAIR)]
        if rng.random() < 0.5:
            pair.reverse()
        exponent[at:at] = pair
        bundles.append(
            {
                "mixed": spell(mixed, rng),
                "forward": spell(FORWARD_BASE, rng),
                "exponent": spell(exponent, rng),
            }
        )
    return bundles


# --- diagrams ---------------------------------------------------------------------

# Taffy values from tens of pieces (8/13: 88) to a few thousand
# (233/377: 2,583), an odd count so the median falls in one size.
TAFFY_SPREAD = ((8, 13), (21, 34), (43, 100), (144, 233), (233, 377))
TANGLE_TWISTS = 300


def diagrams(seed: int):
    """One (taffy fraction, tangle word) pair per spread size.

    The seed draws the tangle words and picks, for each size, one of
    the four values a/b, b/a, -a/b, -b/a: their diagrams are mirror
    images and rotations of one another, with equal piece and pair
    counts.
    """
    rng = random.Random("diagrams/%d" % seed)
    ops = []
    for a, b in TAFFY_SPREAD:
        if rng.random() < 0.5:
            a, b = b, a
        if rng.random() < 0.5:
            a = -a
        ops.append(
            {
                "taffy": "%d/%d" % (a, b),
                "tangle": spell(random_turns(rng, TANGLE_TWISTS), rng, names=("V", "H")),
            }
        )
    return ops


# --- cli-cold -------------------------------------------------------------------------

OVERFLOW_EVAL = "R^100000000000000000000000"


def cli_commands(seed: int):
    """One round of CLI invocations.

    The last one, a 23-digit exponent, fails for as long as exponents
    are expanded into single turns (see README.md).
    """
    rng = random.Random("cli-cold/%d" % seed)

    def word(n):
        return spell(random_turns(rng, n), rng)

    def fraction(lo, hi, positive=False):
        while True:
            num = rng.randint(lo, hi) * (1 if positive else rng.choice((1, -1)))
            den = rng.randint(1, hi)
            v = oracle.Value(num, den)
            if v.num != 0:
                return str(v)

    twists = spell(random_turns(rng, 12), rng, names=("V", "H"))
    return [
        ["eval", word(30)],
        ["eval", word(30), "--json"],
        ["eval", word(12), "--trace"],
        ["canon", word(40)],
        ["equiv", word(20), word(20)],
        ["invert", fraction(1, 500)],
        ["invert", fraction(1, 500), "--mode", "slow"],
        ["cf", fraction(1, 500, positive=True)],
        ["tree", str(rng.randint(4, 7))],
        ["children", fraction(1, 50)],
        ["maxlayers", str(rng.randint(10, 30))],
        ["maxlayers", str(rng.randint(8, 11)), "--brute"],
        ["report", word(25)],
        ["tangle-eval", spell(random_turns(rng, 20), rng, names=("V", "H"))],
        ["render-taffy", fraction(1, 9), "-o", "-"],
        ["render-tangle", twists, "-o", "-"],
        ["eval", OVERFLOW_EVAL],
    ]

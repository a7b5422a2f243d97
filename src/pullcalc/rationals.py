"""Exact fractions extended with a single point at infinity.

The turn rules walk through 1/0 (a vertical stack of layers has no
left-hand layer at all), so the standard library Fraction is out: it
refuses a zero denominator.  ExtRational keeps the usual lowest-terms
normal form and folds both signed infinities into 1/0.
"""

from __future__ import annotations

import math
import re
import sys
from typing import Iterable, Sequence

from pullcalc import kernel

ContinuedFraction = tuple  # tuple[int, ...]

_FRACTION_RE = re.compile(r"\s*(-?)(\d+)(?:/(\d+))?\s*\Z")


class ExtRational:
    """A fraction num/den in lowest terms, den >= 0.

    den == 0 encodes the point at infinity, always stored as 1/0.
    0/0 has no home here and is rejected outright.  It is built like a
    Word: ``ExtRational(num, den)`` takes the gcd, ``_coprime`` takes a
    pair already in lowest terms, and both store it by ``_normalize``.
    Nothing assigns to a fraction once it is built (there is no
    ``__setattr__`` guard, which would nearly double the cost of
    building one).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if not num and not den:
            raise ValueError("0/0 has no normal form")
        g = math.gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        self._normalize(num, den)

    @classmethod
    def _coprime(cls, num: int, den: int) -> "ExtRational":
        """num/den from a pair already in lowest terms: no gcd is taken."""
        self = object.__new__(cls)
        self._normalize(num, den)
        return self

    def _normalize(self, num: int, den: int) -> None:
        """Store a coprime pair with its sign on the numerator and n/0
        as 1/0."""
        if den < 0:
            num, den = -num, -den
        elif den == 0:
            num = 1
        self.num = num
        self.den = den

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtRational):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        return "%d/%d" % (self.num, self.den)

    def __repr__(self) -> str:
        return "ExtRational(%d, %d)" % (self.num, self.den)


def make(num: int, den: int = 1) -> ExtRational:
    """Normalize num/den into an ExtRational."""
    return ExtRational(num, den)


# Looked up once; Python 3.10.0-3.10.6 converts ints of any length.
_get_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def digit_limit() -> int:
    """The most digits Python converts an int to or from (0: no limit)."""
    return _get_digit_limit()


def _integer(digits: str, what: str) -> int:
    """int() of a run of decimal digits, a fraction's term or an exponent.

    Leading zeros aside, in any script, more digits than
    ``sys.get_int_max_str_digits()`` are refused, as ``what`` longer
    than that many digits, before int() is asked, which would refuse
    them with advice meant for the programmer.
    """
    digits = digits.lstrip("0")
    limit = digit_limit()
    if limit and len(digits) > limit:
        # a zero of another script (Arabic-Indic, fullwidth, ...) leads no value either
        first = next((i for i, d in enumerate(digits) if int(d)), len(digits))
        digits = digits[first:]
        if len(digits) > limit:
            raise ValueError("%s longer than %d digits" % (what, limit))
    return int(digits or "0")


def parse_fraction(text: str) -> ExtRational:
    """Parse "a/b", "-a/b" or a bare integer; "1/0" is accepted."""
    match = _FRACTION_RE.match(text)
    if not match:
        raise ValueError("not a fraction: %r" % text)
    sign, num, den = match.groups()
    num = (-1 if sign else 1) * _integer(num, "not a fraction: numerator")
    den = 1 if den is None else _integer(den, "not a fraction: denominator")
    if num == 0 and den == 0:
        raise ValueError("not a fraction: 0/0")
    return ExtRational(num, den)


def apply_turn_rule(q: ExtRational, turn: int) -> ExtRational:
    """One step of the four-way walk from q, by ``kernel.fold_turns``.

    The result is in lowest terms with a non-negative denominator; at
    1/0 both R rules are fixed points and the L rules step to +-1/1.
    """
    return ExtRational._coprime(*kernel.fold_turns((turn,), q.num, q.den))


def neg_recip(q: ExtRational) -> ExtRational:
    """-1/q, exchanging 0/1 and 1/0."""
    return ExtRational(-q.den, q.num)


def cf_eval(coeffs: Sequence[int]) -> ExtRational:
    """Value of the continued fraction [c0; c1, ..., ck].

    Total over all integer coefficients: a zero along the way just
    passes through 1/0 and comes back, so expressions like [2, 0, 2]
    still land on an exact answer.
    """
    coeffs = list(coeffs)
    if not coeffs:
        raise ValueError("a continued fraction needs at least one coefficient")
    # c + 1/(p/q) = (c*p + q)/p is unimodular, so p/q stays in lowest
    # terms from the first coefficient over 1 to the end.
    p, q = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        p, q = c * p + q, p
    return ExtRational._coprime(p, q)


def cf_expand(q: ExtRational) -> ContinuedFraction:
    """Canonical expansion of a non-negative finite fraction.

    The classical division loop: the last coefficient is >= 2 unless
    the whole expansion is a single integer, which makes the output
    unique.
    """
    if q.den == 0:
        raise ValueError("1/0 has no expansion")
    if q.num < 0:
        raise ValueError("negative fractions have no canonical expansion here")
    coeffs = []
    a, b = q.num, q.den
    while b:
        quo, rem = divmod(a, b)
        coeffs.append(quo)
        a, b = b, rem
    return tuple(coeffs)


def format_cf(coeffs: Iterable[int]) -> str:
    """Standard bracket notation: [c0; c1, c2, ...]."""
    coeffs = list(coeffs)
    if not coeffs:
        raise ValueError("a continued fraction needs at least one coefficient")
    if len(coeffs) == 1:
        return "[%d]" % coeffs[0]
    return "[%d; %s]" % (coeffs[0], ", ".join(str(c) for c in coeffs[1:]))

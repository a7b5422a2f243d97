"""The four turn rules, folded over words of raw turn codes.

R sends a/b to (a+b)/b, L sends it to a/(a+b), and the reverse turns
subtract instead.  This module is the only place those rules are
written out; every other fold in the package goes through
``fold_turns``.  Seeds are assumed to be in lowest terms; the four
rules preserve the gcd, so the results are too.
"""

from __future__ import annotations


def fold_turns(word, num=0, den=1):
    """Fold the turn rules over ``word`` starting from num/den.

    Returns the final (num, den) pair with the denominator sign
    normalized and any n/0 collapsed to 1/0.
    """
    a, b = num, den
    for t in word:
        if t == 0:
            a = a + b
        elif t == 1:
            b = a + b
        elif t == 2:
            a = a - b
        elif t == 3:
            b = b - a
        else:
            raise ValueError("bad turn code %r" % (t,))
        if b < 0:
            a, b = -a, -b
        elif b == 0:
            a = 1
    return a, b

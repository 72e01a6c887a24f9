"""Exact serialization helpers shared by the library and the CLI.

Rationals travel as "num/den" strings (bare integer string when the
denominator is 1); no floating-point value is ever produced.
"""

from __future__ import annotations

from fractions import Fraction


def frac_str(x) -> str:
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"

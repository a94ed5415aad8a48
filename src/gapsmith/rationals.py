"""Exact rational values and their wire format.

Every coordinate, length and slope in this package is a ``fractions.Fraction``.
On the wire a rational is the string ``"p/q"`` (or ``"p"`` when q == 1), in
lowest terms with a positive denominator; anything else is rejected so that
serialized artifacts are canonical.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rational = Fraction

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


class MalformedRational(ValueError):
    """String is not the canonical literal of a rational (see the module docstring)."""


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"``, accepting exactly the text that
    :func:`format_rational` writes for the value, up to surrounding blanks."""
    literal = text.strip()
    if _RATIONAL_RE.fullmatch(literal) is None:
        raise MalformedRational(f"not a rational literal: {text!r}")
    num, _, den = literal.partition("/")
    try:
        value = Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise MalformedRational(f"zero denominator: {text!r}") from None
    except ValueError as exc:  # more digits than int() converts
        raise MalformedRational(f"too many digits: {text[:20]!r}...") from exc
    if format_rational(value) != literal:
        raise MalformedRational(f"not in canonical form: {text!r}")
    return value


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"

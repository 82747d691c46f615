"""The field Q(q,t) of sympy's ``polys`` layer, which kept qtmac's scalars
before they kept their denominators factored: the reference that
``qtmac.scalar.Scalar`` is checked against."""

from fractions import Fraction

from sympy.polys.domains import ZZ
from sympy.polys.fields import field
from sympy.polys.orderings import grlex

FIELD, Q, T = field("q,t", ZZ, grlex)


def poly_text(p) -> str:
    """Canonical text of an integer polynomial, grlex-descending terms."""
    if not p:
        return "0"
    chunks = []
    for (eq, et), c in p.terms():
        c = int(c)
        mono = "*".join(s for s in (
            "" if eq == 0 else ("q" if eq == 1 else f"q^{eq}"),
            "" if et == 0 else ("t" if et == 1 else f"t^{et}")) if s)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not chunks:
            chunks.append(("-" if c < 0 else "") + body)
        else:
            chunks.append((" - " if c < 0 else " + ") + body)
    return "".join(chunks)


def num_den_text(x) -> tuple[str, str]:
    return poly_text(x.numer), poly_text(x.denom)


def evaluate(x, qval: Fraction, tval: Fraction) -> Fraction:
    """x at a rational point; ZeroDivisionError where its denominator
    vanishes there."""
    def ev(poly):
        return sum((Fraction(int(c)) * qval ** i * tval ** j
                    for (i, j), c in poly.terms()), Fraction(0))

    return ev(x.numer) / ev(x.denom)

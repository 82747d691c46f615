"""Exact coefficient arithmetic.

Scalars live in the field Q(q,t) of rational functions in the two parameters,
kept in canonical reduced form: numerator and denominator are integer
polynomials with no common factor and no common content, and the denominator
has positive leading coefficient under the graded-lexicographic term order
with q before t.

Every denominator the paper's objects meet is a monomial times hook-type
factors such as 1 - q^a t^b, so a :class:`Scalar` keeps its denominator
factored (:class:`Factored`): an integer content, a monomial q^i t^j and a
multiset of irreducible factors.  Products add the multisets, sums take
their lcm, and a fraction is reduced by exact division of the numerator by
each factor of the denominator, never by a polynomial gcd.  Most factors are
*line factors* g(q^a t^b) with g univariate and gcd(a, b) = 1; after a
unimodular change of variables, dividing by one is univariate synthetic
division along each line of the numerator's support.  A polynomial that
becomes a denominator is factored by trial division: by the cyclotomic
factors of the edge polynomials of its Newton polygon (every line factor
divides one of those), then by the factors sympy found before.  Only a
cofactor left over after that goes to sympy's ``factor_list``, which is
imported at the first such call; the calls are counted by reason in
:data:`FALLBACKS`.

A "specialized" mode replaces the symbolic field by exact ``Fraction``
arithmetic after substituting rational values for (q,t).  Both modes expose
the same operations through :class:`ScalarContext`, whose ``inverted()``
computes at the reciprocal parameters (1/q, 1/t) in either mode.

Every field operation normalises.  Code that combines many scalars
therefore works one level down, in the ring: ``ScalarContext.parts`` splits
a scalar into a numerator and a denominator (integer polynomials in q,t
symbolically, a denominator kept factored; ints at a rational point), ring
sums and products of parts need no normalisation,
``ScalarContext.cancel_common`` divides out what a denominator shares with
its numerators, and ``ScalarContext.quotient`` normalises the result once.
"""

from __future__ import annotations

import collections
import functools
import heapq
import math
import operator
from fractions import Fraction


class AlgebraError(ValueError):
    """Invalid algebraic operation (zero denominator, arity mismatch, ...)."""


class SpecializationError(AlgebraError):
    """A denominator vanishes at the chosen (q,t) point."""


def memo(fn):
    """Decorator memoising fn on each call's arguments as given, so a hit
    runs no code of fn, which reads its labels in its body.  An unhashable
    argument, such as a list label, is computed and not stored.  It is the
    package's one cache."""
    table = {}

    @functools.wraps(fn)  # a function, not a cache object: tracers wrap it
    def cached(*args, **kwargs):
        key = (args, *kwargs.items()) if kwargs else args
        try:
            return table[key]
        except KeyError:
            return table.setdefault(key, fn(*args, **kwargs))
        except TypeError:
            return fn(*args, **kwargs)

    return cached


# ---------------------------------------------------------------------------
# bivariate integer polynomials (numerators / denominators)
# ---------------------------------------------------------------------------
#
# A monomial q^i t^j (i, j >= 0) is packed into the int i << _SHIFT | j, so
# that multiplying monomials is adding ints.

_SHIFT = 32
_MASK = (1 << _SHIFT) - 1
# added to a packed exponent of t that may go negative for a while
_OFFSET = 1 << (_SHIFT - 1)


def _pack(i: int, j: int) -> int:
    return i << _SHIFT | j


def _grlex_key(k: int) -> int:
    """An int that orders packed monomials as grlex with q before t does."""
    i = k >> _SHIFT
    return (i + (k & _MASK)) << _SHIFT | i


class Poly(dict):
    """An integer polynomial in q, t: {packed monomial: nonzero int}.

    Supports the ring operations with other polynomials, :class:`Factored`
    polynomials and ints, and compares as the dict it is; treat it as
    immutable.
    """

    __slots__ = ()

    def __add__(self, other):
        if type(other) is not Poly:
            other = _ring_operand(other)
            if other is NotImplemented:
                return NotImplemented
        if len(self) < len(other):
            self, other = other, self
        acc = Poly(self)
        for k, c in other.items():
            s = acc.get(k, 0) + c
            if s:
                acc[k] = s
            else:
                del acc[k]
        return acc

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Poly:
            other = _ring_operand(other)
            if other is NotImplemented:
                return NotImplemented
        acc = Poly(self)
        for k, c in other.items():
            s = acc.get(k, 0) - c
            if s:
                acc[k] = s
            else:
                del acc[k]
        return acc

    def __neg__(self):
        return Poly({k: -c for k, c in self.items()})

    def __mul__(self, other):
        kind = type(other)
        if kind is Poly:
            return _poly_mul(self, other)
        if kind is Factored:
            return other * self
        if kind is int:
            if not other:
                return Poly()
            return Poly({k: c * other for k, c in self.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        result, base = _ONE_POLY, self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __hash__(self):
        return hash(frozenset(self.items()))

    def terms(self) -> list:
        """[((i, j), c)] in grlex-descending order."""
        return [((k >> _SHIFT, k & _MASK), self[k])
                for k in sorted(self, key=_grlex_key, reverse=True)]


def _const(c: int) -> Poly:
    return Poly({0: c}) if c else Poly()


_ONE_POLY = Poly({0: 1})


def _poly_mul(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return Poly()
    if len(b) == 1:
        (kb, cb), = b.items()
        if cb == 1:
            return Poly({k + kb: c for k, c in a.items()})
        return Poly({k + kb: c * cb for k, c in a.items()})
    (kb, cb), *others = b.items()
    acc = {ka + kb: ca * cb for ka, ca in a.items()}
    get = acc.get
    for kb, cb in others:
        for ka, ca in a.items():
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    return Poly({k: c for k, c in acc.items() if c})


def _ring_operand(x):
    """x as a Poly for a ring operation, or NotImplemented."""
    if isinstance(x, Factored):
        return x.expand()
    if isinstance(x, int):
        return _const(x)
    return NotImplemented


def _expand(x) -> Poly:
    """The ring element x (Poly, Factored or int) as a Poly."""
    if type(x) is Poly:
        return x
    if type(x) is Factored:
        return x.expand()
    return _const(x)


# ---------------------------------------------------------------------------
# irreducible factors and exact division
# ---------------------------------------------------------------------------

def _unimodular(a: int, b: int) -> tuple[int, int]:
    """(c, d) with a d - b c = 1, for coprime a, b."""
    x0, x1, y0, y1, r0, r1 = 1, 0, 0, 1, a, b
    while r1:
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    if r0 < 0:
        x0, y0 = -x0, -y0
    return -y0, x0


def _direction(di: int, dj: int) -> tuple[int, int]:
    """The primitive vector along (di, dj), pointing to a > 0 or to
    (0, b > 0)."""
    g = math.gcd(di, dj)
    a, b = di // g, dj // g
    return (a, b) if a > 0 or (a == 0 and b > 0) else (-a, -b)


class Factor:
    """An irreducible, primitive integer polynomial with no monomial factor
    and positive leading coefficient, interned: one object per polynomial,
    so factors compare and hash by identity.

    ``line`` is (a, b, c, d, x0, y0, g) for a line factor, whose terms all
    lie on one line q^i t^j = q^(a x + c y) t^(b x + d y), y = y0: it is
    q^(a x0 + c y0) t^(b x0 + d y0) g(q^a t^b) with g[k] the coefficient
    at x = x0 + k.  It is None for any other factor.
    """

    __slots__ = ("poly", "line")

    def __init__(self, poly: Poly):
        self.poly = poly
        self.line = None
        if _on_one_line(poly):
            (k0, k1, *_) = poly
            i0, j0 = k0 >> _SHIFT, k0 & _MASK
            a, b = _direction((k1 >> _SHIFT) - i0, (k1 & _MASK) - j0)
            c, d = _unimodular(a, b)
            xs = {d * (k >> _SHIFT) - c * (k & _MASK): v for k, v in poly.items()}
            x0 = min(xs)
            coeffs = [0] * (max(xs) - x0 + 1)
            for x, v in xs.items():
                coeffs[x - x0] = v
            self.line = (a, b, c, d, x0, a * j0 - b * i0, coeffs)

    def __repr__(self):
        return f"Factor({_ring_poly_text(self.poly)})"


def _on_one_line(p: Poly) -> bool:
    """Whether the terms of p, two or more, lie on one line."""
    (k0, k1, *others) = p
    i0, j0 = k0 >> _SHIFT, k0 & _MASK
    di, dj = (k1 >> _SHIFT) - i0, (k1 & _MASK) - j0
    return all(((k >> _SHIFT) - i0) * dj == ((k & _MASK) - j0) * di
               for k in others)


_SYMPY_FOUND: list = []     # the factors that only sympy found, in order


@memo
def _intern(poly: Poly) -> Factor:
    """The one Factor of poly; a Poly hashes by its terms, so equal
    polynomials share it."""
    return Factor(poly)


@memo
def _factor_power(f: Factor, m: int) -> Poly:
    return f.poly ** m


def _divide(p: Poly, f: Factor) -> Poly | None:
    """p / f if f divides p exactly, else None."""
    if f.line is None:
        return _divide_general(p, f.poly)
    a, b, c, d, x0, y0, g = f.line
    lines: dict = {}
    for k, v in p.items():
        i, j = k >> _SHIFT, k & _MASK
        y = a * j - b * i
        line = lines.get(y)
        if line is None:
            lines[y] = {d * i - c * j: v}
        else:
            line[d * i - c * j] = v
    out = Poly()
    for y, line in lines.items():
        lo = min(line)
        coeffs = [0] * (max(line) - lo + 1)
        for x, v in line.items():
            coeffs[x - lo] = v
        quo = _udiv(coeffs, g)
        if quo is None:
            return None
        yy = y - y0
        base_i, base_j = c * yy, d * yy
        for s, qc in enumerate(quo, lo - x0):
            if qc:
                out[(a * s + base_i) << _SHIFT | (b * s + base_j)] = qc
    return out


def _divide_general(p: Poly, f: Poly) -> Poly | None:
    """p / f by division with remainder in grlex order, None unless exact."""
    kf = max(f, key=_grlex_key)
    cf = f[kf]
    fi, fj = kf >> _SHIFT, kf & _MASK
    tail = [(k - kf, c) for k, c in f.items() if k != kf]
    rem = Poly(p)
    heap = [-_grlex_key(k) for k in rem]
    heapq.heapify(heap)
    keys = {_grlex_key(k): k for k in rem}
    out = Poly()
    while rem:
        k = keys[-heapq.heappop(heap)]
        c = rem.pop(k, 0)
        if not c:
            continue
        if (k >> _SHIFT) < fi or (k & _MASK) < fj:
            return None
        qc, r = divmod(c, cf)
        if r:
            return None
        shift = k - kf
        out[shift] = qc
        for kk, cc in tail:
            k2 = kk + k
            v = rem.get(k2, 0) - qc * cc
            if v:
                if k2 not in rem:
                    g2 = _grlex_key(k2)
                    keys[g2] = k2
                    heapq.heappush(heap, -g2)
                rem[k2] = v
            else:
                rem.pop(k2, None)
    return out


# ---------------------------------------------------------------------------
# factoring by trial division
# ---------------------------------------------------------------------------

@memo
def _cyclotomic_indices(degree: int) -> tuple[tuple[int, int], ...]:
    """(e, totient(e)) for every e with totient(e) <= degree, in increasing
    e, from one sieve; totient(e) >= sqrt(e) for every e but 2 and 6 bounds
    e by max(degree^2, 6)."""
    limit = max(degree * degree, 6)
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p is prime
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return tuple((e, phi[e]) for e in range(1, limit + 1) if phi[e] <= degree)


def _udiv(g: list, h) -> list | None:
    """g / h for univariate integer coefficient lists (low to high), or None
    unless exact."""
    dg = len(h) - 1
    span = len(g) - 1
    if span < dg:
        return None
    rem = list(g)
    quo = [0] * (span - dg + 1)
    lead = h[-1]
    for s in range(span - dg, -1, -1):
        r = rem[s + dg]
        if r:
            qc, rr = divmod(r, lead)
            if rr:
                return None
            quo[s] = qc
            for m in range(dg):
                rem[s + m] -= qc * h[m]
    if any(rem[:dg]):
        return None
    return quo


@memo
def _cyclotomic(e: int) -> tuple[int, ...]:
    """The coefficients of the cyclotomic polynomial Phi_e, low to high."""
    g = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            g = _udiv(g, _cyclotomic(d))
    return tuple(g)


@memo
def _cyclotomic_factors(coeffs: tuple) -> tuple:
    """((e, multiplicity), ...) for the cyclotomic Phi_e dividing the
    univariate polynomial with these coefficients (low to high), found by
    exact division."""
    g = list(coeffs)
    out = []
    for e, phi in _cyclotomic_indices(len(g) - 1):
        if phi > len(g) - 1:
            continue
        m = 0
        while True:
            quo = _udiv(g, _cyclotomic(e))
            if quo is None:
                break
            g, m = quo, m + 1
        if m:
            out.append((e, m))
    return tuple(out)


@memo
def _line_factor(a: int, b: int, e: int) -> Factor:
    """Phi_e(q^a t^b) as a Factor (times the power of t that makes it a
    polynomial when b < 0)."""
    g = _cyclotomic(e)
    shift = -b * (len(g) - 1) if b < 0 else 0
    poly = Poly({_pack(a * k, b * k + shift): c for k, c in enumerate(g) if c})
    if poly[max(poly, key=_grlex_key)] < 0:
        poly = -poly
    return _intern(poly)


def _hull(points: list) -> list:
    """The vertices of the convex hull of distinct points, in order."""
    points = sorted(points)
    if len(points) < 3:
        return points

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                    (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                    - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = half(points), half(reversed(points))
    return lower[:-1] + upper[:-1]


def _edge_factors(p: Poly) -> list:
    """The line factors Phi_e(q^a t^b) that divide an edge polynomial of the
    Newton polygon of p: the candidates for its line factors."""
    points = [(k >> _SHIFT, k & _MASK) for k in p]
    hull = _hull(points)
    found = []
    for v, w in zip(hull, hull[1:] + hull[:1]):
        if v == w:
            continue
        a, b = _direction(w[0] - v[0], w[1] - v[1])
        c, d = _unimodular(a, b)
        y0 = a * v[1] - b * v[0]
        edge = {d * i - c * j: p[_pack(i, j)] for i, j in points
                if a * j - b * i == y0}
        lo = min(edge)
        coeffs = [0] * (max(edge) - lo + 1)
        for x, v_ in edge.items():
            coeffs[x - lo] = v_
        for e, _ in _cyclotomic_factors(tuple(coeffs)):
            f = _line_factor(a, b, e)
            if f not in found:
                found.append(f)
    return found


# sympy factor_list calls, by reason: a cofactor left after trial division
# whose terms lie on one line ("line") or not ("general")
FALLBACKS: collections.Counter = collections.Counter()


@memo
def _sympy_ring():
    """sympy's ring Z[q,t] in grlex order, imported at the first fallback."""
    from sympy.polys.domains import ZZ
    from sympy.polys.orderings import grlex
    from sympy.polys.rings import ring

    return ring("q,t", ZZ, grlex)[0]


def _sympy_factors(p: Poly) -> list:
    """[(Factor, multiplicity)] of a primitive p with no monomial factor,
    from sympy's factor_list, counted in FALLBACKS.  Each factor is kept in
    _SYMPY_FOUND, so trial division finds it in any later cofactor."""
    FALLBACKS["line" if _on_one_line(p) else "general"] += 1
    _, pairs = _sympy_ring().from_dict(
        {(k >> _SHIFT, k & _MASK): c for k, c in p.items()}).factor_list()
    found = []
    for f, m in pairs:
        poly = Poly({_pack(i, j): int(c) for (i, j), c in f.items()})
        if poly[max(poly, key=_grlex_key)] < 0:
            poly = -poly
        f = _intern(poly)
        if f not in _SYMPY_FOUND:
            _SYMPY_FOUND.append(f)
        found.append((f, m))
    return found


@memo
def _binomial_factors(a: int, b: int, e: int, plus: bool):
    """({Phi_d(q^a t^b): 1}, the sum of their leading monomials) over the d
    with u^e - 1, or u^e + 1 when ``plus``, the product of the Phi_d(u)."""
    ds = [d for d in range(1, 2 * e + 1)
          if (2 * e) % d == 0 and (e % d != 0) == plus]
    fac = {_line_factor(a, b, d): 1 for d in ds}
    return fac, sum(max(f.poly, key=_grlex_key) for f in fac)


def _factor_poly(p: Poly) -> "Factored":
    """The nonzero polynomial p as a Factored with every factor irreducible."""
    if len(p) == 1:
        (k, c), = p.items()
        return Factored(c, k, _NO_FACTORS)
    if len(p) == 2:
        (k1, c1), (k2, c2) = p.items()
        if abs(c1) == abs(c2):
            # c (m1 + m2) or c (m1 - m2): a binomial u^e +- 1 along a line
            di, dj = (k2 >> _SHIFT) - (k1 >> _SHIFT), (k2 & _MASK) - (k1 & _MASK)
            a, b = _direction(di, dj)
            fac, lead = _binomial_factors(a, b, math.gcd(di, dj), c1 == c2)
            k = max(k1, k2, key=_grlex_key)
            return Factored(p[k], k - lead, fac)
    mi = min(k >> _SHIFT for k in p)
    mj = min(k & _MASK for k in p)
    mono = _pack(mi, mj)
    content = math.gcd(*p.values())
    if p[max(p, key=_grlex_key)] < 0:
        content = -content
    rest = Poly({k - mono: c // content for k, c in p.items()})
    fac: dict = {}

    def peel(candidates):
        nonlocal rest
        for f in candidates:
            while len(rest) > 1:
                quo = _divide(rest, f)
                if quo is None:
                    break
                rest = quo
                fac[f] = fac.get(f, 0) + 1

    peel(_edge_factors(rest))
    if len(rest) > 1:
        peel(list(_SYMPY_FOUND))
    if len(rest) > 1:
        for f, m in _sympy_factors(rest):
            fac[f] = fac.get(f, 0) + m
    return Factored(content, mono, fac)


# ---------------------------------------------------------------------------
# factored polynomials
# ---------------------------------------------------------------------------

_NO_FACTORS: dict = {}


class Factored:
    """The integer polynomial c q^i t^j prod f^m, times ``rest``.

    c is a nonzero int, ``mono`` the packed monomial q^i t^j, ``fac`` maps
    irreducible :class:`Factor`s to multiplicities, and ``rest`` is a
    :class:`Poly` whose factors are not known yet, or None.  Products stay
    factored; sums expand.  Treat it as immutable.
    """

    __slots__ = ("c", "mono", "fac", "rest", "_terms")

    def __init__(self, c: int, mono: int, fac: dict, rest: Poly | None = None):
        if rest is not None and len(rest) == 1:
            (k, v), = rest.items()
            c, mono, rest = c * v, mono + k, None
        self.c = c
        self.mono = mono
        self.fac = fac
        self.rest = rest
        self._terms = None

    @property
    def trivial(self) -> bool:
        """Whether this is the constant 1."""
        return self.c == 1 and not self.mono and not self.fac \
            and self.rest is None

    def expand(self) -> Poly:
        if self._terms is None:
            p = self.rest if self.rest is not None else _ONE_POLY
            for f, m in self.fac.items():
                p = p * _factor_power(f, m)
            mono, c = self.mono, self.c
            if mono or c != 1:
                p = Poly({k + mono: v * c for k, v in p.items()})
            self._terms = p
        return self._terms

    def full(self) -> "Factored":
        """The same polynomial with ``rest`` factored too."""
        if self.rest is None:
            return self
        r = _factor_poly(self.rest)
        return Factored(self.c * r.c, self.mono + r.mono,
                        _merge(self.fac, r.fac))

    def __mul__(self, other):
        kind = type(other)
        if kind is Factored:
            if other.rest is None:
                rest = self.rest
            elif self.rest is None:
                rest = other.rest
            else:
                rest = self.rest * other.rest
            return Factored(self.c * other.c, self.mono + other.mono,
                            _merge(self.fac, other.fac), rest)
        if kind is Poly:
            if not other:
                return Poly()
            if not self.fac and self.rest is None:
                mono, c = self.mono, self.c
                return Poly({k + mono: v * c for k, v in other.items()})
            return Factored(self.c, self.mono, self.fac,
                            other if self.rest is None else self.rest * other)
        if kind is int:
            if not other:
                return Poly()
            return Factored(self.c * other, self.mono, self.fac, self.rest)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return Factored(self.c ** k, self.mono * k,
                        {f: m * k for f, m in self.fac.items()} if k else
                        _NO_FACTORS,
                        None if self.rest is None else self.rest ** k)

    def __neg__(self):
        return Factored(-self.c, self.mono, self.fac, self.rest)

    def __add__(self, other):
        return self.expand() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self.expand() - other

    def __bool__(self):
        return True

    def __eq__(self, other):
        if type(other) is Factored and self.rest is None \
                and other.rest is None:
            # factorisations into irreducibles are unique
            return (self.c == other.c and self.mono == other.mono
                    and self.fac == other.fac)
        if isinstance(other, (Factored, Poly, int)):
            return self.expand() == _expand(other)
        return NotImplemented

    def __repr__(self):
        return f"Factored({_ring_poly_text(self.expand())})"


def _merge(a: dict, b: dict) -> dict:
    if not b:
        return a
    if not a:
        return b
    out = dict(a)
    for f, m in b.items():
        out[f] = out.get(f, 0) + m
    return out


_ONE_F = Factored(1, 0, _NO_FACTORS)


def _as_factored(x) -> Factored:
    """The nonzero ring element x as a Factored with every factor known."""
    if type(x) is Factored:
        return x.full()
    if type(x) is Poly:
        return _factor_poly(x)
    return Factored(x, 0, _NO_FACTORS)


def _lcm_cofactors(a: Factored, b: Factored):
    """(L, L / a, L / b) for the lcm L of two fully factored a, b with
    positive content."""
    fac = dict(a.fac)
    for f, m in b.fac.items():
        if m > fac.get(f, 0):
            fac[f] = m
    mono = _pack(max(a.mono >> _SHIFT, b.mono >> _SHIFT),
                 max(a.mono & _MASK, b.mono & _MASK))
    lcm = Factored(math.lcm(a.c, b.c), mono, fac)
    return lcm, _cofactor(lcm, a), _cofactor(lcm, b)


def _cofactor(big: Factored, x: Factored) -> Factored:
    """big / x for fully factored x dividing big."""
    if x.trivial:
        return big
    return Factored(big.c // x.c, big.mono - x.mono,
                    {f: m - x.fac.get(f, 0) for f, m in big.fac.items()
                     if m > x.fac.get(f, 0)})


def _cancel(num, den: Factored, only=None):
    """(num', den') = (num, den) divided by their gcd.

    num is a nonzero Poly or Factored, den a fully factored Factored with
    positive content.  The factors of den are divided out of num by exact
    division (or read off num's known factors); with ``only`` given, only
    the factors of den in it are tried.  num' is a Poly if num was.
    """
    if den.trivial:
        return num, den
    if type(num) is Factored:
        nc, nm, nfac, rest = num.c, num.mono, num.fac, num.rest
    else:
        nc, nm, nfac, rest = 1, 0, _NO_FACTORS, num
    dc, dm, dfac = den.c, den.mono, den.fac
    if dc != 1:
        g = math.gcd(dc, nc)
        if g != 1:
            nc, dc = nc // g, dc // g
        if dc != 1 and rest is not None:
            g = math.gcd(dc, *rest.values())
            if g != 1:
                rest = Poly({k: v // g for k, v in rest.items()})
                dc //= g
    if dm:
        di, dj = dm >> _SHIFT, dm & _MASK
        ni, nj = nm >> _SHIFT, nm & _MASK
        ri = rj = 0
        if rest is not None and (di > ni or dj > nj):
            ri = min(k >> _SHIFT for k in rest)
            rj = min(k & _MASK for k in rest)
        ci, cj = min(di, ni + ri), min(dj, nj + rj)
        if ci or cj:
            ti, tj = min(ci, ni), min(cj, nj)
            shift = _pack(ci - ti, cj - tj)
            if shift:
                rest = Poly({k - shift: v for k, v in rest.items()})
            nm = _pack(ni - ti, nj - tj)
            dm = _pack(di - ci, dj - cj)
    if dfac:
        newd = nfacs = None
        for f, m in dfac.items():
            if only is not None and f not in only:
                continue
            left = m
            k = nfac.get(f, 0)
            if k:
                used = min(k, m)
                if nfacs is None:
                    nfacs = dict(nfac)
                if k == used:
                    del nfacs[f]
                else:
                    nfacs[f] = k - used
                left -= used
            while left and rest is not None and len(rest) > 1:
                quo = _divide(rest, f)
                if quo is None:
                    break
                rest, left = quo, left - 1
            if left != m:
                if newd is None:
                    newd = dict(dfac)
                if left:
                    newd[f] = left
                else:
                    del newd[f]
        if nfacs is not None:
            nfac = nfacs
        if newd is not None:
            dfac = newd
    den = Factored(dc, dm, dfac)
    if type(num) is Poly:
        return rest, den
    return Factored(nc, nm, nfac, rest), den


# ---------------------------------------------------------------------------
# scalars of Q(q,t)
# ---------------------------------------------------------------------------

class Scalar:
    """An element num / den of Q(q,t) in canonical reduced form.

    ``num`` is a :class:`Poly`, or a :class:`Factored` where its factors
    are known; ``den`` is a fully factored :class:`Factored` with positive
    content, so its leading coefficient is positive.  Immutable.
    """

    __slots__ = ("num", "den", "_hash", "_num_factored")

    def __init__(self, num, den: Factored):
        self.num = num
        self.den = den
        self._hash = None
        self._num_factored = None

    # -- views ---------------------------------------------------------------

    def _factored_num(self) -> Factored:
        if self._num_factored is None:
            self._num_factored = _as_factored(self.num)
        return self._num_factored

    def __repr__(self):
        return f"Scalar({GENERIC.text(self)})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _lift(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        a, b = self.den, other.den
        if a == b:
            return _quotient(_expand(self.num) + _expand(other.num), a)
        den, ca, cb = _lcm_cofactors(a, b)
        num = _expand(self.num) * ca + _expand(other.num) * cb
        if not num:
            return ZERO
        # a factor whose multiplicities in a and b differ cannot divide num
        only = {f for f, m in a.fac.items() if b.fac.get(f) == m}
        return _scalar(*_cancel(num, den, only))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.num, self.den)

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _lift(other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _lift(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.num or not other.num:
            return ZERO
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        return _scalar(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def _inverse(self) -> "Scalar":
        if not self.num:
            raise ZeroDivisionError("division by zero in Q(q,t)")
        n = self._factored_num()
        if n.c < 0:
            return Scalar(-self.den, -n)
        return Scalar(self.den, n)

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _lift(other)
            if other is NotImplemented:
                return NotImplemented
        return self * other._inverse()

    def __rtruediv__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self._inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self._inverse() ** -k
        if k == 0:
            return ONE
        return Scalar(self.num ** k, self.den ** k)

    # -- comparison ----------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if type(other) is not Scalar:
            if not isinstance(other, int):
                return NotImplemented
            other = _lift(other)
        return self is other or (self.den == other.den
                                 and _expand(self.num) == _expand(other.num))

    def __hash__(self):
        if self._hash is None:
            num = _expand(self.num)
            if self.den.trivial and set(num) <= {0}:
                # an integer hashes as that int, which it equals
                self._hash = hash(num.get(0, 0))
            else:
                den = self.den
                self._hash = hash((frozenset(num.items()), den.c, den.mono,
                                   frozenset(den.fac.items())))
        return self._hash


def _scalar(num, den: Factored) -> Scalar:
    """The Scalar of a reduced pair; a numerator of at most two terms is
    factored at once (cheaply), so that products of binomials such as
    1 - q^a t^b keep their factors."""
    if type(num) is Poly and 0 < len(num) <= 2:
        c1, *c2 = num.values()
        if not c2 or abs(c1) == abs(c2[0]):
            num = _factor_poly(num)
    return Scalar(num, den)


def _quotient(num, den) -> Scalar:
    """The canonical Scalar num / den of ring elements (Poly, Factored or
    int), den nonzero."""
    if not den:
        raise ZeroDivisionError("division by zero in Q(q,t)")
    if type(num) is int:
        num = _const(num)
    if not num:
        return ZERO
    den = _as_factored(den)
    if den.c < 0:
        num, den = -num, -den
    return _scalar(*_cancel(num, den))


def _lift(x):
    """An int as a Scalar; NotImplemented for anything else."""
    if isinstance(x, int):
        return Scalar(_const(x), _ONE_F)
    return NotImplemented


ZERO = Scalar(Poly(), _ONE_F)
ONE = Scalar(Factored(1, 0, _NO_FACTORS), _ONE_F)
_Q = Scalar(Factored(1, _pack(1, 0), _NO_FACTORS), _ONE_F)
_T = Scalar(Factored(1, _pack(0, 1), _NO_FACTORS), _ONE_F)


def _ring_poly_text(p) -> str:
    """Canonical text of an integer polynomial, grlex-descending terms."""
    if not p:
        return "0"
    chunks = []
    for (eq, et), c in _expand(p).terms():
        mono = _monomial_text(eq, et)
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


def _monomial_text(a: int, b: int) -> str:
    """q^a*t^b in the canonical text style; empty for (a, b) = (0, 0)."""
    return "*".join(v if e == 1 else f"{v}^{e}"
                    for v, e in (("q", a), ("t", b)) if e)


def subst_t_power(x: Scalar, k: int) -> Scalar:
    """Substitute t = q**k in a generic scalar; raises if the denominator dies."""
    def sub(poly):
        acc: dict[int, int] = {}
        for (eq, et), c in poly.terms():
            e = eq + k * et
            acc[e] = acc.get(e, 0) + c
        return {e: c for e, c in acc.items() if c}

    num, den = sub(_expand(x.num)), sub(x.den.expand())
    if not den:
        raise SpecializationError(
            f"denominator {_ring_poly_text(x.den)} vanishes under t = q^{k}")
    low = min(0, *num, *den)
    return _quotient(Poly({_pack(e - low, 0): c for e, c in num.items()}),
                     Poly({_pack(e - low, 0): c for e, c in den.items()}))


def scalar_eval(x: Scalar, qval, tval):
    """Evaluate a generic scalar at an exact rational point (or at scalars
    of Q(q,t))."""
    if not isinstance(qval, Scalar):
        qval, tval = Fraction(qval), Fraction(tval)

    def ev(poly):
        total = 0
        for (eq, et), c in poly.terms():
            total = total + c * qval ** eq * tval ** et
        return total

    den = ev(x.den.expand())
    if den == 0:
        raise SpecializationError(
            f"denominator {_ring_poly_text(x.den)} vanishes at q={qval}, t={tval}")
    return ev(_expand(x.num)) / den


def _exponents(x: Scalar) -> tuple[int, int]:
    """(i, j) with x == q^i t^j, for a Laurent monomial x of Q(q,t)."""
    (k, _), = _expand(x.num).items()
    m = x.den.mono
    return (k >> _SHIFT) - (m >> _SHIFT), (k & _MASK) - (m & _MASK)


# ---------------------------------------------------------------------------
# scalar contexts
# ---------------------------------------------------------------------------


class ScalarContext:
    """The point (q, t) that coefficients are computed at.

    ``qval`` and ``tval`` are the generators q, t of Q(q,t) (symbolic
    arithmetic), their reciprocals (symbolic arithmetic at reciprocal
    parameters), or two nonzero ``Fraction``s (exact rational arithmetic).
    ``reciprocal`` marks a context that :meth:`inverted` made from the
    point the caller gave; it takes no part in equality or the hash.
    Immutable, since every memo table keys on it.
    """

    __slots__ = ("qval", "tval", "reciprocal", "_hash")

    def __init__(self, qval, tval, reciprocal: bool = False):
        init = object.__setattr__
        init(self, "qval", qval)
        init(self, "tval", tval)
        init(self, "reciprocal", reciprocal)
        # every memo lookup hashes its context, and a Fraction's hash takes
        # a modular inverse, so the point is hashed once
        init(self, "_hash", hash((qval, tval)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not ScalarContext:
            return NotImplemented
        return (self.qval, self.tval) == (other.qval, other.tval)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"ScalarContext(qval={self.qval!r}, tval={self.tval!r}, "
                f"reciprocal={self.reciprocal!r})")

    @property
    def generic(self) -> bool:
        return not isinstance(self.qval, Fraction)

    @property
    def zero(self):
        return ZERO if self.generic else Fraction(0)

    @property
    def one(self):
        return ONE if self.generic else Fraction(1)

    @property
    def q(self):
        return self.qval

    @property
    def t(self):
        return self.tval

    @memo
    def monomial(self, a: int, b: int):
        """The scalar q^a * t^b (a, b may be negative)."""
        return self.qval ** a * self.tval ** b

    def one_minus(self, a: int, b: int):
        """The factor 1 - q^a t^b; raises SpecializationError naming it
        where it vanishes, so that no division by it fails unnamed."""
        x = self.one - self.monomial(a, b)
        if not x:
            # at reciprocal parameters q^a t^b is q^-a t^-b at the given point
            point, sign = (self.inverted(), -1) if self.reciprocal else (self, 1)
            raise SpecializationError(
                f"factor 1 - {_monomial_text(sign * a, sign * b)} "
                f"vanishes at {point.params_label()}")
        return x

    def from_int(self, k: int):
        return self.one * k

    def coerce(self, x):
        """Promote a bare int (e.g. a default 0) to a scalar of this context."""
        if isinstance(x, int):
            return self.from_int(x)
        return x

    def inverted(self) -> "ScalarContext":
        """The context at the reciprocal point (1/q, 1/t); an involution."""
        return ScalarContext(1 / self.qval, 1 / self.tval, not self.reciprocal)

    def parts(self, x) -> tuple[object, object]:
        """(N, D) with x == N / D: integer polynomials in q,t symbolically
        (:class:`Poly`, or :class:`Factored` where the factors are known, as
        they always are for D), ints at a rational point.  Sums and products
        of parts are exact without normalising, and products keep their
        factors; :meth:`quotient` turns them back into a scalar."""
        if self.generic:
            return x.num, x.den
        return x.numerator, x.denominator

    def quotient(self, num, den):
        """The scalar num / den of ring elements as :meth:`parts` returns
        them, normalised once."""
        if self.generic:
            return _quotient(num, den)
        return Fraction(num, den)

    def quotients(self, den, nums: dict) -> dict:
        """{key: N / den} for the numerators N of nums, with den and every N
        as :meth:`parts` returns them: den is factored once for all of
        them, and each quotient is normalised once."""
        if self.generic:
            den = _as_factored(den)
        return {key: self.quotient(num, den) for key, num in nums.items()}

    def cancel_common(self, den, nums: dict) -> tuple:
        """(den, nums): den and every numerator divided by what they all
        share, so that the quotients N / den are unchanged.

        At a rational point that is the integer gcd.  Symbolically it is
        the common content and monomial, and then each factor of den (kept
        factored) as often as it divides every numerator exactly; no
        polynomial gcd is taken.  Either way den becomes the least common
        denominator of the quotients.
        """
        if not self.generic:
            g = math.gcd(den, *nums.values())
            if g != 1:
                den, nums = den // g, {k: num // g for k, num in nums.items()}
            return den, nums
        den = _as_factored(den)
        nums = {k: _expand(num) for k, num in nums.items()}
        values = [num for num in nums.values() if num]
        if not values:
            return den, nums
        c = math.gcd(den.c, *(v for num in values for v in num.values()))
        di, dj = den.mono >> _SHIFT, den.mono & _MASK
        mi = min(di, *(k >> _SHIFT for num in values for k in num))
        mj = min(dj, *(k & _MASK for num in values for k in num))
        shift = _pack(mi, mj)
        if c != 1 or shift:
            nums = {key: Poly({k - shift: v // c for k, v in num.items()})
                    for key, num in nums.items()}
        fac = dict(den.fac)
        order = sorted(nums, key=lambda key: len(nums[key]))
        for f, m in den.fac.items():
            for _ in range(m):
                quotients = {}
                for key in order:
                    quo = _divide(nums[key], f)
                    if quo is None:
                        break
                    quotients[key] = quo
                else:
                    nums = quotients
                    fac[f] -= 1
                    continue
                break
        return Factored(den.c // c, _pack(di - mi, dj - mj),
                        {f: m for f, m in fac.items() if m}), nums

    def common_denominator(self, coeffs: dict) -> tuple[object, dict]:
        """(D, {key: N}) with coeffs[key] == N / D for every key.

        D is the lcm of the denominators: a :class:`Factored` polynomial in
        q,t symbolically, a positive int at a rational point.  The
        numerators are of the same kind as D, so sums of them need no
        normalisation.
        """
        if self.generic:
            den = _ONE_F
            for c in coeffs.values():
                if not (c.den is den or c.den == den):
                    den = _lcm_cofactors(den, c.den)[0]
            return den, {k: _expand(c.num * _cofactor(den, c.den))
                         for k, c in coeffs.items()}
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        return den, {k: c.numerator * (den // c.denominator)
                     for k, c in coeffs.items()}

    def lcm_cofactors(self, a, b) -> tuple[object, object, object]:
        """(L, L / a, L / b) for L the lcm of the ring elements a and b, as
        :meth:`parts` returns them: symbolically from their factors, with
        no gcd."""
        if self.generic:
            return _lcm_cofactors(_as_factored(a), _as_factored(b))
        g = math.gcd(a, b)
        return a // g * b, b // g, a // g

    def product_sum(self, terms, inverse=()):
        """The sum over ``terms`` of the product of each term's factors,
        over the product of ``inverse`` (divisors, built with
        :meth:`one_minus` where they can vanish): summed in parts over the
        running lcm of the term denominators and normalised once."""
        one, num = self.parts(self.one), None
        for factors in terms:
            n, d = one
            for x in factors:
                xn, xd = self.parts(x)
                n, d = n * xn, d * xd
            if num is None:  # a lone term keeps its factors
                num, den = n, d
            else:
                den, up, across = self.lcm_cofactors(den, d)
                num = num * up + n * across
        if num is None:
            return self.zero
        for x in inverse:
            n, d = self.parts(x)
            num, den = num * d, den * n
        return self.quotient(num, den)

    def one_minus_product(self, pairs):
        """The product of the factors 1 - q^a t^b over the exponent pairs
        (a, b), multiplied out in parts and normalised once.  The first
        factor that vanishes is named as :meth:`one_minus` names it."""
        if self.generic:
            return self.product_sum([[self.one_minus(a, b) for a, b in pairs]])
        qn, qd = self.qval.numerator, self.qval.denominator
        tn, td = self.tval.numerator, self.tval.denominator
        num = den = 1
        for a, b in pairs:
            # q^a t^b = n / d
            n, d = (qn ** a, qd ** a) if a >= 0 else (qd ** -a, qn ** -a)
            m, e = (tn ** b, td ** b) if b >= 0 else (td ** -b, tn ** -b)
            n, d = n * m, d * e
            if n == d:
                self.one_minus(a, b)  # raises, naming the factor
            num *= d - n
            den *= d
        return Fraction(num, den)

    def monomial_sum(self, den, nums, qexps, texps):
        """The scalar sum of N q^a t^b over den, for the entries N, a and b
        of nums, qexps and texps taken in step.

        ``den`` and every N are as :meth:`common_denominator` returns them;
        a and b may be negative.  Equal monomials are not grouped: at a
        rational point the sum is one pass over the terms, at C speed, and
        either way it is accumulated exactly and reduced once at the end.
        """
        if self.generic:
            # q^a t^b of this context is q^(a qi + b ti) t^(a qj + b tj) in
            # Q(q,t); the exponent of t is offset by _OFFSET while packed, so
            # that it may go negative
            (qi, qj), (ti, tj) = _exponents(self.qval), _exponents(self.tval)
            reach = max(map(abs, texps), default=0)
            if reach >= _OFFSET:
                raise AlgebraError(f"an exponent of t of {reach} leaves the "
                                   f"32 bits of a packed monomial")
            acc: dict = {}
            get = acc.get
            for num, a, b in zip(nums, qexps, texps):
                shift = ((a * qi + b * ti) << _SHIFT) + a * qj + b * tj \
                    + _OFFSET
                for k, c in _expand(num).items():
                    k += shift
                    acc[k] = get(k, 0) + c
            acc = {k: c for k, c in acc.items() if c}
            if not acc:
                return ZERO
            # shift both exponents to >= 0 and put the shift into den
            sq = -min(0, min(k >> _SHIFT for k in acc))
            st = -min(0, min((k & _MASK) - _OFFSET for k in acc))
            shift = (sq << _SHIFT) + st - _OFFSET
            return _quotient(Poly({k + shift: c for k, c in acc.items()}),
                             den * Factored(1, _pack(sq, st), _NO_FACTORS))
        if not len(qexps):
            return Fraction(0)
        # q^a t^b = qn^a qd^-a tn^b td^-b: with qn^alo qd^-ahi tn^blo td^-bhi
        # factored out, every monomial is one entry of each power table, so
        # the sum is an integer and one Fraction reduces it
        qn, qd = self.qval.numerator, self.qval.denominator
        tn, td = self.tval.numerator, self.tval.denominator
        alo, ahi, blo, bhi = min(qexps), max(qexps), min(texps), max(texps)
        qpow = _powers(qn, qd, alo, ahi)
        tpow = _powers(tn, td, blo, bhi)
        total = sum(map(operator.mul, nums,
                        map(operator.mul, map(qpow.__getitem__, qexps),
                            map(tpow.__getitem__, texps))))
        for base, exp in ((qn, alo), (qd, -ahi), (tn, blo), (td, -bhi)):
            if exp >= 0:
                total *= base ** exp
            else:
                den *= base ** -exp
        return Fraction(total, den)

    def num_den_text(self, x) -> tuple[str, str]:
        x = self.coerce(x)
        if self.generic:
            return _ring_poly_text(x.num), _ring_poly_text(x.den)
        try:
            return str(x.numerator), str(x.denominator)
        except ValueError:  # str() stops at 4300 digits by default
            import decimal
            return (str(decimal.Decimal(x.numerator)),
                    str(decimal.Decimal(x.denominator)))

    def text(self, x) -> str:
        """Compact canonical rendering, also used inside polynomial strings."""
        num, den = self.num_den_text(x)
        if den == "1":
            return num
        np = f"({num})" if (" + " in num or " - " in num) else num
        dp = f"({den})" if (" + " in den or " - " in den) else den
        return f"{np}/{dp}"

    def params_label(self) -> str:
        if self == GENERIC:
            return "symbolic"
        return f"q={self.text(self.qval)},t={self.text(self.tval)}"


GENERIC = ScalarContext(_Q, _T)


def specialized(qval, tval) -> ScalarContext:
    qv, tv = Fraction(qval), Fraction(tval)
    if qv == 0 or tv == 0:
        raise AlgebraError("specialized q and t must be nonzero")
    return ScalarContext(qv, tv)


@memo
def _powers(n: int, d: int, lo: int, hi: int) -> dict:
    """{k: n^(k - lo) d^(hi - k) for lo <= k <= hi}, each entry the last
    times n divided exactly by d."""
    table = [d ** (hi - lo)]
    for _ in range(hi - lo):
        table.append(table[-1] // d * n)
    return dict(zip(range(lo, hi + 1), table))

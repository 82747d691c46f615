"""Correctness checks that do not share a code path with what they judge.

Everything here is the benchmark's own: the parser of qtmac's canonical
text forms, composition enumeration, leg colengths, spectral points, chi_r
and the evaluation of polynomials at rational points.  The only values taken
from qtmac are the documents of other subcommands (``e``, ``estar``,
``norm``, ``innerprod``) that reach the same object by a different route;
:func:`oracle_requests` lists them and :func:`check_query` consumes them.

A check returns a list of error strings; an empty list means the output
passed.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from math import comb as binomial, lcm, prod

from workloads import params_text

# ---------------------------------------------------------------------------
# parsing qtmac's canonical text
# ---------------------------------------------------------------------------

_MONO_FACTOR = re.compile(r"^([qt])(?:\^(\d+))?$")
_Z_FACTOR = re.compile(r"^z(\d+)(?:\^(\d+))?$")


def _split_top(text: str, sep: str) -> list[str]:
    """Split at occurrences of ``sep`` outside parentheses."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return parts


def _strip_parens(text: str) -> str:
    """Remove one pair of parentheses that encloses the whole text."""
    if not (text.startswith("(") and text.endswith(")")):
        return text
    depth = 0
    for ch in text[:-1]:
        depth += (ch == "(") - (ch == ")")
        if depth == 0:
            return text
    return text[1:-1]


def _signed_terms(text: str) -> list[tuple[int, str]]:
    """``a - b + c`` -> [(1, a), (-1, b), (1, c)], at the top level only."""
    out = []
    for i, chunk in enumerate(_split_top(text, " + ")):
        for j, part in enumerate(_split_top(chunk, " - ")):
            sign = 1 if j == 0 else -1
            if part.startswith("-") and j == 0 and i == 0:
                sign, part = -sign, part[1:]
            out.append((sign, part))
    return out


def parse_qt_poly(text: str) -> dict[tuple[int, int], int]:
    """``q^2*t - 3*q + 1`` -> {(2, 1): 1, (1, 0): -3, (0, 0): 1}."""
    poly: dict[tuple[int, int], int] = {}
    for sign, term in _signed_terms(text.strip()):
        coeff, eq, et = sign, 0, 0
        for factor in term.split("*"):
            m = _MONO_FACTOR.match(factor)
            if m:
                power = int(m.group(2) or 1)
                if m.group(1) == "q":
                    eq += power
                else:
                    et += power
            elif factor.isdigit():
                coeff *= int(factor)
            else:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
        poly[(eq, et)] = poly.get((eq, et), 0) + coeff
    return {e: c for e, c in poly.items() if c}


def eval_qt_poly(poly: dict, q: Fraction, t: Fraction) -> Fraction:
    return sum((c * q ** a * t ** b for (a, b), c in poly.items()), Fraction(0))


def eval_scalar_text(text: str, point) -> Fraction:
    """An inline coefficient (``(q - 1)/t``, ``-3/5``, ``q^2``) at (q, t)."""
    text = _strip_parens(text)
    parts = _split_top(text, "/")
    if len(parts) > 2:
        raise ValueError(f"bad scalar {text!r}")
    num = eval_qt_poly(parse_qt_poly(_strip_parens(parts[0])), *point)
    if len(parts) == 1:
        return num
    den = eval_qt_poly(parse_qt_poly(_strip_parens(parts[1])), *point)
    if den == 0:
        raise ZeroDivisionError(f"denominator {parts[1]} vanishes at {point}")
    return num / den


def eval_num_den(obj: dict, point) -> Fraction:
    """A ``{"num": ..., "den": ...}`` coefficient evaluated at (q, t)."""
    return eval_scalar_text(f"({obj['num']})/({obj['den']})", point)


def parse_z_poly(text: str, n: int, point) -> dict[tuple[int, ...], Fraction]:
    """A polynomial payload in z1..zn with every coefficient evaluated at
    (q, t): {exponents: value}."""
    poly: dict[tuple[int, ...], Fraction] = {}
    if text == "0":
        return poly
    for sign, term in _signed_terms(text):
        zpos = term.find("z")
        coeff_text, mono_text = (term, "") if zpos < 0 else (term[:zpos], term[zpos:])
        coeff_text = coeff_text.rstrip("*")
        coeff = eval_scalar_text(coeff_text, point) if coeff_text else Fraction(1)
        exps = [0] * n
        for factor in mono_text.split("*") if mono_text else ():
            m = _Z_FACTOR.match(factor)
            if not m or not 1 <= int(m.group(1)) <= n:
                raise ValueError(f"bad variable {factor!r} in {text!r}")
            exps[int(m.group(1)) - 1] += int(m.group(2) or 1)
        key = tuple(exps)
        poly[key] = poly.get(key, Fraction(0)) + sign * coeff
    return {e: c for e, c in poly.items() if c}


def eval_z_poly(poly: dict, z) -> Fraction:
    """Exact value at z, summed over integers: every term is brought to the
    common denominator lcm(coefficient denominators) * prod(den(z_i)^d_i),
    with d_i the largest exponent of z_i."""
    if not poly:
        return Fraction(0)
    den = lcm(*(c.denominator for c in poly.values()))
    tops = [max(e[i] for e in poly) for i in range(len(z))]
    factors = [[x.numerator ** k * x.denominator ** (top - k)
                for k in range(top + 1)] for x, top in zip(z, tops)]
    total = 0
    for exps, c in poly.items():
        v = c.numerator * (den // c.denominator)
        for fs, k in zip(factors, exps):
            v *= fs[k]
        total += v
    for x, top in zip(z, tops):
        den *= x.denominator ** top
    return Fraction(total, den)


# ---------------------------------------------------------------------------
# combinatorics, written independently of qtmac.comb
# ---------------------------------------------------------------------------

def comp(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def comp_text(eta) -> str:
    return ",".join(str(x) for x in eta)


def compositions_up_to(n: int, max_mod: int) -> list[tuple[int, ...]]:
    return [c for c in itertools.product(range(max_mod + 1), repeat=n)
            if sum(c) <= max_mod]


def leg_colengths(eta) -> list[int]:
    """l'(i) = #{j < i: eta_j >= eta_i} + #{j > i: eta_j > eta_i}."""
    return [sum(1 for j, y in enumerate(eta)
                if (j < i and y >= x) or (j > i and y > x))
            for i, x in enumerate(eta)]


def spectral_point(eta, point) -> tuple[Fraction, ...]:
    """eta-bar_i = q^eta_i t^(-l'(i)) at a rational (q, t)."""
    q, t = point
    return tuple(q ** x * t ** (-l) for x, l in zip(eta, leg_colengths(eta)))


def chi_r(eta, r: int) -> tuple[int, ...]:
    """Add one to every entry whose leg colength is below r."""
    return tuple(x + (l < r) for x, l in zip(eta, leg_colengths(eta)))


def elementary_at(z, r: int) -> Fraction:
    return sum((prod(s) for s in itertools.combinations(z, r)), Fraction(0))


def _labels(max_n: int, max_mod: int, min_n: int = 1):
    for n in range(min_n, max_n + 1):
        yield from compositions_up_to(n, max_mod)


def expected_checks(suite: str, max_n: int, max_mod: int) -> int:
    """The number of checks a verify suite runs at these bounds, counted
    from the suite's definition."""
    if suite in ("oracle-e", "oracle-estar", "vanishing", "binomials"):
        return sum(1 for _ in _labels(max_n, max_mod))
    if suite == "eigen":
        return sum(len(eta) for eta in _labels(max_n, max_mod))
    if suite in ("pieri-agreement", "pieri-general"):
        return sum(1 for _ in _labels(max_n, max_mod, min_n=2))
    if suite == "duality":
        return sum(len(eta) - 1 for eta in _labels(max_n, max_mod, min_n=2))
    if suite == "norms":
        # every unordered pair of labels, for each n >= 2 and k in (1, 2)
        return sum(2 * binomial(len(compositions_up_to(n, max_mod)) + 1, 2)
                   for n in range(2, max_n + 1))
    if suite == "symmetric-pieri":
        return sum(n for n in range(1, max_n + 1)
                   for kappa in compositions_up_to(n, max_mod)
                   if all(a >= b for a, b in zip(kappa, kappa[1:])))
    raise ValueError(f"unknown suite {suite!r}")


# ---------------------------------------------------------------------------
# oracle requests and the checks themselves
# ---------------------------------------------------------------------------

def _inverse(point):
    return (1 / point[0], 1 / point[1])


def oracle_requests(query: dict, doc: dict) -> list[tuple[str, ...]]:
    """The qtmac command lines whose output the check of ``doc`` needs."""
    kind = query["kind"]
    if kind == "pieri":
        inv = params_text(_inverse(query["point"]))
        labels = [query["eta"]] + [lam for lam, _ in doc["payload"]["entries"]]
        return [("e", "--eta", lab, "--params", inv) for lab in labels]
    if kind == "binom":
        pt = params_text(query["point"])
        return [("estar", "--eta", lab, "--params", pt)
                for lab in (query["eta"], query["args"]["--nu"])]
    if kind == "e":
        return [("estar", "--eta", query["eta"], "--params",
                 params_text(_inverse(query["point"])))]
    if kind == "innerprod" and query["eta"] == query["args"]["--nu"]:
        zero = comp_text((0,) * len(comp(query["eta"])))
        return [("norm", "--eta", query["eta"]),
                ("innerprod", "--eta", zero, "--nu", zero,
                 "--k", query["args"]["--k"])]
    return []


def _header_errors(query: dict, doc: dict) -> list[str]:
    errors = []
    if doc.get("kind") != query["kind"] or doc.get("eta") != query["eta"]:
        errors.append(f"document header {doc.get('kind')} {doc.get('eta')} "
                      "does not match the query")
    want = "symbolic" if query["symbolic"] else params_text(query["point"])
    if doc.get("params") != want:
        errors.append(f"params {doc.get('params')!r}, expected {want!r}")
    return errors


def _payload(oracle: dict, argv) -> str | dict:
    return json.loads(oracle[tuple(argv)])["payload"]


def check_pieri(query: dict, doc: dict, oracle: dict) -> list[str]:
    """e_r(z) E_eta(z; 1/q, 1/t) = sum_lam A_lam E_lam(z; 1/q, 1/t) at a
    rational z, with E from ``qtmac e`` at the reciprocal point, and
    A at chi_r(eta) exactly 1."""
    eta = comp(query["eta"])
    r = int(query["args"]["--r"])
    n = len(eta)
    point, z = query["point"], query["z"]
    entries = doc["payload"]["entries"]
    errors = []
    unity = dict(entries).get(comp_text(chi_r(eta, r)))
    if unity != {"num": "1", "den": "1"}:
        errors.append(f"coefficient at chi_r(eta) = {comp_text(chi_r(eta, r))} "
                      f"is {unity}, expected 1")
    requests = oracle_requests(query, doc)

    def e_at_z(argv):
        return eval_z_poly(parse_z_poly(_payload(oracle, argv), n, point), z)

    lhs = elementary_at(z, r) * e_at_z(requests[0])
    rhs = sum((eval_num_den(coeff, point) * e_at_z(argv)
               for (_, coeff), argv in zip(entries, requests[1:])), Fraction(0))
    if lhs != rhs:
        errors.append(f"Pieri identity fails at z={[str(x) for x in z]}: "
                      f"{lhs} != {rhs}")
    return errors


def check_binom(query: dict, doc: dict, oracle: dict) -> list[str]:
    """binom(eta, nu) = Estar_eta(nu-bar) / Estar_nu(nu-bar), with the
    spectral point nu-bar computed here."""
    nu = comp(query["args"]["--nu"])
    point = query["point"]
    at = spectral_point(nu, point)
    req_eta, req_nu = oracle_requests(query, doc)
    num = eval_z_poly(parse_z_poly(_payload(oracle, req_eta), len(nu), point), at)
    den = eval_z_poly(parse_z_poly(_payload(oracle, req_nu), len(nu), point), at)
    got = eval_num_den(doc["payload"], point)
    if den == 0 or got != num / den:
        return [f"binomial {got} != Estar ratio {num}/{den}"]
    return []


def check_estar(query: dict, doc: dict, oracle: dict) -> list[str]:
    """Estar_eta is monic on z^eta, has degree |eta|, and vanishes at mu-bar
    for every other mu with |mu| <= |eta|."""
    eta = comp(query["eta"])
    point = query["point"]
    poly = parse_z_poly(doc["payload"], len(eta), point)
    errors = []
    if poly.get(eta) != 1:
        errors.append(f"coefficient of z^eta is {poly.get(eta)}, expected 1")
    if any(sum(e) > sum(eta) for e in poly):
        errors.append("degree exceeds |eta|")
    for mu in compositions_up_to(len(eta), sum(eta)):
        if mu != eta and eval_z_poly(poly, spectral_point(mu, point)):
            errors.append(f"Estar does not vanish at the spectral point of "
                          f"{comp_text(mu)}")
    return errors


def check_e(query: dict, doc: dict, oracle: dict) -> list[str]:
    """E_eta(z; q, t) is the top-degree part of Estar_eta(z; 1/q, 1/t)."""
    eta = comp(query["eta"])
    point = query["point"]
    poly = parse_z_poly(doc["payload"], len(eta), point)
    (req,) = oracle_requests(query, doc)
    star = parse_z_poly(_payload(oracle, req), len(eta), _inverse(point))
    top = {e: c for e, c in star.items() if sum(e) == sum(eta)}
    if poly != top:
        return ["E differs from the top-degree part of Estar at the "
                "reciprocal point"]
    return []


def check_innerprod(query: dict, doc: dict, oracle: dict) -> list[str]:
    """<E_eta, E_nu> at t = q^k is 0 for eta != nu and N_eta <1,1> for
    eta = nu, with N_eta from the closed-form ``qtmac norm``."""
    k = int(query["args"]["--k"])
    q = query["point"][0]
    got = eval_num_den(doc["payload"], (q, q ** k))
    if query["eta"] != query["args"]["--nu"]:
        return [] if doc["payload"] == {"num": "0", "den": "1"} \
            else [f"inner product of distinct labels is {got}, expected 0"]
    req_norm, req_one = oracle_requests(query, doc)
    want = (eval_num_den(_payload(oracle, req_norm), (q, q ** k))
            * eval_num_den(_payload(oracle, req_one), (q, q ** k)))
    return [] if got == want else [f"norm {got} != N_eta <1,1> = {want}"]


def check_verify(query: dict, stdout: str) -> list[str]:
    """Exactly one ``[pass]`` line whose count matches the enumeration."""
    want = expected_checks(query["suite"], query["max_n"], query["max_mod"])
    line = f"[pass] {query['suite']}: {want} checks"
    if stdout.splitlines() != [line]:
        return [f"expected {line!r}, got {stdout.strip()!r}"]
    return []


_CHECKS = {"pieri": check_pieri, "binom": check_binom, "estar": check_estar,
           "e": check_e, "innerprod": check_innerprod}


def check_query(query: dict, stdout: str, oracle: dict) -> list[str]:
    """All checks of one query's output; ``oracle`` maps each command line
    from :func:`oracle_requests` to its stdout."""
    if query["kind"] == "verify":
        return check_verify(query, stdout)
    try:
        doc = json.loads(stdout)
        errors = _header_errors(query, doc)
        if not errors:
            errors = _CHECKS[query["kind"]](query, doc, oracle)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        errors = [f"output could not be checked: {type(exc).__name__}: {exc}"]
    return errors

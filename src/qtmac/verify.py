"""Verification suites: every structural identity as a runnable check.

Each suite walks an exhaustive desk-scale range and returns a report with a
counterexample witness per failure.  The suites back the command line
``verify`` subcommand and the acceptance tests.
"""

from __future__ import annotations

from collections import namedtuple

from .scalar import (
    GENERIC,
    ScalarContext,
    SpecializationError,
    scalar_eval,
    subst_t_power,
)
from .algebra import ZPolynomial, ring_form
from . import comb, ctnorm, emac, istar, pieri

# how far above a label's modulus the vanishing and binomial suites reach
MAX_GAP = 3


class SuiteReport(namedtuple("SuiteReport", "suite checked failures")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def _report(suite: str, check, jobs) -> SuiteReport:
    """Run ``check`` on every job; it returns the job's failure messages.
    ``checked`` counts the jobs, ``failures`` holds the messages in job order."""
    checked = 0
    failures = []
    for job in jobs:
        checked += 1
        failures.extend(check(job))
    return SuiteReport(suite, checked, failures)


def _labels(max_n: int, max_mod: int, min_n: int = 1):
    for n in range(min_n, max_n + 1):
        yield from comb.compositions_up_to(n, max_mod)


def _above(eta):
    """Every composition of len(eta) parts whose modulus exceeds |eta| by
    1 .. MAX_GAP."""
    m = comb.modulus(eta)
    for gap in range(1, MAX_GAP + 1):
        yield from comb.compositions(len(eta), m + gap)


def _distinct_spectral_points(labels, ctx: ScalarContext):
    """Raise SpecializationError, naming them, if two of the labels share
    their spectral point at ctx's point."""
    seen = {}
    for lam in labels:
        other = seen.setdefault(comb.spectral_vector(lam, ctx), lam)
        if other != lam:
            raise SpecializationError(
                f"{comb.comp_str(other)} and {comb.comp_str(lam)} share their "
                f"spectral point at {ctx.params_label()}")


def suite_oracle_estar(max_n: int, max_mod: int,
                       ctx: ScalarContext = GENERIC) -> SuiteReport:
    """generate_Estar agrees with the vanishing-conditions linear solve.

    The system is solvable only where the spectral points of the labels
    are distinct, so a point where two share one raises
    SpecializationError naming them before anything is checked.
    """
    _distinct_spectral_points(_labels(max_n, max_mod), ctx)

    def check(eta):
        if istar.generate_Estar(eta, ctx) != istar.vanishing_solve_oracle(eta, ctx):
            return [f"Estar mismatch at eta={comb.comp_str(eta)}"]
        return []

    return _report("oracle-estar", check, _labels(max_n, max_mod))


def suite_oracle_e(max_n: int, max_mod: int,
                   ctx: ScalarContext = GENERIC) -> SuiteReport:
    """Top homogeneous part of Estar at reciprocal parameters equals E."""
    inv = ctx.inverted()

    def check(eta):
        bridged = istar.generate_Estar(eta, inv).top_homogeneous()
        if bridged != emac.generate_E(eta, ctx):
            return [f"top-degree bridge fails at eta={comb.comp_str(eta)}"]
        return []

    return _report("oracle-e", check, _labels(max_n, max_mod))


def suite_eigen(max_n: int, max_mod: int,
                ctx: ScalarContext = GENERIC) -> SuiteReport:
    """Xi_i Estar_eta = (eta-bar_i)^{-1} Estar_eta for every i.

    Both sides are forms over a common denominator: with Estar_eta = P / D,
    Xi_i Estar_eta = X / D' and eta-bar_i = en / ed, the relation is
    en D X == ed D' P, so a relation that holds normalises no coefficient.
    """
    def check(job):
        eta, i = job
        den, p = ring_form(istar.generate_Estar(eta, ctx), ctx)
        xden, x = istar.xi_form(i, den, p, ctx)
        en, ed = ctx.parts(comb.spectral_vector(eta, ctx)[i - 1])
        if x.scale(en * den) != p.scale(ed * xden):
            return [f"eigenrelation fails at eta={comb.comp_str(eta)} i={i}"]
        return []

    jobs = ((eta, i) for eta in _labels(max_n, max_mod)
            for i in range(1, len(eta) + 1))
    return _report("eigen", check, jobs)


def suite_vanishing(max_n: int, max_mod: int,
                    ctx: ScalarContext = GENERIC) -> SuiteReport:
    """Extra vanishing in both directions: Estar_eta(lam-bar) = 0 exactly
    when lam is not a successor of eta.

    The value comes from the general evaluator ``at_point``; the fast
    ``spectral_evaluate`` must agree with it.  The theorem needs distinct
    spectral points, so a point where two labels of the range share one
    raises SpecializationError naming them before anything is checked.
    The "only if" direction holds for generic (q, t): at a rational point a
    successor's value may vanish, and that zero is accepted only where the
    value over Q(q,t) is nonzero and specialises to 0 at the point.
    """
    _distinct_spectral_points(_labels(max_n, max_mod + MAX_GAP), ctx)

    def accidental_zero(eta, lam):
        generic = istar.spectral_evaluate(eta, lam, GENERIC)
        try:
            # at a symbolic context this is generic at (q, t) or (1/q, 1/t),
            # zero only where generic is
            return bool(generic) and not scalar_eval(generic, ctx.qval, ctx.tval)
        except SpecializationError:
            return False

    def check(eta):
        bad = []
        poly = istar.generate_Estar(eta, ctx)
        for lam in _above(eta):
            value = poly.at_point(comb.spectral_vector(lam, ctx), ctx)
            if istar.spectral_evaluate(eta, lam, ctx) != value:
                bad.append(
                    f"spectral_evaluate disagrees with at_point "
                    f"eta={comb.comp_str(eta)} lam={comb.comp_str(lam)}")
            vanished = not value
            predicted = istar.extra_vanishing_test(eta, lam)
            if vanished != predicted and not (vanished
                                              and accidental_zero(eta, lam)):
                bad.append(
                    f"vanishing mismatch eta={comb.comp_str(eta)} "
                    f"lam={comb.comp_str(lam)}: value {'0' if vanished else '!=0'}"
                    f" vs successor says {'0' if predicted else '!=0'}")
        return bad

    return _report("vanishing", check, _labels(max_n, max_mod))


def suite_pieri_agreement(max_n: int, max_mod: int,
                          ctx: ScalarContext = GENERIC) -> SuiteReport:
    """Four-way r=1 agreement: recursion layer, closed delta-beta form,
    factored product form, brute-force expansion."""
    def check(eta):
        bad = []
        oracle = pieri.product_expand_oracle(eta, 1, ctx)
        closed = pieri.pieri_r1_closed(eta, ctx)
        homog = pieri.pieri_homogeneous(eta, 1, ctx)
        product = pieri.pieri_r1_product_form(eta, ctx)
        for name, table in (("closed", closed), ("recursion", homog),
                            ("product-form", product)):
            if table != oracle:
                bad.append(
                    f"r=1 {name} disagrees with oracle at eta={comb.comp_str(eta)}")
        return bad

    return _report("pieri-agreement", check, _labels(max_n, max_mod, min_n=2))


def suite_pieri_general(max_n: int, max_mod: int,
                        ctx: ScalarContext = GENERIC) -> SuiteReport:
    """pieri_homogeneous equals the oracle for every r, plus the residual
    identities and the unity coefficient at eta + chi_r."""
    def check(eta):
        n = len(eta)
        bad = []
        for r in range(1, n + 1):
            table = pieri.pieri_homogeneous(eta, r, ctx)
            oracle = pieri.product_expand_oracle(eta, r, ctx)
            if table != oracle:
                bad.append(f"general-r mismatch eta={comb.comp_str(eta)} r={r}")
            target = comb.chi_r(eta, r)
            if table.get(target) != ctx.one:
                bad.append(f"unity coefficient fails eta={comb.comp_str(eta)} r={r}")
            full = pieri.interpolation_expansion(eta, r, ctx)
            if not pieri.interpolation_residual(full, ctx).is_zero:
                bad.append(
                    f"interpolation residual nonzero eta={comb.comp_str(eta)} r={r}")
            if not pieri.homogeneous_residual(eta, r, table, ctx).is_zero:
                bad.append(
                    f"homogeneous residual nonzero eta={comb.comp_str(eta)} r={r}")
        return bad

    return _report("pieri-general", check, _labels(max_n, max_mod, min_n=2))


def suite_duality(max_n: int, max_mod: int,
                  ctx: ScalarContext = GENERIC) -> SuiteReport:
    """Duality route equals the direct computation."""
    def check(job):
        eta, r = job
        bad = []
        direct = pieri.pieri_homogeneous(eta, r, ctx)
        for lam in comb.successors_layered(eta, r):
            dual = pieri.duality_transfer(eta, lam, r, ctx)
            if dual != direct.get(lam, ctx.zero):
                bad.append(
                    f"duality mismatch eta={comb.comp_str(eta)} "
                    f"lam={comb.comp_str(lam)} r={r}")
        return bad

    jobs = ((eta, r) for eta in _labels(max_n, max_mod, min_n=2)
            for r in range(1, len(eta)))
    return _report("duality", check, jobs)


def suite_binomials(max_n: int, max_mod: int,
                    ctx: ScalarContext = GENERIC) -> SuiteReport:
    """binomial_recursive equals binomial_direct across the range."""
    def check(eta):
        return [f"binomial mismatch eta={comb.comp_str(eta)} nu={comb.comp_str(nu)}"
                for nu in _above(eta)
                if istar.binomial_recursive(eta, nu, ctx)
                != istar.binomial_direct(eta, nu, ctx)]

    return _report("binomials", check, _labels(max_n, max_mod))


def suite_norms(max_n: int, max_mod: int, ks=(1, 2),
                ctx: ScalarContext = GENERIC) -> SuiteReport:
    """Orthogonality and norms under the truncated constant-term pairing:
    <E_eta, E_nu> = delta * N_eta <1,1> at t = q^k for every pair of labels.

    The norm side uses the closed hook-product formula restricted to t = q^k;
    the inner product side is a raw constant-term extraction.
    """
    inv = ctx.inverted()

    def check(job):
        n, k, w, one_one, e_eta, bar_nu, eta, nu = job
        lhs = ctnorm.ct_inner_product(e_eta, bar_nu, w, ctx)
        rhs = (subst_t_power(emac.norm_N(eta, ctx), k) * one_one
               if eta == nu else ctx.zero)
        if lhs == rhs:
            return []
        return [f"norm mismatch n={n} k={k} eta={comb.comp_str(eta)} "
                f"nu={comb.comp_str(nu)}: {ctx.text(lhs)} != {ctx.text(rhs)}"]

    def jobs():
        # the weight, <1,1> and the specialised E are computed once per (n, k)
        for n in range(2, max_n + 1):
            labels = list(comb.compositions_up_to(n, max_mod))
            for k in ks:
                w = ctnorm.specialized_weight(n, k, ctx)
                ones = ZPolynomial.constant(n, ctx.one)
                one_one = ctnorm.ct_inner_product(ones, ones, w, ctx)
                polys = {eta: ctnorm.specialize_E(eta, k, ctx) for eta in labels}
                bars = {eta: ctnorm.specialize_E(eta, k, inv) for eta in labels}
                for a, eta in enumerate(labels):
                    for nu in labels[a:]:
                        yield n, k, w, one_one, polys[eta], bars[nu], eta, nu

    return _report("norms", check, jobs())


def suite_symmetric_pieri(max_n: int, max_mod: int,
                          ctx: ScalarContext = GENERIC) -> SuiteReport:
    """e_r P_kappa expands with the vertical-strip coefficients and nothing else."""
    def check(job):
        n, kappa, r = job
        bad = []
        table = emac.symmetric_pieri_table(kappa, r, n, ctx)
        kap = kappa + (0,) * (n - len(kappa))
        for lam, coeff in table.items():
            if not emac.is_vertical_strip(kap, lam):
                bad.append(
                    f"non-vertical-strip term kappa={comb.comp_str(kappa)} "
                    f"r={r} lam={comb.comp_str(lam)}")
            elif coeff != emac.psi_coefficient(kappa, lam, n, ctx):
                bad.append(
                    f"psi mismatch kappa={comb.comp_str(kappa)} r={r} "
                    f"lam={comb.comp_str(lam)}")
        # vertical strips that should appear
        for lam in comb.compositions(n, comb.modulus(kap) + r):
            if comb.is_partition(lam) and emac.is_vertical_strip(kap, lam) \
                    and lam not in table:
                bad.append(
                    f"missing vertical strip kappa={comb.comp_str(kappa)} "
                    f"r={r} lam={comb.comp_str(lam)}")
        return bad

    jobs = ((n, kappa, r) for n in range(1, max_n + 1)
            for kappa in comb.compositions_up_to(n, max_mod)
            if comb.is_partition(kappa)
            for r in range(1, n + 1))
    return _report("symmetric-pieri", check, jobs)


SUITES = {
    "oracle-e": suite_oracle_e,
    "oracle-estar": suite_oracle_estar,
    "eigen": suite_eigen,
    "vanishing": suite_vanishing,
    "pieri-agreement": suite_pieri_agreement,
    "pieri-general": suite_pieri_general,
    "duality": suite_duality,
    "binomials": suite_binomials,
    "norms": suite_norms,
    "symmetric-pieri": suite_symmetric_pieri,
}


def run_suite(name: str, max_n: int, max_mod: int,
              ctx: ScalarContext = GENERIC, ks=(1, 2)) -> list[SuiteReport]:
    reports = []
    for nm in SUITES if name == "all" else [name]:
        options = {"ks": ks} if nm == "norms" else {}
        reports.append(SUITES[nm](max_n, max_mod, ctx=ctx, **options))
    return reports

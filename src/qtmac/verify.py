"""Verification suites: every structural identity as a runnable check.

Each suite walks an exhaustive desk-scale range and returns a report with a
counterexample witness per failure.  The suites back the command line
``verify`` subcommand and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import GENERIC, ScalarContext
from . import comb, ctnorm, emac, istar, pieri


@dataclass
class SuiteReport:
    suite: str
    checked: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def _labels(max_n: int, max_mod: int, min_n: int = 1):
    for n in range(min_n, max_n + 1):
        for eta in comb.compositions_up_to(n, max_mod):
            yield eta


def suite_oracle_estar(max_n: int, max_mod: int,
                       ctx: ScalarContext = GENERIC) -> SuiteReport:
    """generate_Estar agrees with the vanishing-conditions linear solve."""
    def check(eta):
        if istar.generate_Estar(eta, ctx) != istar.vanishing_solve_oracle(eta, ctx):
            return f"Estar mismatch at eta={comb.comp_str(eta)}"
        return None

    results = [check(eta) for eta in _labels(max_n, max_mod)]
    return SuiteReport("oracle-estar", len(results),
                       [r for r in results if r])


def suite_oracle_e(max_n: int, max_mod: int,
                   ctx: ScalarContext = GENERIC) -> SuiteReport:
    """Top homogeneous part of Estar at reciprocal parameters equals E."""
    inv = ctx.inverted()

    def check(eta):
        bridged = istar.generate_Estar(eta, inv).top_homogeneous()
        if bridged != emac.generate_E(eta, ctx):
            return f"top-degree bridge fails at eta={comb.comp_str(eta)}"
        return None

    results = [check(eta) for eta in _labels(max_n, max_mod)]
    return SuiteReport("oracle-e", len(results), [r for r in results if r])


def suite_eigen(max_n: int, max_mod: int,
                ctx: ScalarContext = GENERIC) -> SuiteReport:
    """Xi_i Estar_eta = (eta-bar_i)^{-1} Estar_eta for every i."""
    def check(eta):
        n = len(eta)
        p = istar.generate_Estar(eta, ctx)
        eb = comb.spectral_vector(eta, ctx)
        bad = []
        for i in range(1, n + 1):
            lhs = istar.xi_apply(i, p, ctx)
            rhs = p.scale(eb[i - 1] ** -1)
            if lhs != rhs:
                bad.append(f"eigenrelation fails at eta={comb.comp_str(eta)} i={i}")
        return bad

    results = [check(eta) for eta in _labels(max_n, max_mod)]
    flat = [msg for sub in results for msg in sub]
    return SuiteReport("eigen", sum(len(eta) for eta in _labels(max_n, max_mod)),
                       flat)


def suite_vanishing(max_n: int, max_mod: int, extra: int = 3,
                    ctx: ScalarContext = GENERIC) -> SuiteReport:
    """Extra vanishing in both directions: Estar_eta(lam-bar) = 0 exactly
    when lam is not a successor of eta.

    The value comes from the general evaluator ``at_point``; the fast
    ``spectral_evaluate`` must agree with it.
    """
    def check(eta):
        n = len(eta)
        bad = []
        m = comb.modulus(eta)
        poly = istar.generate_Estar(eta, ctx)
        for gap in range(1, extra + 1):
            for lam in comb.compositions(n, m + gap):
                value = poly.at_point(comb.spectral_vector(lam, ctx), ctx)
                if istar.spectral_evaluate(eta, lam, ctx) != value:
                    bad.append(
                        f"spectral_evaluate disagrees with at_point "
                        f"eta={comb.comp_str(eta)} lam={comb.comp_str(lam)}")
                vanished = not value
                predicted = istar.extra_vanishing_test(eta, lam)
                if vanished != predicted:
                    bad.append(
                        f"vanishing mismatch eta={comb.comp_str(eta)} "
                        f"lam={comb.comp_str(lam)}: value {'0' if vanished else '!=0'}"
                        f" vs successor says {'0' if predicted else '!=0'}")
        return bad

    labels = list(_labels(max_n, max_mod))
    results = [check(eta) for eta in labels]
    flat = [msg for sub in results for msg in sub]
    return SuiteReport("vanishing", len(labels), flat)


def suite_pieri_agreement(max_n: int, max_mod: int,
                          ctx: ScalarContext = GENERIC) -> SuiteReport:
    """Four-way r=1 agreement: recursion layer, closed delta-beta form,
    factored product form, brute-force expansion."""
    def check(eta):
        bad = []
        oracle = pieri.product_expand_oracle(eta, 1, ctx)
        closed = pieri.pieri_r1_closed(eta, ctx)
        homog = pieri.pieri_homogeneous(eta, 1, ctx)
        product = {pf.lam: pf.coefficient
                   for pf in pieri.pieri_r1_product_form(eta, ctx)
                   if pf.coefficient}
        for name, table in (("closed", closed), ("recursion", homog),
                            ("product-form", product)):
            if table != oracle:
                bad.append(
                    f"r=1 {name} disagrees with oracle at eta={comb.comp_str(eta)}")
        return bad

    labels = list(_labels(max_n, max_mod, min_n=2))
    results = [check(eta) for eta in labels]
    flat = [msg for sub in results for msg in sub]
    return SuiteReport("pieri-agreement", len(labels), flat)


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

    labels = list(_labels(max_n, max_mod, min_n=2))
    results = [check(eta) for eta in labels]
    flat = [msg for sub in results for msg in sub]
    return SuiteReport("pieri-general", len(labels), flat)


def suite_duality(max_n: int, max_mod: int,
                  ctx: ScalarContext = GENERIC) -> SuiteReport:
    """Duality route equals the direct computation."""
    def check(args):
        eta, r = args
        bad = []
        direct = pieri.pieri_homogeneous(eta, r, ctx)
        for lam in comb.successors_layered(eta, r):
            dual = pieri.duality_transfer(eta, lam, r, ctx)
            if dual != direct.get(lam, ctx.zero):
                bad.append(
                    f"duality mismatch eta={comb.comp_str(eta)} "
                    f"lam={comb.comp_str(lam)} r={r}")
        return bad

    jobs = [(eta, r)
            for eta in _labels(max_n, max_mod, min_n=2)
            for r in range(1, len(eta))]
    results = [check(job) for job in jobs]
    flat = [msg for sub in results for msg in sub]
    return SuiteReport("duality", len(jobs), flat)


def suite_binomials(max_n: int, max_mod: int, extra: int = 3,
                    ctx: ScalarContext = GENERIC) -> SuiteReport:
    """binomial_recursive equals binomial_direct across the range."""
    def check(eta):
        n = len(eta)
        m = comb.modulus(eta)
        bad = []
        for gap in range(1, extra + 1):
            for nu in comb.compositions(n, m + gap):
                if istar.binomial_recursive(eta, nu, ctx) != \
                        istar.binomial_direct(eta, nu, ctx):
                    bad.append(
                        f"binomial mismatch eta={comb.comp_str(eta)} "
                        f"nu={comb.comp_str(nu)}")
        return bad

    labels = list(_labels(max_n, max_mod))
    results = [check(eta) for eta in labels]
    flat = [msg for sub in results for msg in sub]
    return SuiteReport("binomials", len(labels), flat)


def suite_norms(max_n: int, max_mod: int, ks=(1, 2),
                ctx: ScalarContext = GENERIC) -> SuiteReport:
    """Orthogonality and norms under the truncated constant-term pairing."""
    failures = []
    checked = 0
    for n in range(2, max_n + 1):
        for k in ks:
            report = ctnorm.verify_orthogonality_norms(n, k, max_mod, ctx)
            checked += report.checked
            for eta, nu, lhs, rhs in report.failures:
                failures.append(
                    f"norm mismatch n={n} k={k} eta={comb.comp_str(eta)} "
                    f"nu={comb.comp_str(nu)}: {lhs} != {rhs}")
    return SuiteReport("norms", checked, failures)


def suite_symmetric_pieri(max_n: int, max_mod: int,
                          ctx: ScalarContext = GENERIC) -> SuiteReport:
    """e_r P_kappa expands with the vertical-strip coefficients and nothing else."""
    def check(args):
        n, kappa, r = args
        bad = []
        table = emac.symmetric_pieri_table(kappa, r, n, ctx)
        lam_all = {lam for lam in table}
        for lam, coeff in table.items():
            if not emac.is_vertical_strip(kappa + (0,) * (n - len(kappa)), lam):
                bad.append(
                    f"non-vertical-strip term kappa={comb.comp_str(kappa)} "
                    f"r={r} lam={comb.comp_str(lam)}")
            elif coeff != emac.psi_coefficient(kappa, lam, n, ctx):
                bad.append(
                    f"psi mismatch kappa={comb.comp_str(kappa)} r={r} "
                    f"lam={comb.comp_str(lam)}")
        # vertical strips that should appear
        kap = kappa + (0,) * (n - len(kappa))
        for lam in comb.compositions(n, comb.modulus(kap) + r):
            if comb.is_partition(lam) and emac.is_vertical_strip(kap, lam) \
                    and lam not in lam_all:
                bad.append(
                    f"missing vertical strip kappa={comb.comp_str(kappa)} "
                    f"r={r} lam={comb.comp_str(lam)}")
        return bad

    jobs = []
    for n in range(1, max_n + 1):
        for kappa in comb.compositions_up_to(n, max_mod):
            if comb.is_partition(kappa):
                for r in range(1, n + 1):
                    jobs.append((n, kappa, r))
    results = [check(job) for job in jobs]
    flat = [msg for sub in results for msg in sub]
    return SuiteReport("symmetric-pieri", len(jobs), flat)


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
    if name == "all":
        names = list(SUITES)
    else:
        names = [name]
    reports = []
    for nm in names:
        fn = SUITES[nm]
        if nm == "norms":
            reports.append(fn(max_n, max_mod, ks=ks, ctx=ctx))
        else:
            reports.append(fn(max_n, max_mod, ctx=ctx))
    return reports

"""Spans around qtmac's public functions, for the benchmark's traced run.

:meth:`Tracer.install` replaces every public function of the qtmac modules
by a wrapper, in every qtmac module namespace that holds it (a function
imported with ``from .algebra import ...`` is wrapped where it is used, not
only where it is defined).  It also wraps the verify suites in
``verify.SUITES``, three methods of the algebra layer and sympy's
``PolyElement.cancel``, where Q(q,t) arithmetic spends its gcd time.

Each wrapper records a span.  A span's self time is its duration minus the
durations of the spans it encloses.  For the memoised generators the
wrapper also counts distinct arguments, so that 1 - distinct/calls is the
share of calls a per-process memo could answer.
"""

import functools
import inspect
import sys
import time

MODULES = ("algebra", "comb", "emac", "istar", "pieri", "ctnorm", "verify", "cli")
DISTINCT = ("istar.generate_Estar", "istar.spectral_evaluate")


def _freeze(value):
    return tuple(value) if isinstance(value, list) else value


class Tracer:
    def __init__(self):
        # name -> [calls, inclusive seconds, self seconds, distinct keys]
        self.stats: dict[str, list] = {}
        # time covered by child spans, one accumulator per open span
        self._child = [0.0]

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, set()])
        child = self._child
        clock = time.perf_counter
        keys = stat[3] if name in DISTINCT else None
        signature = inspect.signature(fn) if keys is not None else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if keys is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                keys.add(tuple(_freeze(v) for v in bound.arguments.values()))
            child.append(0.0)
            begin = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - begin
                inner = child.pop()
                child[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner

        return span

    def install(self):
        import qtmac.algebra
        import qtmac.verify
        from sympy.polys.rings import PolyElement

        suites = {id(fn): key for key, fn in qtmac.verify.SUITES.items()}
        wrapped = {}
        for short in MODULES:
            module = sys.modules[f"qtmac.{short}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    name = (f"verify.{suites[id(value)]}" if id(value) in suites
                            else f"{short}.{attr}")
                    wrapped[id(value)] = self.wrap(name, value)
        for module_name, module in list(sys.modules.items()):
            if module_name == "qtmac" or module_name.startswith("qtmac."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrapped:
                        setattr(module, attr, wrapped[id(value)])
        for key, fn in qtmac.verify.SUITES.items():
            qtmac.verify.SUITES[key] = wrapped[id(fn)]

        for cls, attr, name in (
                (qtmac.algebra.ZPolynomial, "at_point", "algebra.at_point"),
                (qtmac.algebra.ZPolynomial, "__mul__", "algebra.zpoly_mul"),
                (qtmac.algebra.ScalarContext, "num_den_text",
                 "algebra.num_den_text"),
                (PolyElement, "cancel", "algebra.cancel")):
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))

    def report(self) -> dict:
        """{name: {"calls", "s", "self_s", "distinct"}} for every span name."""
        return {name: {"calls": calls, "s": total, "self_s": own,
                       "distinct": len(keys)}
                for name, (calls, total, own, keys) in self.stats.items()}

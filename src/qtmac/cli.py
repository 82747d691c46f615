"""Batch front end.

Compute subcommands emit a single JSON document on stdout; verify
subcommands run the identity suites at chosen bounds.  Exit codes: 0 on
success, 1 on usage errors, 2 on verification failure.  An optional cache
directory stores result documents under deterministic keys with
write-temp-then-rename publication.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction

from .scalar import (
    GENERIC,
    AlgebraError,
    ScalarContext,
    SpecializationError,
    specialized,
)
from . import comb, ctnorm, emac, istar, pieri, verify


class UsageError(Exception):
    pass


SCHEMA_VERSION = "1"


# the inputs a result document may carry, in the order it carries them
INPUT_KEYS = ("eta", "nu", "lam", "r", "k")


def result_document(kind: str, n: int, inputs: dict, params: str,
                    payload) -> dict:
    """One computed result as the dict that is printed and cached, its
    keys in a fixed order."""
    doc = {"schema": SCHEMA_VERSION, "kind": kind, "n": n}
    for key in INPUT_KEYS:
        if key in inputs:
            doc[key] = inputs[key]
    doc["params"] = params
    doc["payload"] = payload
    return doc


def to_json(doc: dict) -> str:
    return json.dumps(doc, separators=(", ", ": "))


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def cache_key(kind: str, n: int, inputs: dict, params: str) -> str:
    """The file name of an entry; only the INPUT_KEYS of ``inputs`` are
    read, so a result document serves as its own inputs."""
    parts = [kind, f"n{n}"]
    for key in INPUT_KEYS:
        if key in inputs:
            parts.append(f"{key}_{inputs[key]}")
    parts.append(params)
    return "__".join(parts).replace(",", "-").replace("/", "_").replace("=", "-") \
        + ".json"


def cache_store(doc: dict, cache_dir: str) -> str:
    """Atomic publish: write a temp file in the target dir, then rename."""
    try:
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    except OSError as exc:
        raise UsageError(f"cannot store in --cache-dir {cache_dir}: "
                         f"{exc.strerror}") from exc
    path = os.path.join(cache_dir,
                        cache_key(doc["kind"], doc["n"], doc, doc["params"]))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(to_json(doc))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def cache_load(kind: str, n: int, inputs: dict, params: str,
               cache_dir: str) -> dict | None:
    """Load a cached document; corrupt or mismatched entries are ignored."""
    path = os.path.join(cache_dir, cache_key(kind, n, inputs, params))
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or "payload" not in doc:
        return None
    expected = result_document(kind, n, inputs, params, doc["payload"])
    return expected if doc == expected else None


# ---------------------------------------------------------------------------
# payload construction
# ---------------------------------------------------------------------------

def _coeff_obj(c, ctx: ScalarContext) -> dict:
    num, den = ctx.num_den_text(ctx.coerce(c))
    return {"num": num, "den": den}


def _table_payload(table: dict, ctx: ScalarContext) -> dict:
    entries = [[comb.comp_str(lam), _coeff_obj(c, ctx)]
               for lam, c in sorted(table.items())]
    return {"entries": entries}


def _parse_params(spec: str) -> ScalarContext:
    try:
        pairs = [part.split("=", 1) for part in spec.split(",")]
        fields = dict(pairs)
        qv = Fraction(fields["q"])
        tv = Fraction(fields["t"])
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        raise UsageError(
            f"cannot parse --params {spec!r}; expected q=NUM/DEN,t=NUM/DEN") from exc
    if len(pairs) != 2:
        raise UsageError(f"--params {spec!r} must set q and t once each "
                         "and nothing else")
    try:
        return specialized(qv, tv)
    except AlgebraError as exc:
        raise UsageError(str(exc)) from exc


def _context(args) -> ScalarContext:
    if getattr(args, "params", None):
        return _parse_params(args.params)
    return GENERIC


def _need(args, name: str):
    value = getattr(args, name, None)
    if value is None:
        raise UsageError(f"--{name} is required for this subcommand")
    return value


def parse_request(args) -> tuple[str, int, dict, ScalarContext]:
    """The validated request (kind, n, inputs, ctx) of a compute subcommand.

    ``inputs`` holds each input in canonical text, as the result document
    and the cache key carry it.
    """
    ctx = _context(args)
    kind = args.kind
    eta = comb.parse_comp(_need(args, "eta"))
    n = len(eta)
    inputs: dict = {"eta": comb.comp_str(eta)}
    if kind == "pieri":
        r = _need(args, "r")
        if not 1 <= r <= n:
            raise UsageError(f"--r must lie in 1..{n}")
        inputs["r"] = r
    elif kind in ("binom", "innerprod"):
        nu = comb.parse_comp(_need(args, "nu"))
        if len(nu) != n:
            raise UsageError("--eta and --nu must have the same length")
        inputs["nu"] = comb.comp_str(nu)
        if kind == "innerprod":
            k = _need(args, "k")
            if k < 0:
                raise UsageError("--k must be a nonnegative integer")
            if not ctx.generic:
                raise UsageError("innerprod runs symbolically; drop --params")
            inputs["k"] = k
    elif kind == "psi":
        lam = comb.parse_comp(_need(args, "lam"))
        inputs["lam"] = comb.comp_str(lam)
        n = max(n, len(lam))
    elif kind not in ("e", "estar", "norm"):
        raise UsageError(f"unknown compute kind {kind!r}")
    return kind, n, inputs, ctx


def compute_document(kind: str, n: int, inputs: dict,
                     ctx: ScalarContext) -> dict:
    eta = comb.parse_comp(inputs["eta"])
    if kind == "e":
        payload = emac.generate_E(eta, ctx).text(ctx)
    elif kind == "estar":
        payload = istar.generate_Estar(eta, ctx).text(ctx)
    elif kind == "norm":
        payload = _coeff_obj(emac.norm_N(eta, ctx), ctx)
    elif kind == "pieri":
        payload = _table_payload(
            pieri.pieri_homogeneous(eta, inputs["r"], ctx), ctx)
    elif kind == "binom":
        nu = comb.parse_comp(inputs["nu"])
        payload = _coeff_obj(istar.binomial_direct(eta, nu, ctx), ctx)
    elif kind == "psi":
        lam = comb.parse_comp(inputs["lam"])
        payload = _coeff_obj(emac.psi_coefficient(eta, lam, n, ctx), ctx)
    else:  # innerprod; parse_request rejected every other kind
        nu = comb.parse_comp(inputs["nu"])
        k = inputs["k"]
        w = ctnorm.specialized_weight(n, k, ctx)
        value = ctnorm.ct_inner_product(
            ctnorm.specialize_E(eta, k, ctx),
            ctnorm.specialize_E(nu, k, ctx.inverted()), w, ctx)
        payload = _coeff_obj(value, ctx)
    return result_document(kind, n, inputs, ctx.params_label(), payload)


def cmd_compute(args) -> int:
    kind, n, inputs, ctx = parse_request(args)
    doc = None
    if args.cache_dir:
        try:
            os.makedirs(args.cache_dir, exist_ok=True)
        except OSError as exc:
            # makedirs raises FileExistsError for a file of that name
            reason = ("not a directory" if isinstance(exc, FileExistsError)
                      else exc.strerror)
            raise UsageError(f"cannot store in --cache-dir {args.cache_dir}: "
                             f"{reason}") from exc
        doc = cache_load(kind, n, inputs, ctx.params_label(), args.cache_dir)
    if doc is None:
        doc = compute_document(kind, n, inputs, ctx)
        if args.cache_dir:
            cache_store(doc, args.cache_dir)
    if args.format == "json":
        sys.stdout.write(to_json(doc) + "\n")
    else:
        sys.stdout.write(format_text(doc) + "\n")
    return 0


def format_text(doc: dict) -> str:
    lines = [f"{doc['kind']} n={doc['n']} params={doc['params']}"]
    for key in INPUT_KEYS:
        if key in doc:
            lines.append(f"  {key} = {doc[key]}")
    payload = doc["payload"]
    if isinstance(payload, str):
        lines.append(f"  value = {payload}")
    elif isinstance(payload, dict) and "entries" in payload:
        for lam, coeff in payload["entries"]:
            num, den = coeff["num"], coeff["den"]
            val = num if den == "1" else f"({num}) / ({den})"
            lines.append(f"  {lam}: {val}")
    elif isinstance(payload, dict):
        num, den = payload["num"], payload["den"]
        lines.append(f"  value = {num}" if den == "1"
                     else f"  value = ({num}) / ({den})")
    return "\n".join(lines)


def report_suites(runs) -> int:
    """Print one line per suite of ``runs``, pairs (report, seconds), where
    seconds may be None; exit 2 if any check failed, else 1 if a suite
    checked nothing at these bounds, else 0."""
    failed = empty = False
    for report, seconds in runs:
        if not report.checked:
            sys.stderr.write(
                f"error: suite {report.suite} checks nothing at these bounds\n")
            empty = True
            continue
        status = "pass" if report.ok else "FAIL"
        sys.stdout.write(
            f"[{status}] {report.suite}: {report.checked} checks"
            + ("" if report.ok else f", {len(report.failures)} failures")
            + ("" if seconds is None else f" ({seconds:.1f}s)") + "\n")
        for msg in report.failures[:5]:
            sys.stdout.write(f"    counterexample: {msg}\n")
        failed = failed or not report.ok
    if failed:
        return 2
    return 1 if empty else 0


def cmd_verify(args) -> int:
    ctx = _context(args)
    if not ctx.generic and args.suite in ("norms", "all"):
        raise UsageError("the norms suite runs symbolically; drop --params")
    if args.k is not None and args.suite not in ("norms", "all"):
        raise UsageError("--k restricts the norms suite only; drop --k")
    ks = (args.k,) if args.k is not None else (1, 2)
    reports = verify.run_suite(args.suite, args.max_n, args.max_mod,
                               ctx=ctx, ks=ks)
    return report_suites((report, None) for report in reports)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_PARAMS = ("--params", {"help": "q=NUM/DEN,t=NUM/DEN rational point"})
_NU = ("--nu", {"help": "second composition"})


def _compute(name, help_text, *options):
    return name, (help_text, (
        ("--eta", {"required": True, "help": "composition, e.g. 0,1,2"}),
        *options, _PARAMS,
        ("--symbolic", {"action": "store_true", "default": False,
                        "help": "force symbolic coefficients (default)"}),
        ("--format", {"choices": ("json", "text"), "default": "json"}),
        ("--cache-dir", {})), {"func": cmd_compute, "kind": name})


# subcommand -> (help, options as (flag, add_argument keywords), defaults):
# the one description of the command line, read by build_parser and by
# _plain_args
COMMANDS = dict([
    _compute("e", "nonsymmetric Macdonald polynomial"),
    _compute("estar", "interpolation Macdonald polynomial"),
    _compute("pieri", "branching coefficient table",
             ("--r", {"type": int, "help": "elementary symmetric degree"})),
    _compute("binom", "generalized binomial coefficient", _NU),
    _compute("norm", "norm of E relative to <1,1>"),
    _compute("psi", "vertical-strip branching coefficient",
             ("--lam", {"help": "target partition"})),
    _compute("innerprod", "constant-term inner product at t=q^k", _NU,
             ("--k", {"type": int, "help": "specialization t = q^k"})),
    ("verify", ("run identity suites", (
        ("--suite", {"required": True,
                     "choices": sorted(verify.SUITES) + ["all"]}),
        ("--max-n", {"type": int, "default": 3}),
        ("--max-mod", {"type": int, "default": 2}),
        ("--k", {"type": int, "help": "restrict the norms suite to one k"}),
        _PARAMS), {"func": cmd_verify})),
])


def build_parser() -> _Parser:
    parser = _Parser(prog="qtmac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, defaults) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, spec in options:
            p.add_argument(flag, **spec)
        p.set_defaults(**defaults)
    return parser


def _plain_args(argv):
    """The namespace argparse gives ``argv`` if it is plain: a subcommand,
    then its own options, each at most once as ``--name value``
    (``--symbolic`` bare), no value starting with ``-``, each value of its
    option's type and among its choices, every required option given.
    Else None, and argparse reads ``argv``: help, abbreviations,
    ``--name=value``, repeats, ``--``, negative values and every error."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, options, defaults = COMMANDS[argv[0]]
    specs, tokens, given = dict(options), iter(argv[1:]), {}
    for flag in tokens:
        spec = specs.get(flag)
        if spec is None or flag in given:
            return None
        if "action" in spec:  # --symbolic
            given[flag] = True
            continue
        raw = next(tokens, "-")
        try:
            value = spec.get("type", str)(raw)
        except ValueError:
            return None
        if raw.startswith("-") or value not in spec.get("choices", [value]):
            return None
        given[flag] = value
    if any(spec.get("required") and flag not in given
           for flag, spec in options):
        return None
    return argparse.Namespace(command=argv[0], **defaults, **{
        flag[2:].replace("-", "_"): given.get(flag, spec.get("default"))
        for flag, spec in options})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _plain_args(argv) or build_parser().parse_args(argv)
        if getattr(args, "params", None) and getattr(args, "symbolic", False):
            raise UsageError("--params and --symbolic are mutually exclusive")
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (SpecializationError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: specialization failed: {exc}\n")
        return 1
    except AlgebraError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

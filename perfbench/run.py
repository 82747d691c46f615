"""qtmac benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload cli-symbolic --seed 1 --seconds 24 --trace 0

Runs the workload's queries in rounds.  Each query runs in a fresh process
(``worker.py``), one at a time, and new rounds start until ``--seconds``
have passed.  Every output is then checked by ``checks.py`` (outside the
timed region), and the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:
  setup_s       median import time of qtmac.cli over the run's processes
  compute_s     sum over the queries of each query's fastest round
  peak_rss_mib  largest ru_maxrss among the run's processes
With ``--trace 1`` each process wraps qtmac's functions (``tracer.py``) and
the metrics are the per-layer ones in PER_LAYER.  A summary of the run goes
to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The whole run, checks included, ends within this many seconds; new rounds
# start only while the reserve for the checks remains.
DEADLINE_S = 170.0
CHECK_RESERVE_S = 40.0

END_TO_END = {"setup_s": "s", "compute_s": "s", "peak_rss_mib": "MiB"}

# span name -> the fields reported for it: the tracer's calls, s (inclusive),
# self_s and distinct, or hit_ratio = 1 - distinct / calls
SPANS = {
    "algebra.cancel": ("calls", "s"),
    "algebra.at_point": ("calls", "self_s"),
    "algebra.zpoly_mul": ("calls", "self_s"),
    "algebra.divided_difference": ("self_s",),
    "algebra.num_den_text": ("s",),
    "comb.is_successor": ("calls", "self_s"),
    "comb.spectral_vector": ("calls",),
    "istar.generate_Estar": ("calls", "distinct", "hit_ratio", "self_s"),
    "istar.spectral_evaluate": ("calls", "distinct", "hit_ratio", "self_s"),
    "istar.apply_H": ("calls", "self_s"),
    "istar.binomial_recursive": ("calls", "self_s"),
    "istar.vanishing_solve_oracle": ("self_s",),
    "istar.xi_apply": ("self_s",),
    "pieri.interpolation_expansion": ("self_s",),
    "pieri.product_expand_oracle": ("self_s",),
    "pieri.duality_transfer": ("calls",),
    "emac.generate_E": ("calls", "self_s"),
    "emac.apply_T": ("self_s",),
    "emac.symmetric_pieri_table": ("self_s",),
    "ctnorm.ct_inner_product": ("calls", "self_s"),
    "ctnorm.specialized_weight": ("self_s",),
    **{f"verify.{suite}": ("s",) for suite, _, _ in workloads.VERIFY_BATTERY},
}
UNITS = {"calls": "count", "distinct": "count", "hit_ratio": "ratio"}
# metric name -> (span name, field, unit)
PER_LAYER = {f"{span}.{field}": (span, field, UNITS.get(field, "s"))
             for span, fields in SPANS.items() for field in fields}
IMPORT_METRICS = ("setup.import_sympy_s", "setup.import_qtmac_s")


def run_query(query: dict, trace: bool, timeout: float) -> dict:
    """One query in a fresh worker process; the worker's report, or a
    report with a string ``rc`` saying why there is none."""
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []),
           os.path.join(HERE, "worker.py"), SRC, "1" if trace else "0",
           json.dumps(query["argv"])]
    # a fixed hash seed keeps set iteration, and so every count, repeatable
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=env, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"rc": "timeout", "stderr": ""}
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"rc": f"worker exit {proc.returncode}", "stderr": proc.stderr}
    if trace:
        report["importtime"] = parse_importtime(proc.stderr)
    return report


def parse_importtime(text: str) -> dict:
    """sympy's import time, and that of qtmac.cli without sympy, in s, from
    the ``-X importtime`` lines (each module is listed once, with the
    cumulative time of everything its import pulled in)."""
    cumulative = {}
    for line in text.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit() \
                and fields[2].strip() in ("sympy", "qtmac.cli"):
            cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    sympy = cumulative.get("sympy", 0.0)
    return {"setup.import_sympy_s": sympy,
            "setup.import_qtmac_s": cumulative.get("qtmac.cli", 0.0) - sympy}


def run_rounds(queries: list, seconds: float, trace: bool, started: float):
    """Whole rounds of every query until ``seconds`` have passed."""
    rounds = []
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        reports = []
        for query in queries:
            left = DEADLINE_S - CHECK_RESERVE_S - (time.perf_counter() - started)
            reports.append(run_query(query, trace, left))
        rounds.append(reports)
        now = time.perf_counter()
        if (now - begin >= seconds
                or any(r["rc"] == "timeout" for r in reports)
                or now - started + (now - round_start)
                > DEADLINE_S - CHECK_RESERVE_S):
            return rounds


def run_oracle(requests: list, timeout: float) -> dict:
    """stdout of each oracle command line that exited 0."""
    if not requests:
        return {}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "oracle.py"), SRC],
        input=json.dumps(requests), capture_output=True, text=True, cwd=ROOT,
        timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"oracle process failed: {proc.stderr[-2000:]}")
    return {tuple(argv): out for argv, rc, out in json.loads(proc.stdout)
            if rc == 0}


def check_outputs(queries: list, rounds: list, started: float) -> dict:
    """Index of each query whose output is wrong -> its errors.  A query's
    output must be the same in every round, and must pass its checks."""
    errors: dict[int, list] = {}
    references = {}
    for i in range(len(queries)):
        ok = [rnd[i]["stdout"] for rnd in rounds if rnd[i]["rc"] == 0]
        if ok:
            references[i] = ok[0]
            if any(out != ok[0] for out in ok):
                errors.setdefault(i, []).append("output differs between rounds")
    requests = []
    for i, out in references.items():
        if queries[i]["kind"] == "verify":
            continue
        try:
            requests += checks.oracle_requests(queries[i], json.loads(out))
        except (ValueError, KeyError, TypeError) as exc:
            errors.setdefault(i, []).append(f"unreadable output: {exc}")
    oracle = run_oracle(sorted(set(requests)),
                        DEADLINE_S - (time.perf_counter() - started))
    for i, out in references.items():
        errs = checks.check_query(queries[i], out, oracle)
        if errs:
            errors.setdefault(i, []).extend(errs)
    return errors


def compute_times(queries: list, rounds: list) -> list[list[float]]:
    """Each query's compute times, one per round in which it exited 0."""
    return [[rnd[i]["compute_s"] for rnd in rounds if rnd[i]["rc"] == 0]
            for i in range(len(queries))]


def end_to_end(queries: list, rounds: list) -> dict:
    ok = [r for rnd in rounds for r in rnd if r["rc"] == 0]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "compute_s": sum(min(times) for times in compute_times(queries, rounds)
                         if times),
        "peak_rss_mib": max(r["maxrss_kib"] for r in ok) / 1024,
    }


def round_totals(reports: list) -> dict:
    """Span name -> summed calls / s / self_s / distinct over one round."""
    totals: dict[str, dict] = {}
    for report in reports:
        for name, stat in (report.get("trace") or {}).items():
            acc = totals.setdefault(name, dict.fromkeys(stat, 0))
            for field, value in stat.items():
                acc[field] += value
    return totals


def per_layer(rounds: list) -> tuple[dict, dict]:
    """The PER_LAYER metrics (counts from the first round, which every round
    repeats; times as the median over rounds) and every span's median
    self time, for the summary."""
    per_round = [round_totals(rnd) for rnd in rounds]

    def value(totals, span, field):
        stat = totals.get(span, {})
        if field == "hit_ratio":
            calls = stat.get("calls", 0)
            return 1 - stat.get("distinct", 0) / calls if calls else 0.0
        return stat.get(field, 0)

    metrics = {}
    for name, (span, field, unit) in PER_LAYER.items():
        if unit == "s":
            v = statistics.median(value(t, span, field) for t in per_round)
        else:
            v = value(per_round[0], span, field)
        metrics[name] = {"value": v, "unit": unit}
    imports = [r["importtime"] for rnd in rounds for r in rnd if "importtime" in r]
    for name in IMPORT_METRICS:
        metrics[name] = {"value": statistics.median(i[name] for i in imports),
                         "unit": "s"}
    spans = {name: statistics.median(t.get(name, {}).get("self_s", 0.0)
                                     for t in per_round)
             for name in per_round[0]}
    return metrics, spans


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qtmac", "cli.py")):
        sys.stderr.write(f"error: no qtmac sources under {SRC}\n")
        return 2

    queries = workloads.build(args.workload, args.seed)
    rounds = run_rounds(queries, args.seconds, bool(args.trace), started)
    errors = check_outputs(queries, rounds, started)

    # a wrong output makes the run incorrect; a query that exits non-zero
    # is failed, but says nothing false
    correct = not errors
    attempted = failed = 0
    for rnd in rounds:
        for i, report in enumerate(rnd):
            attempted += 1
            if report["rc"] != 0:
                failed += 1
                errors.setdefault(i, []).append(
                    f"exit {report['rc']}: {report.get('stderr', '')[-500:]}")
            elif i in errors:
                failed += 1
    if failed == attempted:
        sys.stderr.write("error: every query failed\n")
        for i, errs in sorted(errors.items()):
            sys.stderr.write(f"  {' '.join(queries[i]['argv'])}: {errs[0]}\n")
        return 1

    e2e = end_to_end(queries, rounds)
    if args.trace:
        metrics, spans = per_layer(rounds)
    else:
        metrics = {name: {"value": v, "unit": END_TO_END[name]}
                   for name, v in e2e.items()}

    log = sys.stderr
    log.write(f"{args.workload} seed={args.seed} trace={args.trace}: "
              f"{len(rounds)} rounds of {len(queries)} queries, "
              f"{attempted} attempted, {failed} failed; "
              + ", ".join(f"{k}={v:.4f}" for k, v in e2e.items()) + "\n")
    for i, errs in sorted(errors.items()):
        log.write(f"  FAILED {' '.join(queries[i]['argv'])}: {errs}\n")
    for query, times in zip(queries, compute_times(queries, rounds)):
        log.write(f"  {' '.join(query['argv'])}: "
                  + " ".join(f"{t:.3f}" for t in times) + "\n")
    if args.trace:
        log.write("  largest self times (median over rounds):\n")
        for name, own in sorted(spans.items(), key=lambda kv: -kv[1])[:25]:
            log.write(f"    {name:40s} {own:9.3f} s\n")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark once per seed and report the run-to-run spread.

    python3 perfbench/spread.py --workload cli-symbolic --seeds 1-10 --seconds 20

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the distance between them as a
share of the median.  Each run's result line is also appended to
``--log`` when given, so the figures can be recomputed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--log", help="file to append each result line to")
    args = parser.parse_args()

    values: dict[str, list] = {}
    units = {}
    for seed in seed_range(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False)
        line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not line:
            sys.stderr.write(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        result = json.loads(line)
        if args.log:
            with open(args.log, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in result["metrics"].items()
                         if args.trace == "0"), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:40s} median {med:.4g} {units[name]}  "
              f"quartiles {q1:.4g} .. {q3:.4g}  spread {share:.2%}  "
              f"range {min(vals):.4g} .. {max(vals):.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Collect and compare result sets of the repository benchmark.

A result set is a JSON Lines file; each line is one run:
{"workload": ..., "seed": ..., "trace": 0|1, "result": <run.py's last line>}.

    # run seeds 1..10 of a workload and append them to a result set
    python3 perfbench/compare.py collect --workload local --seeds 1-10 \\
        --out base.jsonl [--trace 1]
    # median, quartiles and spread of every metric in one result set
    python3 perfbench/compare.py spread base.jsonl
    # join two result sets by workload and metric
    python3 perfbench/compare.py diff base.jsonl head.jsonl

Quartiles are statistics.quantiles(values, n=4); the spread is the distance
between the first and third quartile as a share of the median. `diff`
prints, per pair, both medians and quartiles, the ratio head/base, and a
verdict against the metric's bound from BENCHMARK.json: "worse" when the
head median is worse than the base median by more than the bound, "better"
when it is better by more than the base's own spread, "unresolved" when the
base spread exceeds the bound, "same" otherwise. Per-layer metrics have no
bound; their verdict column reads "-". Standard library only.
"""
import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec():
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for m in data["end_to_end"]:
        metrics[m["name"]] = m
    for m in data["per_layer"]:
        metrics[m["name"]] = dict(m, bound=None)
    return data, metrics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load(path):
    """{(workload, trace): {metric: [values]}} and the failed-run count."""
    table = defaultdict(lambda: defaultdict(list))
    failed = 0
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        result = run["result"]
        if not result["correct"] or result["failed"]:
            failed += 1
        for name, m in result["metrics"].items():
            table[(run["workload"], run["trace"])][name].append(m["value"])
    return table, failed


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0
    return med, q1, q3, spread


def collect(args):
    data, _ = spec()
    seconds = args.seconds or data["run_seconds"]
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"seed {seed}: run.py exited {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            row = {"workload": args.workload, "seed": seed, "trace": args.trace,
                   "result": result}
            out.write(json.dumps(row) + "\n")
            out.flush()
            print(f"seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
    return spread(argparse.Namespace(path=args.out))


def spread(args):
    _, metrics = spec()
    table, failed = load(args.path)
    worst = 0
    print(f"{'workload':<11} {'metric':<34} {'n':>3} {'median':>13} {'q1':>13} "
          f"{'q3':>13} {'spread':>7} {'bound':>6}  flag")
    for (workload, trace), per_metric in sorted(table.items()):
        for name, values in per_metric.items():
            med, q1, q3, sp = summary(values)
            bound = metrics.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                if sp > bound:
                    flag, worst = "WIDER THAN BOUND", 1
                elif sp > bound / 3:
                    flag = "above a third of bound"
            print(f"{workload:<11} {name:<34} {len(values):>3} {med:>13.6g} {q1:>13.6g} "
                  f"{q3:>13.6g} {sp:>7.3f} {bound if bound is not None else '-':>6}  {flag}")
    if failed:
        print(f"{failed} run(s) reported failures")
        worst = 1
    return worst


def diff(args):
    _, metrics = spec()
    base, base_failed = load(args.base)
    head, head_failed = load(args.head)
    print(f"{'workload':<11} {'metric':<34} {'base median [q1, q3]':>36} "
          f"{'head median [q1, q3]':>36} {'ratio':>7}  verdict")
    for key in sorted(set(base) & set(head)):
        workload, _ = key
        for name in base[key]:
            if name not in head[key]:
                continue
            b_med, b_q1, b_q3, b_sp = summary(base[key][name])
            h_med, h_q1, h_q3, _ = summary(head[key][name])
            m = metrics.get(name, {})
            bound = m.get("bound")
            sign = 1 if m.get("better", "lower") == "lower" else -1
            change = sign * (h_med - b_med) / abs(b_med) if b_med else 0.0
            if bound is None:
                verdict = "-"
            elif b_sp > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
            elif -change > b_sp:
                verdict = "better"
            else:
                verdict = "same"
            ratio = h_med / b_med if b_med else float("nan")
            print(f"{workload:<11} {name:<34} "
                  f"{f'{b_med:.5g} [{b_q1:.5g}, {b_q3:.5g}]':>36} "
                  f"{f'{h_med:.5g} [{h_q1:.5g}, {h_q3:.5g}]':>36} {ratio:>7.3f}  {verdict}")
    if base_failed or head_failed:
        print(f"runs with failures: base {base_failed}, head {head_failed}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run seeds and append them to a result set")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    c.add_argument("--trace", type=int, choices=[0, 1], default=0)
    c.add_argument("--seconds", type=float, default=None)
    c.add_argument("--out", required=True)
    c.set_defaults(func=collect)
    s = sub.add_parser("spread", help="median, quartiles and spread per metric")
    s.add_argument("path")
    s.set_defaults(func=spread)
    d = sub.add_parser("diff", help="compare two result sets")
    d.add_argument("base")
    d.add_argument("head")
    d.set_defaults(func=diff)
    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()

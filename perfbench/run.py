#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload local --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Builds this package (and with it the
GridSAT sources under src/) with CMake into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, then runs gridsat_perf. Its report goes to
standard output; its last line is the result object
{"correct", "attempted", "failed", "metrics"}, with the metrics BENCHMARK.json
lists for the requested mode and their units. A failed build, a missing
source tree, a crashed gridsat_perf, an unmeasured end-to-end metric or a
metric BENCHMARK.json does not list exits non-zero without printing a
result.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170  # a run must end within 180 s once the build is done


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no GridSAT sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(PACKAGE), "-B", str(out)],
        ["cmake", "--build", str(out), "--target", "gridsat_perf", "-j", jobs],
    ]
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail("build step failed: " + " ".join(step))
    return out / "gridsat_perf"


def result_of(line, spec, mode):
    """The result object for `mode` from gridsat_perf's last line.

    gridsat_perf prints every metric it set, by name. Every end-to-end metric
    must be there. A per-layer metric of a layer the workload never enters is
    absent and reads 0. A name BENCHMARK.json does not list is an error.
    """
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as err:
        fail(f"gridsat_perf's last line is not JSON ({err})")
    if set(raw) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(raw)}")
    if not isinstance(raw["attempted"], int) or raw["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unlisted = sorted(set(raw["metrics"]) - listed)
    if unlisted:
        fail(f"metrics not listed in BENCHMARK.json: {unlisted}")
    metrics = {}
    for m in spec[mode]:
        value = raw["metrics"].get(m["name"])
        if value is None and mode == "end_to_end":
            fail(f"end-to-end metric {m['name']} was not measured")
        value = 0 if value is None else value
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {m['name']} has no finite value")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    mode = "per_layer" if args.trace else "end_to_end"

    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace:
        cmd.append(f"--spans={out / f'spans-{args.workload}-{args.seed}.jsonl'}")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_LIMIT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
        fail(f"gridsat_perf exited with code {proc.returncode}")
    result = result_of(lines[-1], spec, mode)
    print("\n".join(lines[:-1]))
    print(f"\n{'metric':<36} {'value':>18}  unit")
    for name, m in result["metrics"].items():
        print(f"{name:<36} {m['value']:>18.6f}  {m['unit']}")
    print(f"{'fail_frac':<36} {result['failed'] / result['attempted']:>18.6f}  "
          f"ratio ({result['failed']} failed of {result['attempted']} attempted)")
    print(f"run took {time.monotonic() - start:.1f} s")
    print(json.dumps(result))

if __name__ == "__main__":
    main()

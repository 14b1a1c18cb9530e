#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Builds the simulator and the benchmark harness from source (Release),
runs one workload closed-loop for a fixed host-time budget, checks the
simulated outputs, and prints every metric by name and unit. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, taken
from traced reps (obs metrics registry on, the benchmark's own spans
written as a Chrome trace next to a per-layer JSON).

Checks, any of which makes the run incorrect and the exit code 1:
  * an experiment threw, broke an output invariant, or its output
    digest differs between executions (timed vs traced included);
  * at the reference seed, an experiment's digest differs from
    perfbench/reference_digests.json;
  * the executed node-tick count differs from the traced engine.ticks;
  * the Chrome trace fails scripts/check_trace.py;
  * a metric is missing, extra, non-finite, or (end-to-end) zero.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload NAME --seed 1 --seconds 1 --trace 0 \\
      --write-reference      # regenerate that workload's reference digests

Build outputs go to $CARGO_TARGET_DIR/perfbench (default .bench_build),
relative to the repository root.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("node_paper", "node_crowd_admission", "cluster_budget")
REFERENCE = os.path.join(HERE, "reference_digests.json")
REFERENCE_SEED = 1
RUN_BUDGET_S = 175.0


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(bdir):
    """Configure (once) and build; returns the harness binary path."""
    for need in ("CMakeLists.txt", "scripts/check_trace.py",
                 "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise RuntimeError(f"{need} not found under {ROOT}: run from "
                               f"a full checkout of the repository")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(bdir, "perfbench")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def metric_specs(trace):
    """(name, unit) pairs the run must report, from BENCHMARK.json."""
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def apply_reference(result, reference, errors):
    """Count every execution of a digest-mismatched experiment failed."""
    want = reference.get("workloads", {}).get(result["workload"])
    if want is None:
        errors.append(f"no reference digests for {result['workload']}")
        return 1
    got = {e["id"]: e for e in result["experiments"]}
    extra = 0
    for exp_id in sorted(set(want) | set(got)):
        e = got.get(exp_id)
        if e is None:
            errors.append(f"{exp_id}: in the reference, not run")
            extra += 1
        elif want.get(exp_id) != e["digest"]:
            errors.append(f"{exp_id}: digest {e['digest']} != reference "
                          f"{want.get(exp_id)}")
            extra += e["runs"] - e["failed_runs"]
    return extra


def evaluate(result, trace, reference, seed):
    """Apply every check to a harness result.

    Returns (correct, attempted, failed, metrics, errors), where metrics
    maps each BENCHMARK.json name of this mode to {"value", "unit"}.
    """
    errors = []
    attempted = result["attempted"]
    failed = result["failed"]
    for e in result["experiments"]:
        for err in e["errors"]:
            errors.append(f"{e['id']}: {err}")
    if seed == reference.get("seed"):
        failed += apply_reference(result, reference, errors)
    failed = min(failed, attempted)
    correct = failed == 0 and attempted > 0

    if result["node_ticks"] != result["registry_ticks"]:
        correct = False
        errors.append(f"node-ticks {result['node_ticks']} != traced "
                      f"engine.ticks {result['registry_ticks']}")

    values = result["per_layer" if trace else "end_to_end"]
    specs = metric_specs(trace)
    names = [n for n, _ in specs]
    if sorted(values) != sorted(names):
        correct = False
        errors.append(f"metric names {sorted(values)} do not match "
                      f"BENCHMARK.json {sorted(names)}")
    metrics = {}
    for name, unit in specs:
        v = values.get(name)
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            correct = False
            errors.append(f"metric {name} = {v!r} is not a finite number")
            continue
        if not trace and v == 0:
            correct = False
            errors.append(f"end-to-end metric {name} is 0")
        metrics[name] = {"value": v, "unit": unit}
    return correct, attempted, failed, metrics, errors


def fmt_value(value, unit):
    """Timers in adaptive units (ns/µs/ms/s); never a bare 0.0000."""
    seconds = {"s": 1.0, "ms": 1e-3, "us": 1e-6}.get(unit)
    if seconds is not None:
        v = value * seconds
        if v == 0:
            return "0"
        for scale, name in ((1.0, "s"), (1e-3, "ms"), (1e-6, "µs")):
            if abs(v) >= scale:
                return f"{v / scale:.4g} {name}"
        return f"{v / 1e-9:.4g} ns"
    if unit == "count" and float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g} {unit}"


def check_trace(path, errors):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "check_trace.py"),
         path], capture_output=True, text=True)
    log((proc.stdout + proc.stderr).strip())
    if proc.returncode != 0:
        errors.append(f"check_trace.py rejected {path}")
        return False
    return True


def write_reference(result):
    reference = (load_json(REFERENCE) if os.path.exists(REFERENCE)
                 else {"seed": REFERENCE_SEED, "workloads": {}})
    reference["workloads"][result["workload"]] = {
        e["id"]: e["digest"] for e in result["experiments"]}
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {result['workload']} digests to {REFERENCE}")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's digests as the reference "
                         "(requires --seed %d)" % REFERENCE_SEED)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.write_reference and args.seed != REFERENCE_SEED:
        ap.error(f"--write-reference needs --seed {REFERENCE_SEED}")

    start = time.monotonic()
    try:
        bdir = build_dir()
        binary = build(bdir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2
    out = os.path.join(bdir, "out",
                       f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    timeout = max(start + RUN_BUDGET_S, time.monotonic() + 120.0) - \
        time.monotonic()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out]
    try:
        subprocess.run(cmd, check=True, timeout=timeout)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: harness failed: {e}")
        return 2
    result = load_json(os.path.join(out, "result.json"))
    if args.write_reference:
        write_reference(result)
        return 0

    reference = load_json(REFERENCE)
    correct, attempted, failed, metrics, errors = evaluate(
        result, args.trace, reference, args.seed)
    if not check_trace(os.path.join(out, "trace.json"), errors):
        correct = False

    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}: {result['timed_reps']} timed reps, "
          f"{result['traced_reps']} traced reps, "
          f"{result['node_ticks']} node-ticks per rep")
    for name, m in metrics.items():
        print(f"  {name:<32} {fmt_value(m['value'], m['unit'])}")
    print(f"  {'failed_frac':<32} {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} experiments)")
    shed = 1.0 - result["end_to_end"]["admitted_frac"]
    print(f"  {'shed_frac':<32} {shed:.6g} frac")
    print(f"  trace: {os.path.join(out, 'trace.json')}")
    print(f"  per-layer: {os.path.join(out, 'layers.json')}")
    for err in errors[:20]:
        print(f"  FAILED: {err}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

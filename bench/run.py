#!/usr/bin/env python3
"""The hkr benchmark: one workload, measured end to end or traced by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload construct --seed 0 --seconds 60 --trace 0
    python3 bench/run.py --workload verify --seed 3 --seconds 60 --trace 1

Each pass over a workload's inputs runs in a fresh interpreter started from
``src`` (bench/worker.py), one pass at a time, because a CLI user pays import
and construction on every call.  Passes repeat while another one fits in
``--seconds``; the first always runs.  Each op latency is divided by the
mean time of a fixed reference computation run around it
(bench/reference.py), and an op's cost is the median of that ratio over the
passes.  Extra interpreters that only import and generate inputs, before
each pass and after the last, add samples of the set-up time.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` every op of a pass runs untraced and traced, back to back, and
the last line holds the per-layer metrics and the tracing overhead.  See
bench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import SCALAR_OPS, SPANNED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = {
    # every catalog form through the interactive describe/hkr/dims path
    "construct": {"kind": "construct", "forms": "catalog"},
    # the verify --all mix of checks on the 16 catalog forms of dimension at
    # most 21 (su(2,3), so*(8) and su(3,3) would take half a pass), so that
    # a run holds several passes
    "verify": {"kind": "verify",
               "forms": ["sl_r:n=2", "sl_r:n=3", "sl_r:n=4", "su:p=1,q=2",
                         "su:p=1,q=3", "su:p=2,q=2", "sp_r:n=1", "sp_r:n=2",
                         "sp_r:n=3", "so:p=2,q=3", "so:p=2,q=4", "so:p=3,q=3",
                         "su_star:n=2", "sp:p=1,q=2", "so_star:n=3",
                         "sl_c:n=2"],
               "samples": 2, "fiber_samples": 1, "conjugators": 1,
               "global": True},
}

# Op latencies are reported in "ref": multiples of the time the reference
# computation (bench/reference.py) took around the op.
END_TO_END = [("setup_s", "s"), ("pass_ref", "ref"), ("op_gmean_ref", "ref"),
              ("op_max_ref", "ref"), ("peak_rss_mb", "MB")]

# set-up-only interpreters before each pass and after the last one, so the
# samples see the host at several moments of the run
SETUP_SAMPLES = 1
CHILD_TIMEOUT_S = 170

# Functions that call no other traced function: their inclusive time equals
# their self time, so only self time is reported.
LEAVES = {"linalg.rref", "linalg.charpoly", "linalg.charpoly_frac",
          "linalg.rational_roots", "algebra.ad_frac", "algebra.bracket_coords",
          "algebra.matrix_of", "roots.weyl_group",
          "triples.section_point", "dimensions.dimension_report"}
# The matrix-order buckets each linalg entry point reaches on the workloads.
# Only rref and kernel_right see systems larger than 35 (the catalog's basis
# conditions, the centralizer systems of dim^2 rows); solve_right and
# charpoly stay within order 15, so their calls need no buckets.
REPORTED_BUCKETS = {
    "linalg.rref": ["o1_15", "o16_35", "o36_63", "o64_up"],
    "linalg.kernel_right": ["o1_15", "o16_35", "o36_63", "o64_up"],
    "linalg.rational_roots": ["o1_15", "o16_35"],
    "linalg.charpoly_frac": ["o1_15", "o16_35"],
}
VERIFY_CHECKS = ["regularity", "invariance", "injectivity", "fiber_match",
                 "exponent_oracle"]


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = [("scalars.%s.calls" % op, "count")
           for op in sorted(set(SCALAR_OPS.values()))]
    for mod, _owner, attrs in SPANNED:
        for attr in attrs:
            name = "%s.%s" % (mod, attr)
            out.append((name + ".calls", "count"))
            if name not in LEAVES:
                out.append((name + ".s", "s"))
            out.append((name + ".self_s", "s"))
            out += [("%s.%s.calls" % (name, bucket), "count")
                    for bucket in REPORTED_BUCKETS.get(name, [])]
    out += [("linalg.charpoly.max_order", "rows"),
            ("linalg.charpoly_frac.max_order", "rows"),
            ("linalg.charpoly_frac.calls_over_n", "count")]
    out += [("verify.check.%s.s" % c, "s") for c in VERIFY_CHECKS]
    out.append(("trace.overhead", "ratio"))
    return out


def child_env():
    """The environment of every pass: this checkout's src, the default size
    bound, and a fixed hash seed so traced call counts repeat exactly."""
    env = dict(os.environ)
    env.pop("HKR_MAX_DIM", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec, seed, env, *flags):
    """One worker interpreter; returns its JSON result and set-up seconds."""
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(spec),
           str(seed), *flags]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("worker exited with %d:\n%s"
                           % (proc.returncode, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def count_failures(passes):
    """(attempted, failed) over every op execution of the passes."""
    ops = [op for p in passes for op in p["ops"]]
    return len(ops), sum(1 for op in ops if not op["ok"])


def per_op(passes, value):
    """The median over the passes of value(op record), per op, in pass
    order.  Every pass does the same work, so the spread between passes is
    the host's."""
    samples = {}
    for p in passes:
        for op in p["ops"]:
            samples.setdefault(op["op"], []).append(value(op))
    return [statistics.median(v) for v in samples.values()]


def end_to_end(passes, setup_samples):
    """End-to-end metrics of untraced passes.  An op's cost is its latency
    over the reference time measured around it: the host's speed changes
    both alike, so the ratio keeps the program's cost.  Set-up time
    and memory are medians, in seconds and MB."""
    costs = per_op(passes, lambda op: op["s"] / op["ref_s"])
    setups = setup_samples + [p["setup_s"] for p in passes]
    return {
        "setup_s": statistics.median(setups),
        "pass_ref": sum(costs),
        "op_gmean_ref": statistics.geometric_mean(costs),
        "op_max_ref": max(costs),
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
    }


def layer_values(passes):
    """Per-layer metrics of traced passes, medians over the passes.

    The overhead of a pass is the summed latency of its traced op
    executions over that of its untraced ones.
    """
    values = {}
    for name, _unit in per_layer_metrics():
        if name == "trace.overhead":
            samples = [
                sum(op["s"] for op in p["ops"] if op["traced"])
                / sum(op["s"] for op in p["ops"] if not op["traced"])
                for p in passes]
        elif name.startswith("verify.check."):
            check = name[len("verify.check."):-len(".s")]
            samples = [sum(op["check_s"].get(check, 0.0)
                           for op in p["ops"] if op["traced"])
                       for p in passes]
        else:
            samples = [p["layers"][name] for p in passes]
        values[name] = statistics.median(samples)
    return values


def measure(spec, seed, seconds, trace):
    """Run passes of one workload spec serially; returns the result object
    the benchmark prints, and the passes behind it."""
    env = child_env()
    flags = ["--trace"] if trace else []
    setup_samples = []

    def sample_setup():
        if not trace:
            setup_samples.extend(
                run_child(spec, seed, env, "--setup-only")["setup_s"]
                for _ in range(SETUP_SAMPLES))

    passes = []
    t0 = time.monotonic()
    while True:
        sample_setup()
        passes.append(run_child(spec, seed, env, *flags))
        elapsed = time.monotonic() - t0
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    sample_setup()
    if trace:
        units = dict(per_layer_metrics())
        values = layer_values(passes)
    else:
        units = dict(END_TO_END)
        values = end_to_end(passes, setup_samples)
    attempted, failed = count_failures(passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    return result, passes


def git_rev():
    """The checkout's commit when it is a git work tree, read from .git
    directly so nothing outside the checkout is consulted."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[len("ref: "):]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hkr" / "__init__.py").is_file():
        print("bench: no hkr sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    result, passes = measure(spec, args.seed, args.seconds, bool(args.trace))
    print("workload %s  seed %d  seconds %g  trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("python %s  nproc %d  git %s  HKR_MAX_DIM unset  PYTHONHASHSEED 0"
          % (platform.python_version(), len(os.sched_getaffinity(0)), git_rev()))
    print("passes %d  ops attempted %d  failed %d  fail_ratio %g"
          % (len(passes), result["attempted"], result["failed"],
             result["failed"] / result["attempted"]))
    if not args.trace:
        seconds = per_op(passes, lambda op: op["s"])
        print("median per op: pass_s %g  op_p50_s %g  op_max_s %g  ref_s %g"
              % (sum(seconds), statistics.median(seconds), max(seconds),
                 statistics.median(op["ref_s"] for p in passes
                                   for op in p["ops"])))
    for p in passes:
        for op in p["ops"]:
            if not op["ok"]:
                print("FAILED %s: %s" % (op["op"], "; ".join(op["problems"])))
    for name, m in result["metrics"].items():
        print("%-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

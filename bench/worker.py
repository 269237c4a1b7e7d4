"""One pass of a benchmark workload, in a fresh interpreter.

Usage (run.py starts it once per pass, with ``src`` on PYTHONPATH):

    python3 bench/worker.py '<workload spec as JSON>' <seed> [--trace] [--setup-only]

The spec names the kind of op ("construct" or "verify"), the forms, and for
verify the sample counts.  The worker imports ``hkr``, generates the inputs,
notes the time it became ready, runs every op in order, checks each op's
output, and prints one JSON line: readiness time, per-op latency, reference
time (bench/reference.py) and verdict, and peak RSS.  With --trace each op
runs untraced and traced and the line adds the per-layer metrics; with
--setup-only no op runs.
"""

import json
import resource
import sys
import time

from hkr import catalog
from hkr import dimensions as dm
from hkr import roots as rt
from hkr import verify
from reference import reference_seconds

# Reference runs after the last op, so the last op has references after it
# as well as before, and the shortest window of references around an op.
END_REFERENCES = 3
REFERENCE_WINDOW_S = 1.0


def make_inputs(spec):
    """The op list for one pass: (label, FormId), with (label, None) for the
    global verify checks."""
    texts = spec["forms"]
    if texts == "catalog":
        texts = [catalog.form_cli_text(f) for f in catalog.standard_forms()]
    ops = [(text, catalog.parse_form(text)) for text in texts]
    if spec["kind"] == "verify" and spec["global"]:
        ops.append(("(global)", None))
    return ops


def construct_problems(fid, analysis, report, reference):
    """Where one construct op disagrees with its reference table row."""
    row = reference(fid)
    problems = []
    restricted, _reduced = rt.classify_type(analysis.root_data)
    if not rt.type_equivalent(restricted, row.restricted_type):
        problems.append("restricted type %s, table %s"
                        % (restricted, row.restricted_type))
    sub = analysis.split_sub
    if sub.table_label != row.split_sub:
        problems.append("split subalgebra %s, table %s"
                        % (sub.table_label, row.split_sub))
    if sub.dim != catalog.algebra_label_dim(row.split_sub):
        problems.append("split subalgebra dim %d, table %s"
                        % (sub.dim, row.split_sub))
    if analysis.quasi_split != row.quasi_split:
        problems.append("quasi-split %s, table %s"
                        % (analysis.quasi_split, row.quasi_split))
    if analysis.is_split and report.base_dim != report.expected_moduli_dim:
        problems.append("split form with base %d != expected %d"
                        % (report.base_dim, report.expected_moduli_dim))
    return problems


def run_op(spec, seed, fid):
    """The timed call of one op: its output, not yet checked."""
    if spec["kind"] == "construct":
        analysis = dm.analyze(catalog.build(fid))
        return analysis, dm.dimension_report(analysis,
                                             dm.CurveContext.canonical(2))
    if fid is None:
        return verify.verify_global(seed)
    return verify.verify_form(fid, seed, samples=spec["samples"],
                              fiber_samples=spec["fiber_samples"],
                              conjugators=spec["conjugators"])


def op_problems(spec, fid, output, reference):
    if spec["kind"] == "construct":
        analysis, report = output
        return construct_problems(fid, analysis, report, reference)
    return ["%s: %s" % (r.check, r.detail) for r in output if not r.ok]


def run_checked(spec, seed, label, fid, reference):
    """One op, timed, then checked.  An op that raises or whose output
    disagrees with the reference is recorded as failed; only the op itself
    is timed, not its check."""
    check_s = {}
    t0 = time.perf_counter()
    try:
        output = run_op(spec, seed, fid)
        seconds = time.perf_counter() - t0
        problems = op_problems(spec, fid, output, reference)
    except Exception as exc:  # a failed op is counted, never fatal
        seconds = time.perf_counter() - t0
        problems = ["%s: %s" % (type(exc).__name__, exc)]
    else:
        if spec["kind"] == "verify":
            for r in output:
                check_s[r.check] = check_s.get(r.check, 0.0) + r.seconds
    return {"op": label, "t0": t0, "s": seconds, "ok": not problems,
            "problems": problems, "check_s": check_s}


def run_pass(spec, seed, ops, reference=catalog.lookup_table1):
    """Every op once, in order, with the reference computation before each
    op and END_REFERENCES times after the last.  Each record gets the mean
    of the reference times taken within the op's own duration, and at least
    REFERENCE_WINDOW_S, before its start or after its end: the host's speed
    during the op cannot be sampled, and the references around it are the
    best estimate of it.  The pass goes on after a failed op."""
    refs = []  # (midpoint, seconds) of each reference run

    def sample_reference():
        started = time.perf_counter()
        seconds = reference_seconds()
        refs.append((started + seconds / 2, seconds))

    records = []
    for label, fid in ops:
        sample_reference()
        records.append(run_checked(spec, seed, label, fid, reference))
    for _ in range(END_REFERENCES):
        sample_reference()
    for record in records:
        window = max(record["s"], REFERENCE_WINDOW_S)
        near = [seconds for mid, seconds in refs
                if record["t0"] - window <= mid
                <= record["t0"] + record["s"] + window]
        record["ref_s"] = sum(near) / len(near)
    return {"ops": records}


def run_traced_pass(spec, seed, ops, tracer):
    """Every op twice, back to back, untraced and traced, alternating which
    runs first.  Host speed drifts by tens of percent within a pass, so the
    tracing overhead compares executions of one op seconds apart instead of
    two passes a pass apart."""
    records = []
    for i, (label, fid) in enumerate(ops):
        tracer.defining_n = None if fid is None else catalog.matrix_size(fid)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                record = run_checked(spec, seed, label, fid,
                                     catalog.lookup_table1)
            finally:
                if traced:
                    tracer.uninstall()
            records.append(dict(record, traced=traced))
    return {"ops": records, "layers": tracer.layer_metrics()}


def main(argv):
    spec = json.loads(argv[1])
    seed = int(argv[2])
    ops = make_inputs(spec)
    ready = time.monotonic()
    if "--setup-only" in argv:
        print(json.dumps({"ready": ready}))
        return 0
    if "--trace" in argv:
        from tracer import Tracer
        result = run_traced_pass(spec, seed, ops, Tracer())
    else:
        result = run_pass(spec, seed, ops)
    result["ready"] = ready
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

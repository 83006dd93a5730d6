#!/usr/bin/env python3
"""Self-test of the clo benchmark.

    python3 clobench/selftest.py [--ops N]

Builds the benchmark like run.py, then runs a shortened version of each
workload (--smoke: tiny datasets and trainings, a fixed number of
operations instead of a timed window) once untraced and twice traced with
one seed, and checks that

  * every metric BENCHMARK.json names is printed, with its unit, in the
    matching mode (end_to_end untraced, per_layer traced);
  * the exact counts repeat across the two traced runs: area_ratio,
    delay_ratio, opt.<p>.calls, opt.<p>.accepted_moves,
    core.evaluator.unique_runs and serve.registry.trainings;
  * the traced spans nest (each child inside its parent, in the same
    trace), each trace has one root, and each timed operation has its own
    trace id.

Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import run

OP_ROOTS = {
    "optimize_warm": ("optimize_warm.call",),
    "serve_mixed": ("serve_mixed.miss", "serve_mixed.tune",
                    "serve_mixed.best", "serve_mixed.answered"),
}
SEED = 7


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, trace, ops, trace_out=None):
    """Runs the binary; returns its stdout lines parsed as JSON."""
    done = run.run_binary(workload, SEED, 0, trace,
                          ["--smoke", "--ops", str(ops)], trace_out,
                          stdout=subprocess.PIPE)
    lines = [json.loads(l) for l in done.stdout.splitlines() if l.strip()]
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} trace={trace} exited "
                           f"{done.returncode}")
    return lines


def check_names(errors, label, metrics, expected):
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"{label}: metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            errors.append(f"{label}: {m['name']} unit {got.get('unit')} "
                          f"!= {m['unit']}")
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        errors.append(f"{label}: unexpected metrics {sorted(extra)}")


def check_spans(errors, label, path, workload, attempted):
    with open(path) as f:
        lines = [json.loads(l) for l in f if l.strip()]
    spans = lines[1:]
    by_id = {s["span"]: s for s in spans}
    roots = {}
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            errors.append(f"{label}: span {s['name']} ends before it starts")
        if s["trace"] == 0:
            errors.append(f"{label}: span {s['name']} outside any operation")
        if s["parent"] == 0:
            if s["trace"] in roots:
                errors.append(f"{label}: trace {s['trace']} has two roots")
            roots[s["trace"]] = s
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            errors.append(f"{label}: span {s['name']} has no parent")
        elif parent["trace"] != s["trace"]:
            errors.append(f"{label}: span {s['name']} crosses traces")
        elif (s["start_ns"] < parent["start_ns"] or
              s["end_ns"] > parent["end_ns"]):
            errors.append(f"{label}: span {s['name']} outside its parent "
                          f"{parent['name']}")
    for s in spans:
        if s["trace"] not in roots:
            errors.append(f"{label}: trace of {s['name']} has no root")
            break
    ops = [r for r in roots.values() if r["name"] in OP_ROOTS[workload]]
    if len(ops) != attempted:
        errors.append(f"{label}: {len(ops)} operation traces for "
                      f"{attempted} attempted operations")


def exact_counts(lines):
    layer = lines[-1]["metrics"]
    detail = lines[-2]["detail"]
    keys = [k for k in layer if k.endswith(".calls") and k.startswith("opt.")]
    keys += [k for k in layer if k.endswith(".accepted_moves")]
    keys += ["core.evaluator.unique_runs", "serve.registry.trainings"]
    counts = {k: layer[k]["value"] for k in keys}
    for k in ("area_ratio", "delay_ratio"):
        counts[k] = detail[k]["value"]
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=3,
                        help="operations per run (per client on serve)")
    args = parser.parse_args()
    spec = load_spec()
    run.build()
    errors = []
    for w in spec["workloads"]:
        workload = w["name"]
        print(f"selftest: {workload}", file=sys.stderr)
        plain = run_once(workload, 0, args.ops)
        check_names(errors, f"{workload} untraced", plain[-1]["metrics"],
                    spec["end_to_end"])
        traced = []
        with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
            for i in range(2):
                path = os.path.join(tmp, f"trace{i}.jsonl")
                lines = run_once(workload, 1, args.ops, path)
                label = f"{workload} traced #{i + 1}"
                check_names(errors, label, lines[-1]["metrics"],
                            spec["per_layer"])
                check_spans(errors, label, path, workload,
                            lines[-1]["attempted"])
                traced.append(lines)
        first, second = (exact_counts(t) for t in traced)
        for key in sorted(first):
            if first[key] != second.get(key):
                errors.append(f"{workload}: {key} differs across runs: "
                              f"{first[key]} vs {second.get(key)}")
    for e in errors:
        print(f"selftest: FAIL {e}", file=sys.stderr)
    print(f"selftest: {'FAILED' if errors else 'passed'} "
          f"({len(errors)} problem(s))", file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()

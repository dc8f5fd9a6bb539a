#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload wvu_week_clf --seed 1 --seconds 10 --trace 0

Builds the perfbench binary from the checkout's sources (CMake, Release,
into a tree under $CARGO_TARGET_DIR or .bench_build that is keyed by the
checkout's path and a hash of its sources), then runs three processes: set-up
(the workload's input file, made from the seed, several times), and either
the untraced measured phase (--trace 0: the end-to-end metrics) or the
traced phase (--trace 1: the per-layer metrics). Metric names and units come
from BENCHMARK.json. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Any incorrect output makes the run exit 1; a missing source tree or a failed
build exits 2 without a result. README.md in this directory explains the
workloads and metrics.
"""
import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PHASE_GRACE_S = 60  # beyond --seconds, before a phase counts as hung
MIN_BEYOND = 10  # samples a reported percentile must have beyond it

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


class BenchError(Exception):
    """A failure that leaves no result to print."""


def valid_name(name):
    """The benchmark's metric/workload name rule: letters, digits, _ . -"""
    return isinstance(name, str) and bool(NAME_RE.match(name))


def nearest_rank(samples, q):
    """Nearest-rank q-th percentile of samples and how many lie beyond it."""
    s = sorted(samples)
    # The epsilon keeps q * n / 100 that is whole in exact arithmetic from
    # rounding up a rank (99.9 * 10000 / 100 is 9990.000000000002).
    k = max(0, math.ceil(q * len(s) / 100.0 - 1e-9) - 1)
    return s[k], len(s) - 1 - k


def highest_percentile(samples, candidates=(99.9, 99.0, 90.0, 50.0)):
    """The highest candidate percentile with at least MIN_BEYOND samples
    beyond it, as (percentile, value, beyond); None when none qualifies."""
    if not samples:
        return None
    for q in sorted(candidates, reverse=True):
        value, beyond = nearest_rank(samples, q)
        if beyond >= MIN_BEYOND:
            return q, value, beyond
    return None


def load_spec(path):
    """BENCHMARK.json, with its names and units checked."""
    with open(path) as f:
        spec = json.load(f)
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[group]:
            if not valid_name(entry["name"]):
                raise BenchError("bad %s name %r" % (group, entry["name"]))
            if group != "workloads" and not UNIT_RE.match(entry["unit"]):
                raise BenchError("bad unit %r" % entry["unit"])
    return spec


def result_line(correct, attempted, failed, values, declared):
    """The final JSON object. `declared` maps each metric the run must
    report to its unit; a missing or undeclared value is an error."""
    if set(values) != set(declared):
        raise BenchError("metrics %s do not match the declared %s"
                         % (sorted(values), sorted(declared)))
    metrics = {}
    for name in sorted(declared):
        value = float(values[name])
        if not math.isfinite(value):
            raise BenchError("metric %s is not finite" % name)
        metrics[name] = {"value": value, "unit": declared[name]}
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}


def end_to_end_values(setup, measure):
    """End-to-end metrics from the set-up and measured-phase documents."""
    ttm = measure["time_to_model_s"]
    if not ttm:
        raise BenchError("the measured phase recorded no samples")
    return {
        "setup_s": statistics.median(setup["setup_s"]),
        "time_to_model_s": statistics.median(ttm),
        "peak_rss_mib": measure["peak_rss_mib"],
        "events_per_s": statistics.median(
            measure["events_per_rep"] / t for t in ttm),
    }


def per_layer_values(trace, declared):
    """Median over traced passes of each per-layer metric, and the untraced
    snapshot latency percentiles pooled over passes. Also returns the checks
    made here, as a list of error messages or None (one per check). A layer
    the workload does not exercise reports 0."""
    checks = []
    passes = trace["passes"]
    if not passes:
        raise BenchError("the traced phase recorded no passes")
    values = {name: statistics.median(p.get(name, 0.0) for p in passes)
              for name in declared}
    snaps = trace["snapshot_ms"]
    if snaps:
        values["online.snapshot_p50_ms"], _ = nearest_rank(snaps, 50.0)
        values["online.snapshot_p99_ms"], beyond = nearest_rank(snaps, 99.0)
        values["online.snapshots"] = len(snaps)
        checks.append("only %d snapshot samples beyond p99" % beyond
                      if beyond < MIN_BEYOND else None)
    unknown = {k for p in passes for k in p} - set(declared)
    if unknown:
        raise BenchError("undeclared per-layer metrics %s" % sorted(unknown))
    return values, checks


def source_fingerprint(root):
    """Hash of the files the perfbench binary is built from: src/, cmake/
    and perfbench/ under `root`, paths included, without the Python scripts
    and docs. It keys the build tree and the recorded digests, so neither
    carries over to other sources."""
    h = hashlib.sha256()
    for top in ("src", "cmake", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".md")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def check_digest(store_path, key, digest):
    """Compares a run's output digest with the one recorded under `key` by
    earlier runs (recording it when new). The key names the source
    fingerprint, workload, seed and scale, so only runs of the same code and
    input are compared. Returns an error message or None."""
    store = {}
    if os.path.exists(store_path):
        with open(store_path) as f:
            store = json.load(f)
    recorded = store.get(key)
    if recorded is not None and recorded != digest:
        return "output digest %s differs from %s recorded by an earlier run" % (
            digest, recorded)
    if recorded is None:
        store[key] = digest
        with open(store_path, "w") as f:
            json.dump(store, f, indent=1, sort_keys=True)
    return None


def build(tree):
    """Configures (once) and builds the binary in `tree`."""
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", tree,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", tree, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(tree, "perfbench")


def run_phase(binary, phase, args, out, timeout):
    subprocess.run([binary, phase, "--out", out] + args, stdout=sys.stderr,
                   check=True, timeout=timeout)
    with open(out) as f:
        return json.load(f)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=0.0,
                    help="shrink the workload (the benchmark's own tests)")
    args = ap.parse_args(argv)

    try:
        spec = load_spec(os.path.join(ROOT, "BENCHMARK.json"))
    except (OSError, ValueError, KeyError) as e:
        raise BenchError("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError("unknown workload %r" % args.workload)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no library sources under %s" % ROOT)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    fingerprint = source_fingerprint(ROOT)
    # One tree per checkout path and source state: CMake trees are bound to
    # their source path, and a tree is never rebuilt from other sources.
    tree = os.path.join(build_dir, "perfbench-" + hashlib.sha256(
        ("%s\0%s" % (ROOT, fingerprint)).encode()).hexdigest()[:16])
    try:
        binary = build(tree)
    except subprocess.CalledProcessError as e:
        raise BenchError("build failed: %s" % e)

    work = os.path.join(tree, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", work, "--scale", repr(args.scale)]
    try:
        setup = run_phase(binary, "setup", common,
                          os.path.join(work, "setup.json"), PHASE_GRACE_S)
        phase = "trace" if args.trace else "measure"
        doc = run_phase(binary, phase, common + ["--seconds", repr(args.seconds)],
                        os.path.join(work, phase + ".json"),
                        args.seconds + PHASE_GRACE_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        raise BenchError("perfbench phase failed: %s" % e)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stamp = doc["build"]
    if not stamp["ndebug"] or stamp["build_type"] == "Debug":
        raise BenchError("refusing to record from a %s build" % stamp["build_type"])

    checks = []  # the checks made here: an error message or None each
    if args.trace:
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, checks = per_layer_values(doc, declared)
    else:
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end_values(setup, doc)
    checks.append(check_digest(
        os.path.join(build_dir, "perfbench-digests.json"),
        "%s/%s/seed=%d/scale=%r" % (fingerprint, args.workload, args.seed,
                                    args.scale),
        doc["digest"]))
    errors = doc["errors"] + [c for c in checks if c]
    attempted = doc["attempted"] + len(checks)
    failed = doc["failed"] + sum(1 for c in checks if c)
    result = result_line(not errors and failed == 0, attempted, failed,
                         values, declared)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "scale": doc["scale"],
        "source_fingerprint": fingerprint,
        "executor_width": doc["executor_width"], "build": stamp,
        "fixture": setup["fixture"], "digest": doc["digest"], "errors": errors,
    }
    if args.trace:
        record["passes"] = len(doc["passes"])
    else:
        record["hwm_reset"] = doc["hwm_reset"]
        record["reps"] = len(doc["time_to_model_s"])
    tail = highest_percentile(doc["snapshot_ms"])
    if tail:
        record["snapshot_tail"] = {"percentile": tail[0], "value_ms": tail[1],
                                   "beyond": tail[2],
                                   "samples": len(doc["snapshot_ms"])}
    results = os.path.join(tree, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"record": record, "result": result}, f, indent=1)
    print(json.dumps({"stamp": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(2)

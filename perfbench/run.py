#!/usr/bin/env python3
"""The lbnn benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --compare <results...> -- <results...>
    python3 perfbench/run.py --self-test

A run builds perfbench/ (CMake, Release) into .bench_build/ at the root of the
checkout, runs lbnn_perfbench for one workload, prints every metric by name
with its unit and sample count, writes the full record (metrics, failure
ledger, host fingerprint) to .bench_out/, and prints as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

"attempted" counts the requests of the fixed-rate phases and the simulator
checks; "failed" those that ended in a wrong answer, an unexpected error or
no answer at all. Refusals by admission (a Cascade's stage-2 refusal
included) and answers past the latency limit are the serving stack's
response to load: they count against ok_frac, and the record's ledger lists
them by cause. Max-rate probes overload on purpose and keep a ledger of their
own; a wrong answer, an unexpected error or an unanswered request there makes
the run incorrect too.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are its per-layer ones, from a traced run that also writes
every span it recorded (name, start, end, parent, request id) to
.bench_out/spans-<workload>.json, replacing the previous traced run's file of
that workload: a traced serve_fleet run records about 720k spans, about 30 MB.
A per-layer metric of a layer the workload does not exercise reads 0.

The exit status is 0 only when every output matched its reference and every
self-check held.

--compare takes two sets of result records (files or directories of them)
separated by "--", refuses to compare them unless every record carries the same
host fingerprint, and prints each metric's median on both sides against the
metric's bound.

Seed 90001 is held out: it was never used while the benchmark was tuned, and a
change that claims a gain must show it on that seed too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "lbnn_perfbench")

# Which end-to-end metric each layer's per-layer metrics should move, and on
# which workload. Printed next to the per-layer values of a traced run.
LAYER_MAP = {
    "core": "compile_s on paper_models; setup_s elsewhere (MFG counts also lpu_fps_*)",
    "lpu.sched": "lpu_fps_* on paper_models",
    "lpu.exec": "sim_samples_per_s on paper_models; p*_us.heavy on serve_open; "
                "barely serve_fleet",
    "runtime": "p*_us.heavy, ok_frac on both serving workloads; "
               "runtime.load_s moves setup_s",
    "router": "p*_us.* on serve_fleet only",
    "serve": "p50/p90_us.*, ok_frac on serve_fleet only",
    "gen": "none: shows whether a run measured the program or the generator",
    "trace": "none: tracing overhead and the latency accounting check",
    "self_frac": "none: self time per layer over the traced requests",
    "e2e": "none: tails left unbounded (p99, and p90 at the heavy rate) because "
           "host stalls and load set them",
}

# Host facts that must match before two results may be compared. The git SHA
# is stamped too, but differs between the commits being compared.
FINGERPRINT_KEYS = ("nproc", "cpu", "avx2", "kernel", "compiler", "build_type")


def layer_group(metric):
    head = metric.split(".")[0]
    if head == "lpu":
        sched = ("wavefronts", "bubbles", "instances", "duplicates",
                 "lpe_utilization", "cycles_per_frame", "fps_vs_published")
        return "lpu.sched" if metric.split(".")[1] in sched else "lpu.exec"
    return head


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def git_sha():
    """The checked-out commit, read from .git without running git; "none"
    outside a git checkout."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
    except OSError:
        return "none"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(ROOT, ".git", ref)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build(target="lbnn_perfbench"):
    """Configures and builds into .bench_build; returns False on failure. The
    compiler's temporary files stay inside the build directory too."""
    log = sys.stderr
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    r = subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=log, timeout=300, env=env)
    if r.returncode != 0:
        return False
    jobs = str(max(1, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs],
                       stdout=log, stderr=log, timeout=840, env=env)
    return r.returncode == 0


def fingerprint_of(record):
    return {k: record.get("host", {}).get(k) for k in FINGERPRINT_KEYS}


def fingerprint_mismatch(records):
    """None when every record carries the same host fingerprint, else a
    message naming the first difference."""
    if not records:
        return None
    first = fingerprint_of(records[0])
    for rec in records[1:]:
        fp = fingerprint_of(rec)
        for k in FINGERPRINT_KEYS:
            if fp[k] != first[k]:
                return "host fingerprints differ on %s: %r vs %r" % (k, first[k], fp[k])
    return None


def shape_metrics(produced, spec, trace):
    """Maps the program's metrics onto the names BENCHMARK.json declares.
    Returns (metrics, errors)."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    errors = []
    out = {}
    for m in wanted:
        name = m["name"]
        got = produced.get(name)
        if got is None:
            if trace:
                out[name] = {"value": 0.0, "unit": m["unit"], "n": 0}
            else:
                errors.append("end-to-end metric %s was not measured" % name)
            continue
        if got["unit"] != m["unit"]:
            errors.append("%s measured in %s, declared in %s" % (name, got["unit"], m["unit"]))
        out[name] = {"value": got["value"], "unit": m["unit"], "n": got["n"]}
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in produced:
        if name not in declared:
            errors.append("metric %s is not declared in BENCHMARK.json" % name)
    return out, errors


def run_workload(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print("unknown workload %s" % args.workload, file=sys.stderr)
        return 2
    if not build():
        print("build failed", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--light-rps", str(args.light_rps), "--heavy-rps", str(args.heavy_rps),
           "--limit-us", str(args.limit_us)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            OUT_DIR, "spans-%s.json" % args.workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        print("benchmark program timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        record = json.loads(lines[-1])
    except (ValueError, IndexError):
        print(proc.stdout, file=sys.stderr)
        print("benchmark program printed no result (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)

    metrics, errors = shape_metrics(record["metrics"], spec, args.trace)
    record["host"]["git_sha"] = git_sha()
    record["program_exit"] = proc.returncode
    record["shape_errors"] = errors
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    host = record["host"]
    print("host: %d cpus, %s, avx2=%s kernel=%s, %s %s, git %s" % (
        host["nproc"], host["cpu"], host["avx2"], host["kernel"], host["compiler"],
        host["build_type"], host["git_sha"]))
    ledger = record["ledger"]["fixed_rate"]
    print("ledger (fixed rates): " + ", ".join("%s=%s" % kv for kv in sorted(ledger.items())))
    print("%-36s %18s %-10s %9s" % ("metric", "value", "unit", "samples"))
    for name, m in metrics.items():
        note = ""
        if args.trace:
            note = "  -> " + LAYER_MAP.get(layer_group(name), "")
        print("%-36s %18.6g %-10s %9d%s" % (name, m["value"], m["unit"], m["n"], note))
    for e in errors:
        print("ERROR: " + e, file=sys.stderr)

    correct = bool(record["correct"]) and proc.returncode == 0 and not errors
    result = {
        "correct": correct,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def load_records(paths):
    records = []
    for p in paths:
        files = [p]
        if os.path.isdir(p):
            files = [os.path.join(p, f) for f in sorted(os.listdir(p))
                     if f.endswith(".json") and not f.startswith("spans-")]
        for f in files:
            with open(f) as fh:
                records.append(json.load(fh))
    return records


def compare(base_paths, new_paths):
    """Prints each metric's median on both sides against its bound. Returns 2
    when fingerprints differ, 1 when a bounded metric got worse by more than
    its bound, else 0."""
    spec = load_spec()
    base, new = load_records(base_paths), load_records(new_paths)
    mismatch = fingerprint_mismatch(base + new)
    if mismatch:
        print("refusing to compare: " + mismatch)
        return 2
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    status = 0
    workloads = sorted({r["workload"] for r in base + new})
    for wl in workloads:
        b = [r for r in base if r["workload"] == wl and r["trace"] == 0]
        n = [r for r in new if r["workload"] == wl and r["trace"] == 0]
        if not b or not n:
            continue
        print("%s (%d vs %d runs)" % (wl, len(b), len(n)))
        for name, m in bounds.items():
            vb = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            vn = [r["metrics"][name]["value"] for r in n if name in r["metrics"]]
            if not vb or not vn:
                continue
            mb, mn = statistics.median(vb), statistics.median(vn)
            change = (mn - mb) / mb if mb else 0.0
            worse = -change if m["better"] == "higher" else change
            flag = "WORSE" if worse > m["bound"] else ""
            if flag:
                status = 1
            print("  %-22s %14.6g -> %14.6g %+8.2f%% (bound %.0f%%) %s" % (
                name, mb, mn, 100 * change, 100 * m["bound"], flag))
    return status


def self_test():
    if not build("perfbench_logic_test"):
        print("build failed", file=sys.stderr)
        return 1
    rc = subprocess.run([os.path.join(BUILD_DIR, "perfbench_logic_test")]).returncode
    rc2 = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                          os.path.join(HERE, "tests"), "-p", "test_*.py"]).returncode
    return 0 if rc == 0 and rc2 == 0 else 1


def main(argv):
    if "--compare" in argv:
        rest = argv[argv.index("--compare") + 1:]
        if "--" not in rest:
            print("usage: run.py --compare <base results...> -- <new results...>",
                  file=sys.stderr)
            return 2
        cut = rest.index("--")
        return compare(rest[:cut], rest[cut + 1:])
    if "--self-test" in argv:
        return self_test()
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # The rates and the latency limit are fixed in BENCHMARK.json's command.
    p.add_argument("--light-rps", type=float, required=True)
    p.add_argument("--heavy-rps", type=float, required=True)
    p.add_argument("--limit-us", type=float, required=True)
    return run_workload(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

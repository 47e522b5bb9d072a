#!/usr/bin/env python3
"""Serving benchmark: build serve_bench and run one workload.

Builds serve_bench from the enclosing FlexCore source tree (CMake, into
.bench_build/servebench of the checkout), runs one workload and prints the
result object as the last line of standard output:

    python3 servebench/run.py --workload fresh-12x12 --seed 1 --seconds 10 --trace 0
    python3 servebench/run.py --self-test        # seconds-long smoke of everything

The line before the result carries the host/build fingerprint and the
capacity probe; the full report of each run is also kept under
.bench_build/servebench/runs/.  Exits non-zero, without a result line, when
the tree cannot be built, and with correct=false when the correctness gate
fails.  See NOTES.md for the workloads and metric definitions.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
RUNS = os.path.join(BUILD, "runs")
BIN = os.path.join(BUILD, "serve_bench")
TRACE_DUMP = os.path.join(BUILD, "flexcore", "trace_dump")
RUN_TIMEOUT_S = 170
# Runs by hand and in the self-test, but not listed in BENCHMARK.json: too
# unsteady on a shared host to carry a bound (NOTES.md).
EXTRA_WORKLOADS = ["paced-mixed"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then (re)builds the bench and the trace validator."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "runtime.h")):
        raise RuntimeError("no FlexCore source tree next to servebench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
             "-DFLEXCORE_NATIVE_ARCH=ON"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "serve_bench", "trace_dump",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_id():
    """git revision when the checkout is a repository, else a digest of src/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def declared_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_metrics(result, trace):
    """Problems with the result's metric set (missing, extra, wrong unit)."""
    want = declared_metrics(trace)
    got = result.get("metrics", {})
    problems = []
    for name, unit in want.items():
        if name not in got:
            problems.append("missing metric " + name)
        elif got[name].get("unit") != unit:
            problems.append("%s has unit %s, expected %s"
                            % (name, got[name].get("unit"), unit))
        elif not isinstance(got[name].get("value"), (int, float)):
            problems.append(name + " has no numeric value")
    problems += ["undeclared metric " + n for n in got if n not in want]
    return problems


def run_one(workload, seed, seconds, trace, extra=()):
    """Runs serve_bench once; returns (exit code, info, result)."""
    os.makedirs(RUNS, exist_ok=True)
    cmd = [BIN, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--source-id", source_id(),
           "--out-dir", RUNS, *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode < 0:
        raise RuntimeError("serve_bench was killed by signal %d"
                           % -proc.returncode)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise RuntimeError("serve_bench printed no result (exit %d)"
                           % proc.returncode)
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    code = proc.returncode
    if trace and result["correct"]:
        # The benchmark-side spans must pass the repo's own trace validator.
        for path in (info["trace"], info["trace"][:-5] + "-obs.json"):
            val = subprocess.run([TRACE_DUMP, "--validate", path],
                                 stdout=subprocess.DEVNULL, stderr=sys.stderr,
                                 timeout=60)
            if val.returncode != 0:
                info["gate"] = "trace_dump --validate rejected " + path
                result["correct"] = False
                code = 1
    problems = check_metrics(result, trace)
    if problems:
        info["gate"] = "; ".join(problems)
        result["correct"] = False
        code = 1
    name = "%s-seed%s-trace%d.json" % (workload, seed, trace)
    with open(os.path.join(RUNS, name), "w") as f:
        json.dump({"info": info, "result": result}, f, indent=1)
    return code, info, result


def self_test():
    """Every workload for a second or two in both modes, plus the gate."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    names += EXTRA_WORKLOADS
    failures = []
    for name in names:
        for trace, seconds in ((0, 1), (1, 2)):
            code, info, result = run_one(name, 1, seconds, trace)
            ok = code == 0 and result["correct"]
            log("self-test %-14s trace=%d  %s  attempted=%d failed=%d"
                % (name, trace, "ok" if ok else "FAIL: %s" % info.get("gate"),
                   result["attempted"], result["failed"]))
            if not ok:
                failures.append("%s trace=%d" % (name, trace))
    # The gate must catch a frame that disagrees with the oracle.
    for name in names[:1]:
        code, info, result = run_one(name, 1, 1, 0, ["--inject-mismatch"])
        caught = code != 0 and not result["correct"] and "oracle" in info.get(
            "gate", "")
        log("self-test %-14s injected mismatch %s"
            % (name, "caught" if caught else "NOT CAUGHT"))
        if not caught:
            failures.append(name + " injected mismatch")
    log("self-test: " + ("PASS" if not failures else
                         "FAIL (" + ", ".join(failures) + ")"))
    return 0 if not failures else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    try:
        build()
        if args.self_test:
            return self_test()
        code, info, result = run_one(args.workload, args.seed, args.seconds,
                                     args.trace)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("servebench: " + str(e))
        return 1
    if info.get("gate"):
        log("servebench: correctness gate failed: " + info["gate"])
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

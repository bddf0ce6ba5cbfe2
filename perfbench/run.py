#!/usr/bin/env python3
"""Builds and runs the pacds end-to-end benchmark (see README.md here).

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1>
      one workload in its own process; the last stdout line is the JSON result
  python3 perfbench/run.py --all --seed <n> --seconds <s>
      every workload, untraced then traced, each report in turn
  python3 perfbench/run.py --smoke
      self-test: every workload at minimal size, every metric name and unit
      against BENCHMARK.json, every check fed a corrupted result, one lane,
      and the thread guard

The build (CMake, Release) goes to .bench_build/perfbench. Build output goes
to stderr so that stdout ends with the result line.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["paper_sweep", "scale_trial", "serve_session", "extension_loops"]

# The workload's own end-to-end names the report prints (beside the generic
# BENCHMARK.json metrics), checked by the self-test.
REPORT_NAMES = {
    "paper_sweep": ["wall_s", "setup_s", "point_ms_p50", "point_ms_p90",
                    "peak_rss_mb", "fail_ratio"],
    "scale_trial": ["wall_s", "setup_s", "interval_ms_p50", "interval_ms_p90",
                    "peak_rss_mb", "fail_ratio"],
    "serve_session": ["wall_s", "setup_s", "tick_ms_p50", "tick_ms_p90",
                      "tick_ms_p99", "control_ms_p90", "peak_rss_mb",
                      "fail_ratio", "gen_late_ms_p99"],
    "extension_loops": ["wall_s", "setup_s", "call_ms_p50", "call_ms_p90",
                        "peak_rss_mb", "fail_ratio"],
}

# (workload, check, traced): each must fail when its input is corrupted,
# and count the operations it rejects as failed.
CORRUPTIONS = [
    ("paper_sweep", "golden_digest", False),
    ("paper_sweep", "repeat_identical", False),
    ("paper_sweep", "assembled_matches_run", True),
    ("paper_sweep", "check_cds", True),
    ("scale_trial", "golden_digest", False),
    ("scale_trial", "assembled_matches_run", True),
    ("scale_trial", "tiled_matches_full_shadow", True),
    ("serve_session", "golden_digest", False),
    ("serve_session", "one_terminal_per_request", False),
    ("serve_session", "replay_matches_session", False),
    ("serve_session", "metrics_stream_valid", False),
    ("extension_loops", "golden_digest", False),
    ("extension_loops", "repeat_identical", False),
    ("extension_loops", "des_conservation", False),
    ("extension_loops", "des_conservation", True),
]

EXIT_CHECK_FAILED = 1
EXIT_REFUSED = 3


def log(text):
    print(text, file=sys.stderr, flush=True)


def revision():
    """Git revision when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:12]


def build():
    """Configures (once) and builds the benchmark; output to stderr."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def bench_args(workload, seed, seconds, trace, extra=()):
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--revision", revision()]
    if trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans", os.path.join(spans, workload + ".csv")]
    return args + list(extra)


def run_captured(args):
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    failures = []

    def expect(ok, what):
        log(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace in (False, True):
            code, out = run_captured(
                bench_args(workload, 1, 2, trace, ["--smoke"]))
            label = "%s trace=%d" % (workload, trace)
            expect(code == 0, label + " exits 0 (got %d)" % code)
            try:
                result = result_of(out)
            except ValueError:
                result = None
            expect(result is not None and set(result) ==
                   {"correct", "attempted", "failed", "metrics"},
                   label + " ends with the result object")
            if result is None:
                continue
            want = layers if trace else e2e
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            expect(got == want, label + " reports every metric with its unit")
            expect(result["correct"] is True and result["attempted"] >= 1,
                   label + " correct, attempted >= 1")
            if not trace:
                for name in REPORT_NAMES[workload]:
                    expect(any(line.split()[:1] == [name]
                               for line in out.splitlines()),
                           label + " report prints " + name)

    for workload, check, trace in CORRUPTIONS:
        code, out = run_captured(bench_args(
            workload, 1, 2, trace, ["--smoke", "--corrupt", check]))
        label = "%s trace=%d: corrupted %s" % (workload, trace, check)
        expect(code == EXIT_CHECK_FAILED and
               ("FAILED CHECK " + check) in out, label + " fails the run")
        try:
            result = result_of(out)
        except ValueError:
            result = None
        ok_ratio = None
        if result is not None and "ok_ratio" in result["metrics"]:
            ok_ratio = result["metrics"]["ok_ratio"]["value"]
        expect(result is not None and result["correct"] is False and
               result["failed"] >= 1 and (trace or ok_ratio < 1),
               label + " counts failed operations (failed=%s, ok_ratio=%s)" %
               (result and result["failed"], ok_ratio))

    # One lane means no pool at all: the run must work and say so.
    for workload, trace in [(w, False) for w in WORKLOADS] + [
            ("paper_sweep", True)]:
        code, out = run_captured(bench_args(
            workload, 1, 2, trace, ["--smoke", "--lanes", "1"]))
        try:
            result = result_of(out)
        except ValueError:
            result = None
        expect(code == 0 and result is not None and result["correct"] and
               '"lanes":"1"' in out,
               "%s trace=%d runs on one lane" % (workload, trace))

    code, out = run_captured(bench_args(
        "serve_session", 1, 2, False,
        ["--smoke", "--corrupt", "generator_on_schedule"]))
    expect(code == EXIT_REFUSED and "invalid run" in out and
           '"correct"' not in out,
           "serve_session: a late generator makes the run invalid")

    cpus = len(os.sched_getaffinity(0))
    for workload in WORKLOADS:
        code, out = run_captured(bench_args(
            workload, 1, 2, False, ["--smoke", "--lanes", str(cpus + 1)]))
        expect(code == EXIT_REFUSED and "refused" in out and
               '"correct"' not in out,
               "%s refuses %d lanes on %d CPUs" % (workload, cpus + 1, cpus))

    log("self-test: %d failure(s)" % len(failures))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not build():
        log("perfbench: build failed")
        return 2
    if args.smoke:
        return self_test()
    if args.all:
        status = 0
        for workload in WORKLOADS:
            for trace in (False, True):
                code = subprocess.run(bench_args(
                    workload, args.seed, args.seconds, trace)).returncode
                status = status or code
        return status
    if args.workload is None:
        parser.error("--workload, --all or --smoke is required")
    return subprocess.run(bench_args(
        args.workload, args.seed, args.seconds, args.trace == 1)).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the frame benchmark program from source and run one workload.

Usage, from the repository root:

    python3 framebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The framebench program is configured and built with CMake from framebench/CMakeLists.txt,
which compiles the repository's src/ libraries into the build directory
($CARGO_TARGET_DIR if set, else .bench_build). The first run builds; later
runs only check that the build is current. Its standard output is
passed through: its last line is the JSON result, once its metric names and
units have been checked against BENCHMARK.json (the end_to_end list for
--trace 0, per_layer for --trace 1). Traced runs (--trace 1) write Chrome
trace-event files to <build dir>/traces/.

Exit status: framebench's (0 when the run completed), 1 when the build or the
run failed or the result's metrics differ from BENCHMARK.json, 2 on bad usage.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.relpath(os.path.join(ROOT, path), ROOT)


def build(bdir, env):
    """Configure (once) and build framebench; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(ROOT, bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "framebench", "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "--target", "framebench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("framebench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def metrics_mismatch(result_line, trace):
    """Why the result's metrics differ from BENCHMARK.json's list, or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    listed = bench["per_layer" if trace == "1" else "end_to_end"]
    declared = [(m["name"], m["unit"]) for m in listed]
    try:
        metrics = json.loads(result_line)["metrics"]
        reported = [(name, m["unit"]) for name, m in metrics.items()]
    except (ValueError, KeyError, TypeError, AttributeError):
        return "the last line is not a result object"
    if sorted(reported) == sorted(declared):
        return None
    return "metrics %s reported, BENCHMARK.json declares %s" % (
        sorted(set(reported) - set(declared)), sorted(set(declared) - set(reported)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    bdir = build_dir()
    # Compiler and program temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(ROOT, bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not build(bdir, env):
        return 1
    traces = os.path.join(bdir, "traces")
    os.makedirs(os.path.join(ROOT, traces), exist_ok=True)
    cmd = [os.path.join(ROOT, bdir, "framebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace,
           "--trace-dir", traces, "--work-dir", bdir]
    # Own process group, so a run that overstays is stopped together with
    # any worker processes it forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write("framebench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        sys.stdout.write(out)
        return proc.returncode
    lines = out.rstrip("\n").split("\n")
    why = metrics_mismatch(lines[-1], args.trace)
    if why:
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write("framebench: %s\n" % why)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

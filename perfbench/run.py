#!/usr/bin/env python3
"""End-to-end benchmark of wormrt.

Builds wormrtd and the perfbench binary from this checkout (a no-op once
built), checks the pinned inputs against their digests, and runs one
workload:

    python3 perfbench/run.py --workload admit_200 --seed 1 --seconds 10 --trace 0

Every line but the last is for people: one figure per line with its unit
and sample count.  The last line is one JSON object with the keys
correct, attempted, failed and metrics; with --trace 0 the metrics are
the end-to-end set of BENCHMARK.json, with --trace 1 the per-layer set.
A traced run also prints its end-to-end figures beside those of the last
untraced run of the same workload; the difference is the tracing
overhead.  The exit status is nonzero on any failed operation or
correctness check.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INPUTS = os.path.join("perfbench", "inputs")
RUN_ROOT = ".bench_run"
WORKLOADS = ("admit_200", "service_20", "offline_tables")
# A run must end within 180 s; leave room to stop and clean up.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def check_digests():
    """Every pinned input must match its recorded SHA-256."""
    with open(os.path.join(ROOT, INPUTS, "SHA256SUMS")) as sums:
        for line in sums:
            if not line.strip():
                continue
            digest, name = line.split()
            with open(os.path.join(ROOT, INPUTS, name), "rb") as f:
                actual = hashlib.sha256(f.read()).hexdigest()
            if actual != digest:
                log(f"input {name} has digest {actual}, expected {digest}")
                return False
    return True


def build():
    """Configures and builds perfbench + wormrtd; returns their paths."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr, "cwd": ROOT}
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, **quiet)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench", "wormrtd"], check=True, **quiet)
    return (os.path.join(build_dir, "perfbench"),
            os.path.join(build_dir, "wormrt", "svc", "wormrtd"))


def figures(lines, group):
    """Parses perfbench's '<group> <name> <value> <unit> n=<count>' lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 5 and parts[0] == group:
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        if not check_digests():
            return 3
        bench, wormrtd = build()
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        log(f"cannot set up: {e}")
        return 2

    os.makedirs(os.path.join(ROOT, RUN_ROOT), exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-{os.getpid()}"
    run_dir = os.path.join(RUN_ROOT, tag)
    command = [bench, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--inputs", INPUTS, "--wormrtd", wormrtd, "--run-dir", run_dir,
               "--trace-out", os.path.join(RUN_ROOT, f"trace-{tag}.jsonl")]
    # Own session: on a timeout the whole group, daemons included, dies.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 4
    finally:
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)

    lines = out.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        log(f"{args.workload} printed no result (exit {proc.returncode})")
        return proc.returncode or 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    saved = os.path.join(ROOT, RUN_ROOT, f"untraced-{args.workload}.json")
    if args.trace == 0:
        with open(saved, "w") as f:
            json.dump(figures(lines, "untraced"), f)
    elif os.path.exists(saved):
        with open(saved) as f:
            untraced = json.load(f)
        for name, (value, unit) in figures(lines, "traced").items():
            if name in untraced and untraced[name][0]:
                base = untraced[name][0]
                print(f"overhead   {name:<44} traced {value:.6g} vs untraced "
                      f"{base:.6g} {unit} ({100 * (value / base - 1):+.1f}%)")
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

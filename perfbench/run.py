#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  Builds the daemon (bin/nldl.exe) and the
ledger (perfbench/ledger.exe) from source in release mode under
.bench_build/, runs one workload, checks that no daemon or socket is
left behind, and relays the ledger's output, whose last line is the
result object.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
LEDGER = os.path.join(BUILD_DIR, "default", "perfbench", "ledger.exe")
NLDL = os.path.join(BUILD_DIR, "default", "bin", "nldl.exe")
WORKLOADS = ["serve_hot", "serve_cold", "sort_multicore"]
# Untraced serve runs put the ledger, its set-up processes and the daemon
# on one CPU: on a shared VM, wake-ups across vCPUs cost whatever the host
# makes them cost, and that, not the daemon, set the figures.
ONE_CPU = {"serve_hot", "serve_cold"}
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def build():
    for needed in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a full source tree", 2)
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "--build-dir", BUILD_DIR,
           "perfbench/ledger.exe", "bin/nldl.exe"]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        fail("build failed")


def revision():
    """The git revision of the checkout, or "unknown" outside a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def our_daemons():
    """Live `nldl serve` processes started from this checkout."""
    here = os.path.realpath(".")
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                argv = fh.read().split(b"\0")
            cwd = os.path.realpath(f"/proc/{pid}/cwd")
        except OSError:
            continue
        if len(argv) > 1 and argv[0].endswith(b"nldl.exe") and argv[1] == b"serve" and cwd == here:
            found.append(int(pid))
    return found


def leftovers():
    """Daemons still running and files still in the socket directory;
    both are stopped or removed, and reported."""
    problems = []
    for pid in our_daemons():
        problems.append(f"daemon {pid} still running")
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    if os.path.isdir(RUN_DIR):
        for root, _, files in os.walk(RUN_DIR):
            problems += [f"{os.path.join(root, f)} left behind" for f in files]
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    return problems


def run_ledger(workload, seed, seconds, trace, corrupt=False, echo=True):
    """Run one workload; returns the result object, or exits non-zero."""
    cmd = [LEDGER, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--nldl", NLDL, "--rev", revision()]
    if corrupt:
        cmd.append("--corrupt")
    # A session of its own, so a run that times out is stopped with every
    # process it started: set-up processes and daemons.
    pin = None
    if trace == 0 and workload in ONE_CPU:
        cpu = min(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True, preexec_fn=pin)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        leftovers()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(stderr)
    problems = leftovers()
    if problems:
        fail(f"{workload}: " + "; ".join(problems))
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if echo:
        print(stdout, end="", flush=True)
    return result


def declared():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layers


def selftest():
    """Short runs of every workload: every printed metric is declared in
    BENCHMARK.json with the same unit, every run is correct, and a
    corrupted expected answer is counted as a failure."""
    e2e, layers = declared()
    errors = []

    def names(result, want, what):
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
            errors.append(f"{what}: undeclared {extra}, missing {missing}, wrong units {units}")

    for w in WORKLOADS:
        r = run_ledger(w, 1, 1, 0, echo=False)
        names(r, e2e, f"{w} --trace 0")
        if not r["correct"] or r["failed"] != 0:
            errors.append(f"{w}: {r['failed']} of {r['attempted']} failed at seed 1")
        r = run_ledger(w, 1, 1, 0, corrupt=True, echo=False)
        if r["correct"] or r["failed"] < 1:
            errors.append(f"{w}: a corrupted expected answer was not counted as a failure")
        print(f"selftest {w}: ok" if not errors else f"selftest {w}: {errors}", flush=True)
    r = run_ledger(WORKLOADS[0], 1, 2, 1, echo=False)
    names(r, layers, "--trace 1")
    if not r["correct"]:
        errors.append("traced run: failed checks")
    for e in errors:
        print("selftest FAIL:", e, flush=True)
    print("selftest", "FAILED" if errors else "passed", flush=True)
    return 1 if errors else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true", help="short checked runs of every workload")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    build()
    if args.selftest:
        sys.exit(selftest())
    run_ledger(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()

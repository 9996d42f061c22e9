#!/usr/bin/env python3
"""End-to-end benchmark of the xlplace toolkit.

Builds the driver (xlpbench/CMakeLists.txt, Release) from the repository's
sources, runs one workload and relays its result. Run from the repository
root:

    python3 xlpbench/run.py --workload run_8x8_ur --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. Build output goes to $CARGO_TARGET_DIR/xlpbench (default
.bench_build/xlpbench); the per-run results file with provenance, samples
and spans goes to its results/ directory.

    python3 xlpbench/run.py --regen-goldens

rewrites xlpbench/goldens.json from the current code (every workload, every
input variant).
"""

import argparse
import concurrent.futures
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
GOLDENS = os.path.join(BENCH_DIR, "goldens.json")
WORKLOADS = ["run_8x8_ur", "sim_16x16_ur_hot", "sweep_64", "svc_zipf"]
VARIANTS = 64  # must match kVariants in driver/common.hpp
DEFAULT_SEED = 1
HELD_OUT_SEED = 42
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("xlpbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "xlpbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src; run from a full checkout" % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", out, "--target", "xlpbench_driver",
                      "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(out, "xlpbench_driver")


def source_id():
    """The git commit, or a content hash of the sources when the checkout is
    not a git repository, so no result is stamped 'unknown'."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "xlpbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run_driver(driver, args, extra_env=None):
    env = dict(os.environ)
    env.update(extra_env or {})
    return subprocess.run([driver] + args, cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=DRIVER_TIMEOUT_S)


def regen_goldens(driver):
    def one(job):
        workload, variant = job
        done = run_driver(driver, ["--workload", workload, "--seed",
                                   str(variant), "--emit-golden"])
        if done.returncode != 0:
            fail("golden %s/%d failed: %s" % (workload, variant, done.stderr))
        return job, done.stdout.strip().splitlines()[-1]

    jobs = [(w, v) for w in WORKLOADS for v in range(VARIANTS)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=3) as pool:
        records = dict(pool.map(one, jobs))
    lines = ["{", '"schema": "xlpbench-goldens/1",',
             '"variants": %d,' % VARIANTS,
             '"default_seed": %d,' % DEFAULT_SEED,
             '"held_out_seed": %d,' % HELD_OUT_SEED]
    for i, workload in enumerate(WORKLOADS):
        rows = ",\n".join(records[(workload, v)] for v in range(VARIANTS))
        comma = "," if i + 1 < len(WORKLOADS) else ""
        lines.append('"%s": [\n%s\n]%s' % (workload, rows, comma))
    lines.append("}")
    text = "\n".join(lines) + "\n"
    json.loads(text)  # well-formed before it replaces the checked-in file
    with open(GOLDENS, "w") as f:
        f.write(text)
    print("wrote %s (%d records)" % (GOLDENS, len(jobs)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--regen-goldens", action="store_true")
    args = parser.parse_args()
    if not args.regen_goldens and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    driver = build()
    if args.regen_goldens:
        regen_goldens(driver)
        return

    out = build_dir()
    work = os.path.join(os.path.relpath(out, ROOT), "work", str(os.getpid()))
    try:
        done = run_driver(driver, [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--goldens", GOLDENS, "--work-dir", work,
            "--results-dir", os.path.join(out, "results")],
            {"XLP_GIT_SHA": source_id()})
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % DRIVER_TIMEOUT_S)
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail("driver exited with status %d" % done.returncode)
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()

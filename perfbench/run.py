#!/usr/bin/env python3
"""Host-performance benchmark for the javelin simulator.

Builds the simulator and the benchmark runner from source (into
.bench_build/perfbench under the repository root), then runs one workload,
or all three with --workload all, in a single process:

    python3 perfbench/run.py --workload grid_steady --seed 0 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a traced run. A human-readable table
and the run manifest go to stderr. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD / "perfbench_runner"
WORKLOADS = ("grid_steady", "cold_cells", "deploy_profile")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_rev():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_runner", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; 0 is the paper's default scenario "
                         "seed and is checked against perfbench/reference")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="minimum length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=0,
                    help="override the workload's worker count")
    ap.add_argument("--tiny", action="store_true",
                    help="a few cells per workload (the benchmark's own test)")
    ap.add_argument("--reference-dir", default=str(HERE / "reference"))
    ap.add_argument("--write-reference", action="store_true",
                    help="write this run's fingerprints to --reference-dir")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    build()
    cmd = [str(RUNNER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--reference-dir", args.reference_dir,
           "--manifest", str(BUILD / "manifest.json"),
           "--source-rev", source_rev()]
    if args.workers > 0:
        cmd += ["--workers", str(args.workers)]
    if args.tiny:
        cmd.append("--tiny")
    if args.write_reference:
        cmd.append("--write-reference")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"runner exited with code {proc.returncode}")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()

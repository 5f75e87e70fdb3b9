#!/usr/bin/env python3
"""Build the study benchmark from source and run one workload.

    python3 perfbench/run.py --workload <fleet-1k|block-race|instrumented> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the repository root. The simulator libraries in src/ and the harness
in perfbench/ are built (Release) into $CARGO_TARGET_DIR, default
.bench_build/, and the harness then runs the workload. Build output goes to
stderr; the last stdout line is the harness's JSON result. The exit code is
the harness's: nonzero when a correctness check failed or the build failed.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def commit_id():
    """The checkout's commit, or "unknown" outside a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    """Configures (once) and builds the harness; returns its path."""
    cmake = ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"]
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(build_dir), "--target",
              "ethsim_perfbench", "-j", jobs]]
    if not (build_dir / "CMakeCache.txt").exists():
        steps.insert(0, cmake)
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir / "ethsim_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="small size of the workload, same code path")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "cmake"
    binary = build(build_dir)

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--out", str(build_dir.parent / "run"),
               "--digests", str(HERE / "digests.tsv"),
               "--commit", commit_id()]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the pipeline benchmark from source, then runs one workload.

    python3 pipebench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/pipebench (default .bench_build/pipebench) and is
incremental; the build log goes to stderr, so the last line of stdout is
the benchmark's JSON result. --check-determinism runs the workload twice
with the same seed and fails unless both runs report identical counts.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    env = dict(os.environ)
    # Keep compiler scratch files inside the checkout.
    tmp = build_dir / "cc-tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return build_dir / "pipebench"


def run(binary: Path, args, work: Path) -> subprocess.CompletedProcess:
    spans = work / "spans" / f"{args.workload}-seed{args.seed}.csv"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", str(work / "tmp"), "--spans", str(spans)]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["corpus", "durable", "fanin"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    try:
        binary = build(target / "pipebench")
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"error: building the benchmark failed: {err}", file=sys.stderr)
        return 1

    runs = 2 if args.check_determinism else 1
    outputs = []
    for _ in range(runs):
        done = run(binary, args, target)
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
        if done.returncode != 0:
            return done.returncode
        outputs.append([line for line in done.stdout.splitlines()
                        if line.startswith("counts ")])
    if args.check_determinism and outputs[0] != outputs[1]:
        print("error: two runs with one seed reported different counts",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

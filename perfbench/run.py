#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <web-refine|social-push|social-serving>
                           --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --test             # the benchmark's own tests
  python3 perfbench/run.py --rebuild-oracle   # drop the cached oracle tables

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build), the
cached oracle tables to .../oracle and the traced run's spans to
.../traces. The last line of stdout is the run's JSON result; build output
and diagnostics go to stderr. Exits non-zero, printing no result, when the
program cannot be built or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = ROOT / out
    return out


def build(targets):
    out = build_dir() / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target",
                    *targets], stdout=sys.stderr, check=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true")
    parser.add_argument("--rebuild-oracle", action="store_true")
    args = parser.parse_args()

    if args.rebuild_oracle:
        shutil.rmtree(build_dir() / "oracle", ignore_errors=True)
        print("oracle tables removed; the next run recomputes them",
              file=sys.stderr)
        if not args.workload and not args.test:
            return 0

    try:
        if args.test:
            out = build(["perfbench_test"])
            return subprocess.run([str(out / "perfbench_test")],
                                  stdout=sys.stderr).returncode
        if not args.workload:
            parser.error("--workload is required")
        out = build(["perfbench"])
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    traces = build_dir() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--oracle-cache", str(build_dir() / "oracle")]
    if args.trace:
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.tsv")]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

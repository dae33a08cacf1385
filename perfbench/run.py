#!/usr/bin/env python3
"""Builds the tsss serving benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a cargo package of its own
(perfbench/Cargo.toml) that depends on the repository's crates by path; it
is built in release mode into $CARGO_TARGET_DIR (default: .bench_build).
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. Scratch engine files live under .perfbench_work (removed when
the run ends) and traced runs write their spans under .perfbench_out.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = target / "release" / "tsss-perfbench"
    run = subprocess.run(
        [str(exe), *sys.argv[1:],
         "--work-dir", str(ROOT / ".perfbench_work"),
         "--out-dir", str(ROOT / ".perfbench_out")],
        cwd=ROOT,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

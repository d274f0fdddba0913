#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <bulk_large|wire_mix> \
        --seed <n> --seconds <s> --trace <0|1>

The binary is built with `cargo build --release --offline` into
$CARGO_TARGET_DIR (default: perfbench/target).  Build output goes to
stderr; the run's report goes to stdout, its last line one JSON object.
Spans of traced runs are written under perfbench/out/.  The exit code is
the build's when the build fails, else the run's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env["CARGO_TARGET_DIR"] = target
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        return built.returncode
    exe = os.path.join(target, "release", "perfbench")
    args = [exe, *sys.argv[1:], "--trace-dir", os.path.join(HERE, "out")]
    try:
        return subprocess.run(args, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the serving benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload ingest_wal --seed 1 --seconds 10 --trace 0

Builds the `perfbench` package in release mode (into $CARGO_TARGET_DIR,
default `.bench_build`), then runs one workload under a wall-clock cap.
The last line of stdout is the JSON result. A run that overruns the cap
is killed and reported as failed; it is never retried.
"""

import os
import subprocess
import sys

# Cap on the run itself, build excluded (a first build in a fresh
# checkout can take minutes); the binary caps its own request schedule
# earlier (150 s) so a healthy overrun still reports itself.
CAP_SECONDS = 175.0


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    env["PERFBENCH_COMMIT"] = commit or "unknown"

    binary = os.path.join(target, "release", "perfbench")
    data = os.path.join(target, "perfbench-data")
    proc = subprocess.Popen([binary, *argv, "--data", data], cwd=root, env=env)
    try:
        return proc.wait(timeout=CAP_SECONDS)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded its {CAP_SECONDS:.0f} s wall-clock cap and was killed",
              file=sys.stderr)
        print('{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}')
        sys.stdout.flush()
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Build the benchmark binary and run one workload.

    python3 perfbench/run.py --workload <outbreak|outbreak_net|sweep|service> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds `perfbench/` (release, offline)
into `$CARGO_TARGET_DIR` (default `.bench_build`), runs the binary, and
passes its output through. The last line of standard output is the result:
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
Traces and service checkpoints go to `perfbench/out/`.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Leave room under the 180 s limit for the build check and start-up.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")
    binary = os.path.join(target, "release", "perfbench")
    # Its own process group, so that a timeout also stops the net
    # engine's worker processes.
    proc = subprocess.Popen(
        [binary, *sys.argv[1:]],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"no result within {RUN_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result line: {lines[-1]}")
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Build output goes to stderr; the
benchmark's report goes to stdout and ends with one JSON line.  Exits
non-zero, printing no result, when the build or the run fails.
"""
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def run(cmd, timeout, **kw):
    """Run cmd to completion; kill it on timeout or when we are signalled."""
    child = subprocess.Popen(cmd, **kw)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[0]} timed out", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    # keep every build artefact inside the tree: no shared dune cache
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        built = run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                    BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 1
    if built != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return run([EXE] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())

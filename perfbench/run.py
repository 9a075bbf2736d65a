#!/usr/bin/env python3
"""Build and run the flopt benchmark driver.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/flobench.exe from source with dune (release profile, no
shared cache, so nothing is written outside the checkout), then runs it
with the same arguments and passes its output and exit code through.
Exits 2 when the checkout lacks the sources it builds from.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it to end."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(1, "%s timed out after %d s" % (cmd[0], timeout))
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    for need in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(need):
            fail(2, "missing %s: run from a full flopt checkout" % need)
    dune = shutil.which("dune")
    if dune is None:
        fail(2, "dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run(
        [dune, "build", "--root", ".", "--profile", "release", "--display", "quiet",
         "perfbench/flobench.exe"],
        BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    if code != 0:
        fail(1, "build failed (dune exit %d)" % code)
    exe = os.path.join("_build", "default", "perfbench", "flobench.exe")
    sys.stdout.flush()
    sys.exit(run([exe] + sys.argv[1:], RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()

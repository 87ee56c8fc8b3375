#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the scheduler (bin/csched.exe) and the measuring program
(perfbench/probe/probe.exe) from source with dune, runs the probe, and
prints its one-line JSON result as the last line of stdout. Progress and
build output go to stderr. Exits non-zero, printing no result, when the
checkout has no sources to build or the probe fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("compile-raw16", "compile-vliw4")
BUILD_TIMEOUT_S = 840
PROBE_TIMEOUT_S = 170
PROBE = "_build/default/perfbench/probe/probe.exe"
CSCHED = "_build/default/bin/csched.exe"


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (the traced run's fleet children included) and wait for the leader."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "bin/csched.ml", "lib", "BENCHMARK.json"):
        if not os.path.exists(need):
            die("run from the root of a source checkout: %s is missing" % need)

    # The shared dune cache lives outside the checkout; keep every build
    # artefact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    t = time.time()
    code, _ = run_group(
        ["dune", "build", "--root", ".", "--display", "quiet", PROBE, CSCHED],
        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        die("build failed (exit %d)" % code)
    print("perfbench: build %.1f s" % (time.time() - t), file=sys.stderr)

    # without --seed the probe takes config.json's default seed
    seed = [] if args.seed is None else ["--seed", str(args.seed)]
    code, out = run_group(
        [PROBE, "--workload", args.workload, "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--csched", CSCHED, "--dir", os.path.relpath(HERE),
         "--spec", "BENCHMARK.json"] + seed,
        PROBE_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        die("probe failed (exit %d)" % code)
    result = json.loads(lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()

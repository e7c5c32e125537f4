#!/usr/bin/env python3
"""Run the repository benchmark on one workload.

    python3 perfbench/run.py --workload ingest|debug --seed N \
        --seconds S --trace 0|1

Builds `quickrec` and the `perfbench` load generator from source (into
$CARGO_TARGET_DIR, default .bench_build), then runs the load generator,
which starts `quickrec serve`, drives it, checks every answer and
prints the metrics. The last stdout line is the JSON result. The exit
code is non-zero when the build fails, the run fails, or any op
answered wrongly.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_timeout_s(seconds, trace):
    """How long the load generator may take before it is killed.

    A run measures --seconds, plus set-up, reference recordings and
    checks (the fixed allowance); --trace 1 adds the traced pass, which
    repeats up to a third of the loop's ops at in-process speed plus a
    probe pass.
    """
    return 60 + seconds * (2.0 if trace else 1.25)


def build(env):
    """Builds both binaries; returns their paths, or None on failure."""
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "quickrec"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        # Cargo reports on stderr; stdout stays for the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            return None
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return os.path.join(release, "quickrec"), os.path.join(release, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["ingest", "debug"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    os.chdir(ROOT)
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    binaries = build(env)
    if binaries is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    quickrec, perfbench = binaries

    # Relative, so the daemon's Unix socket path stays short wherever
    # the checkout lives.
    work = os.path.join(".bench_run", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [perfbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--quickrec", quickrec, "--work-dir", work]
    timeout = run_timeout_s(args.seconds, args.trace == "1")
    # Own process group, so a timeout also takes down the daemon.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: timed out after {timeout:.0f} s", file=sys.stderr)
        code = 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    # Keep the span dump of a traced run; drop the stores.
    for name in os.listdir(work):
        path = os.path.join(work, name)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
    if not os.listdir(work):
        os.rmdir(work)
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the addrxlat benchmark for one workload and seed.

Usage, from the repository root:

    python3 perfbench/run.py --workload f1a-hot --seed 1 --seconds 15 --trace 0

The Go program in this directory is built into .bench_build/ with its
Go caches kept there too. An untraced run (--trace 0) first makes
SETUPS - 1 set-up-only processes, each on another of the run's
experiment seeds, then one measuring process, and reports setup_s as the
median set-up time of all of them. Every line the
program prints is passed through; the last line is the result object.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
SETUPS = 7
# A run must end within 180 s; the first run of a checkout may also build.
BUILD_TIMEOUT = 800
RUN_GRACE = 120
# Inherited settings that would change what is measured.
DROP_ENV = ("GOGC", "GOMEMLIMIT", "GODEBUG", "GOMAXPROCS")


def go_env():
    env = {k: v for k, v in os.environ.items() if k not in DROP_ENV}
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def build(env):
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=HERE, env=env, timeout=BUILD_TIMEOUT,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise SystemExit("perfbench: build failed")


def source_digest():
    """Commit if the checkout is a git repository, else a digest of the
    module's Go sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("go.mod", "internal"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs if f.endswith(".go"))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def run_child(args, env, deadline):
    """Run the program once; return its stdout lines."""
    spawned = time.time_ns()
    proc = subprocess.run(
        [BINARY, "-spawned-at", str(spawned)] + args,
        cwd=ROOT, env=env, timeout=max(1.0, deadline - time.monotonic()),
        stdout=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit("perfbench: %s exited with %d" % (" ".join(args), proc.returncode))
    lines = proc.stdout.splitlines()
    if not lines:
        raise SystemExit("perfbench: %s printed nothing" % " ".join(args))
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    env = go_env()
    build(env)
    deadline = time.monotonic() + a.seconds + RUN_GRACE
    common = ["-workload", a.workload, "-seed", str(a.seed)]

    setups, setup_ok = [], True
    if a.trace == 0:
        for i in range(1, SETUPS):
            got = json.loads(run_child(["-mode", "setup", "-setup-index", str(i)] + common, env, deadline)[-1])
            setups.append(got["setup_s"])
            setup_ok = setup_ok and got["correct"]
            if not got["correct"]:
                print("# setup problems: %s" % "; ".join(got["problems"]))

    lines = run_child(["-mode", "run", "-seconds", str(a.seconds), "-trace", str(a.trace),
                       "-commit", source_digest()] + common, env, deadline)
    for line in lines[:-1]:
        print(line)
    res = json.loads(lines[-1])
    if a.trace == 0:
        setups.append(res["metrics"]["setup_s"]["value"])
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)
        res["correct"] = res["correct"] and setup_ok
    print(json.dumps(res))


if __name__ == "__main__":
    main()

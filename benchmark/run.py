#!/usr/bin/env python3
"""Build and run the essent benchmark.

    python3 benchmark/run.py --workload boom-pchase --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The script builds the benchmark
command (a Go module in this directory) with every Go cache and temporary
directory kept under .bench_build/, builds the compiled workload's artifact
into a private cache that it deletes on exit, and then runs the measurement
in a process of its own. The last line of standard output is the result
object; see README.md for the metrics.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["boom-pchase", "r16-dhry-compiled", "mac16-vec"]
COMPILED = {"r16-dhry-compiled"}


def fail(msg):
    print("benchmark: " + msg, file=sys.stderr)
    sys.exit(2)


def source_tree_hash():
    """SHA-256 over the Go sources and module files, for provenance when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in (".git", ".bench_build"))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def run(cmd, env, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, env=env, **kw)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def terminate(signum, frame):
    """Turn SIGTERM into an exception, so the running child is killed and
    waited for and the private cache is removed."""
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, terminate)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("go.mod", "essent.go", os.path.join("internal", "sim")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found: run from a full source checkout" % need)
    if shutil.which("go") is None:
        fail("no go toolchain on PATH")

    tmp_root = os.path.join(BUILD, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp_root,
        "TMPDIR": tmp_root,
        "XDG_CACHE_HOME": os.path.join(BUILD, "xdg-cache"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
    })
    binary = os.path.join(BUILD, "essent-bench")
    rc = run(["go", "build", "-o", binary, "."], env, 900, cwd=HERE,
             stdout=sys.stderr)
    if rc != 0:
        fail("building the benchmark failed")

    private = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        cache = os.path.join(private, "artifacts")
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--artifact-cache", cache]
        if args.workload in COMPILED:
            rc = run([binary, "--warm"] + common, env, 900, cwd=ROOT,
                     stdout=sys.stderr)
            if rc != 0:
                fail("warming the compiled artifact failed")
        trace_out = os.path.join(BUILD, "traces",
                                 "%s-seed%d.jsonl" % (args.workload, args.seed))
        commit = "git %s, tree %s" % (git_commit(), source_tree_hash())
        rc = run([binary] + common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--trace-out", trace_out, "--commit", commit],
            env, args.seconds + 170, cwd=ROOT)
    finally:
        shutil.rmtree(private, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()

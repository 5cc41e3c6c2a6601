#!/usr/bin/env python3
"""Run one workload of the RADS benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `rads-node` and the `perfbench` harness from source (release
profile, into $CARGO_TARGET_DIR, default `.bench_build`), then runs the
harness. The last line of standard output is the result JSON; the line
before it is the configuration fingerprint. Exits non-zero, without a
result, when the build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def revision():
    """The git revision, or a digest of the sources when not in a git checkout."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src-" + digest.hexdigest()[:16]


def target_dir():
    """$CARGO_TARGET_DIR (relative paths taken from the checkout root)."""
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    for selection in (["-p", "rads-bench", "--bin", "rads-node"], ["-p", "perfbench"]):
        done = subprocess.run(
            ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest] + selection,
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
        )
        if done.returncode != 0:
            sys.exit("perfbench: build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test scale")
    args = parser.parse_args()

    target = target_dir()
    build(target)
    release = os.path.join(target, "release")
    # A short path relative to the checkout root keeps the Unix socket paths
    # the nodes create under it well inside the sun_path limit.
    work = os.path.relpath(
        os.path.join(target, "perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}"), ROOT
    )
    command = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--node", os.path.join(release, "rads-node"),
        "--work", work,
    ] + (["--tiny"] if args.tiny else [])
    env = dict(os.environ, PERFBENCH_REVISION=revision())
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    sys.stdout.write(done.stdout)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <paper_sweep|scale_mix|serve_zipf> \
        --seed <n> --seconds <s> --trace <0|1>

The perfbench package is built in release mode into $CARGO_TARGET_DIR
(default: .bench_build at the repository root); build output goes to stderr.
RAYON_NUM_THREADS is capped at the number of hardware threads. The last line
of standard output is the result object; the exit code is non-zero if the
build fails or any output check fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def hardware_threads():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def source_id():
    """Git commit when available, plus a digest of the library sources."""
    digest = hashlib.sha256()
    for top in ("crates", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "nogit"
    return f"{commit}+src{digest.hexdigest()[:12]}"


def main():
    env = dict(os.environ)
    nproc = hardware_threads()
    try:
        threads = int(env.get("RAYON_NUM_THREADS", nproc))
    except ValueError:
        threads = nproc
    env["RAYON_NUM_THREADS"] = str(max(1, min(threads, nproc)))
    target_dir = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target_dir

    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    binary = os.path.join(target_dir, "release", "perfbench")
    run = subprocess.run(
        [binary, *sys.argv[1:], "--commit", source_id()], env=env, cwd=ROOT
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`). The last line of standard output is the result
object; the lines before it carry provenance and diagnostics. A traced run
also writes its spans to `perfbench/out/`.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["paper-rounds", "server-round-160", "serve-open-loop"]
# A run must end within 180 s; the build before the first run may not.
RUN_TIMEOUT_S = 170


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names the
    code it measured even where no git metadata exists."""
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", ".cargo", "crates", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            rel = os.path.relpath(f, ROOT)
            if rel.startswith(os.path.join("perfbench", "out")) or not f.endswith(
                    (".rs", ".toml", ".lock", ".py")):
                continue
            digest.update(rel.encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def target_cpu():
    flags = os.environ.get("RUSTFLAGS", "")
    config = os.path.join(ROOT, ".cargo", "config.toml")
    if not flags and os.path.isfile(config):
        with open(config) as f:
            flags = f.read()
    for token in flags.replace('"', " ").replace(",", " ").split():
        if token.startswith("target-cpu="):
            return token.split("=", 1)[1]
    return "default"


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    env["PERFBENCH_GIT_REV"] = command_output(["git", "rev-parse", "HEAD"])
    env["PERFBENCH_SOURCE_SHA256"] = source_digest()
    env["PERFBENCH_TARGET_CPU"] = target_cpu()
    cmd = [os.path.join(target, "release", "safeloc-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join("perfbench", "out", f"spans-{args.workload}-seed{args.seed}.tsv")
        cmd += ["--spans", os.path.join(ROOT, spans)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

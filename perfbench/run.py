#!/usr/bin/env python3
"""Builds and runs the discovery-query benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The harness (perfbench/*.cc) and the repository's src/ libraries are
compiled in Release into $CARGO_TARGET_DIR (default .bench_build, taken
relative to the repository root) on first use; later runs rebuild only what
changed. All build output goes to stderr, so the last stdout line is the
harness's result object. Shard files live in a scratch directory under the
build directory and are removed after the run; traced runs leave their spans
in <build dir>/traces/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return target


def build(out_dir):
    """Configures once, then builds incrementally; returns the build tree."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no joinmi sources next to perfbench/ (expected src/CMakeLists.txt)")
    tree = os.path.join(out_dir, "perfbench-build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return tree


def source_id():
    """The commit when run from a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args()

    out_dir = build_dir()
    tree = build(out_dir)
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(tree, "perfbench_selftest")]).returncode)
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    work = os.path.join(out_dir, "work-%d" % os.getpid())
    traces = os.path.join(out_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    command = [os.path.join(tree, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work, "--source", source_id()]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if run.returncode != 0:
        fail("%s exited with %d" % (args.workload, run.returncode))
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    names = list(result.get("metrics", {}))
    if names != declared_metrics(args.trace == "1"):
        fail("printed metrics differ from BENCHMARK.json: %s" % names)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

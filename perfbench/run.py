#!/usr/bin/env python3
"""Builds and runs the fleet serving benchmark.

Run from the root of a snappix checkout, with the fleet options from
BENCHMARK.json's "command" and the run options:

    python3 perfbench/run.py --shards 4 \
        --ladder fleet_fp32:2000 --ladder fleet_int8_codec:2000 \
        --ladder paced_framed:1000,1500,2000,2500 \
        --workload fleet_fp32 --seed 1 --seconds 30 --trace 0

The first run configures and builds the library and the benchmark into
.bench_build/perfbench (later runs rebuild only what changed). The build log
goes to stderr; stdout carries the provenance record, the benchmark's own
report and, as its last line, the JSON result ({"correct", "attempted",
"failed", "metrics"}; failed output checks show there). Exits non-zero, without
a result, when the build or the run fails.
"""
import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout):
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=timeout, env=env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        fail(f"build step failed: {err}")


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")) or not os.path.isfile(
            os.path.join(ROOT, "CMakeLists.txt")):
        fail("no snappix sources next to perfbench/ (expected ../src and ../CMakeLists.txt)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "build.ninja")) and not os.path.isfile(
            os.path.join(BUILD_DIR, "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", BUILD_DIR, "--target", "fleet_bench", "-j", jobs],
                BUILD_TIMEOUT_S)
    binary = os.path.join(BUILD_DIR, "fleet_bench")
    if not os.path.isfile(binary):
        fail("build produced no fleet_bench binary")
    return binary


def cpu_info():
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name") and model == "unknown":
                    model = line.split(":", 1)[1].strip()
                elif line.startswith("flags") and not flags:
                    flags = set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return model, {f: f in flags for f in ("avx2", "avx512_vnni", "avx_vnni")}


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def compile_flags():
    """Flags the library's sources were compiled with, from the build's own database."""
    try:
        with open(os.path.join(BUILD_DIR, "compile_commands.json"), encoding="utf-8") as f:
            entries = json.load(f)
    except (OSError, ValueError):
        return "unknown"
    for entry in entries:
        if "/src/" in entry.get("file", ""):
            cmd = entry.get("command", "")
            flags = [t for t in cmd.split() if re.match(r"^-(O\d|m\w|f[\w-]+=?\w*|std=)", t)]
            return " ".join(flags)
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--shards", required=True)
    parser.add_argument("--ladder", action="append", required=True,
                        help="<workload>:<fps,fps,...>, the paced rates of one workload")
    args = parser.parse_args()

    binary = build()
    model, simd = cpu_info()
    provenance = {
        "cpu": model,
        "nproc": os.cpu_count(),
        "simd": simd,
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "compile_flags": compile_flags(),
        "workload": args.workload,
        "seed": args.seed,
    }
    print("provenance: " + json.dumps(provenance), flush=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", args.trace, "--shards", args.shards]
    for ladder in args.ladder:
        cmd += ["--ladder", ladder]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("benchmark printed no JSON result")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

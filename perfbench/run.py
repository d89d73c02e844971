#!/usr/bin/env python3
"""Build and run the ppref_served benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is built from the checkout's
own sources into .bench_build/ (CMake, RelWithDebInfo), then the driver
binary runs the workload against a loopback daemon. Its output is relayed;
the last line is the JSON result. The metric names in that line are checked
against BENCHMARK.json, and a mismatch fails the run. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "ppref_perfbench"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no ppref sources (src/CMakeLists.txt) in the current directory; "
             "run from the root of a checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "perfbench-build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j",
                  str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = Path(log_path).read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (log: .bench_build/perfbench-build.log)")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha1:" + digest.hexdigest()[:16]


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def binary_metrics():
    out = subprocess.run([str(BINARY), "list-metrics"], capture_output=True,
                         text=True, check=True).stdout
    listed = {"end_to_end": {}, "per_layer": {}}
    for line in out.splitlines():
        section, name, unit = line.split()
        listed[section][name] = unit
    return listed


def self_test():
    build()
    code = subprocess.run([str(BINARY), "self-test"], cwd=ROOT).returncode
    same = binary_metrics() == declared_metrics()
    print(("ok  " if same else "FAIL") +
          " metric names and units equal BENCHMARK.json")
    return 0 if code == 0 and same else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")

    build()
    command = [str(BINARY), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--git-sha", source_id()]
    try:
        run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"benchmark exited with {run.returncode}", 1)

    result = json.loads(lines[-1])
    section = "per_layer" if args.trace else "end_to_end"
    declared = declared_metrics()[section]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != declared:
        sys.stdout.write(run.stdout)
        fail(f"emitted {section} metrics differ from BENCHMARK.json", 1)
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

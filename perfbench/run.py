#!/usr/bin/env python3
"""Maximal clique enumeration benchmark: one workload per call.

    python3 perfbench/run.py --workload dense-hard --seed 1 --seconds 22 --trace 0

Builds the program and the harness from source (once per source tree, see
build.py), then runs the harness JVM from the root of the checkout. The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the line before it ("perfbench-detail: ...") gives quartiles,
sample counts, input sizes, heap, nproc, git sha and seed. The exit code is
0 only if every correctness check passed.

Extra flags for the self-test (selftest.py): --small shrinks every input,
--corrupt-expected adds one to every expected clique count.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

# A run must end within 180 seconds; leave room for JVM exit.
JVM_TIMEOUT_S = 170

# Spark on Java 17 needs access to JDK internals.
JVM_OPENS = ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def git_sha():
    if not os.path.isdir(os.path.join(build.ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--corrupt-expected", action="store_true")
    a = ap.parse_args()

    try:
        _, classpath, digest = build.build()
    except build.BuildError as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    out_dir = os.path.join(build.build_dir(), "perfbench-run")
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    heap = os.environ.get("SPARK_DRIVER_MEM") or "3g"
    # The parallel collector keeps the CPU time of a pass steadier: with G1,
    # HBBMC++ on dense-hard got 30% faster over its first eight timed passes
    # in one JVM.
    cmd = ["java", "-Xms" + heap, "-Xmx" + heap, "-Xss128m", "-XX:-UsePerfData", "-XX:+UseParallelGC"] + \
        JVM_OPENS + [
        "-Djava.io.tmpdir=" + tmp_dir,
        "-Dlog4j2.configurationFile=" + os.path.join(build.BENCH_DIR, "log4j2.properties"),
        "-Dspark.driver.host=127.0.0.1",
        "-Dperfbench.git_sha=" + git_sha(),
        "-Dperfbench.source_sha=" + digest,
        "-cp", classpath, "repro.perfbench.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--out-dir", out_dir]
    if a.small:
        cmd.append("--small")
    if a.corrupt_expected:
        cmd.append("--corrupt-expected")

    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True)
    lines = []

    def relay():
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                lines.append(line.strip())

    reader = threading.Thread(target=relay)
    reader.start()
    try:
        proc.wait(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out after %d s" % JVM_TIMEOUT_S, file=sys.stderr)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join()
    last = lines[-1] if lines else ""
    try:
        result = json.loads(last)
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if proc.returncode != 0:
        print("perfbench: harness exited with code %d" % proc.returncode, file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 4
    if not ok or not result["correct"]:
        print("perfbench: no valid result line", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())

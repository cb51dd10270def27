#!/usr/bin/env python3
"""Self-test of the benchmark, in a few minutes: every workload shrunk
(--small) and measured for one second.

    python3 perfbench/selftest.py

It asserts that
  1. every metric named in BENCHMARK.json is printed, with its unit
     (end-to-end metrics untraced, per-layer metrics traced), on every workload;
  2. a corrupted expected clique count trips the correctness check: the run
     reports correct=false and exits non-zero;
  3. another seed changes the inputs (their clique checksums differ) while
     the configurations still agree (the run passes its checks).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def run(workload, seed=1, trace=0, *extra):
    out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", str(trace), "--small"] + list(extra),
                         capture_output=True, text=True, timeout=600)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    detail = next((json.loads(l.split(": ", 1)[1]) for l in lines
                   if l.startswith("perfbench-detail: ")), None)
    return out.returncode, result, detail, out.stderr


def check(cond, msg):
    print(("ok    " if cond else "FAIL  ") + msg, flush=True)
    return cond


def main():
    ok = True
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    for w in [w["name"] for w in BENCH["workloads"]]:
        for trace, metrics in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
            code, result, _, err = run(w, trace=trace)
            good = code == 0 and result is not None and result["correct"]
            ok &= check(good, "%s trace=%d runs and passes its checks%s" % (
                w, trace, "" if good else ":\n" + err[-3000:]))
            if result is None:
                continue
            printed = result["metrics"]
            missing = [m["name"] for m in metrics if m["name"] not in printed]
            wrong = [n for n, v in printed.items() if v.get("unit") != units.get(n)]
            ok &= check(not missing and not wrong, "%s trace=%d prints every metric with its unit%s" % (
                w, trace, "" if not (missing or wrong) else ": missing %s, wrong unit %s" % (missing, wrong)))

    code, result, _, _ = run("hub-star", 1, 0, "--corrupt-expected")
    ok &= check(code != 0 and result is not None and not result["correct"] and result["failed"] > 0,
                "a corrupted expected count fails the run (exit %d)" % code)

    runs = [run("dense-hard", s) for s in (1, 2)]
    sums = [[i["checksum"] for i in d["inputs"]] if d else None for _, _, d, _ in runs]
    counts = [[i["cliques"] for i in d["inputs"]] if d else None for _, _, d, _ in runs]
    ok &= check(all(c == 0 and r and r["correct"] for c, r, _, _ in runs),
                "dense-hard passes its checks with seeds 1 and 2")
    ok &= check(sums[0] is not None and sums[0] != sums[1] and counts[0] == counts[1],
                "another seed changes the inputs (checksums %s) but not the clique counts" % sums)
    print("selftest: %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs one workload over several seeds and reports, per metric, the median
and the spread (distance between the first and third quartile as a share of
the median), the way a run-to-run comparison reads them.

    python3 perfbench/spread.py --workload hub-star --seeds 1-10 [--trace 0]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None)
    a = ap.parse_args()
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for s in seeds(a.seeds):
        out = subprocess.run([sys.executable, RUN, "--workload", a.workload, "--seed", str(s),
                              "--seconds", str(seconds), "--trace", str(a.trace)],
                             capture_output=True, text=True)
        lines = [l for l in out.stdout.splitlines() if l.strip()]
        if out.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s" % (s, out.returncode, out.stderr[-2000:]))
            return 1
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (s, " ".join("%s=%.4g" % (k, v["value"])
                                           for k, v in result["metrics"].items())), flush=True)
    ok = True
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            ok = ok and spread <= bound
        print("%-22s median %-12.6g spread %.4f  bound %s %s" % (name, med, spread, bound, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

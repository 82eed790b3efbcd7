"""Steadiness check: repeat workloads and compare each end-to-end metric's
spread with its bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workload NAME ...]

Each run uses another seed. For every metric the command prints the
median and the interquartile spread (Q3 - Q1, as Python's
``statistics.quantiles(values, n=4)`` gives them) as a share of the
median, next to the metric's bound. With ``--sets 2`` it repeats the
whole set and also compares the second median with the first. It checks that every run of a workload fails the same
share of its operations, and prints each run's wall time, which is what
the benchmark's time budget is made of. Raw results go to
``perfbench/out/steady-*.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload: str, seed: int) -> tuple[dict, float]:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t = time.perf_counter()
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t
    if r.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {r.returncode}:\n{r.stderr[-2000:]}")
    return json.loads(r.stdout.strip().splitlines()[-1]), wall


def spread(values) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed0", type=int, default=1000)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    raw: dict = {}
    ok = True
    for name in names:
        sets = []
        for k in range(args.sets):
            runs = [run_once(spec, name, args.seed0 + 100 * k + i)
                    for i in range(args.runs)]
            sets.append(runs)
            walls = [w for _, w in runs]
            shares = {r["failed"] / r["attempted"] for r, _ in runs}
            correct = all(r["correct"] for r, _ in runs)
            print(f"\n{name} set {k + 1}: {args.runs} runs, wall per run "
                  f"{min(walls):.0f}-{max(walls):.0f} s (total {sum(walls):.0f} s), "
                  f"failed share {sorted(shares)}, correct={correct}", flush=True)
            ok &= len(shares) == 1 and correct
            for m in spec["end_to_end"]:
                vals = [r["metrics"][m["name"]]["value"] for r, _ in runs]
                med, sp = spread(vals)
                gate = sp <= m["bound"]
                ok &= gate
                line = (f"  {m['name']:<14} median {med:10.4f} {m['unit']:<4} "
                        f"spread {sp:6.3f}  bound {m['bound']:.2f}  "
                        f"{'ok' if gate else 'TOO WIDE'}"
                        + ("" if sp < m["bound"] / 3 else "  (above a third of the bound)"))
                if k:
                    first = statistics.median(
                        r["metrics"][m["name"]]["value"] for r, _ in sets[0])
                    worse = (med - first) / first * (1 if m["better"] == "lower" else -1)
                    ok &= worse <= m["bound"]
                    line += f"  vs set 1: {worse:+.3f}"
                print(line, flush=True)
        raw[name] = [[{"result": r, "wall_s": w} for r, w in s] for s in sets]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{int(time.time())}.json")
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=1)
    print(f"\n{'all within bounds' if ok else 'NOT within bounds'}; raw results in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

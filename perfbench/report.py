"""Print every metric of the tkd benchmark, with units, for all workloads.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Runs ``run.py`` once per workload listed in BENCHMARK.json and prints one
row per metric, plus failed_frac (failed / attempted requests). With
``--trace`` it prints the per-layer metrics of a traced run instead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    for w in spec["workloads"]:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed",
             str(args.seed), "--seconds", str(seconds), "--trace", str(int(args.trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        if out.returncode:
            print(f"{w['name']}: run.py exited with code {out.returncode}")
            continue
        lines = out.stdout.splitlines()
        stamp, res = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"{w['name']}  (seed {args.seed}, {seconds:g} s, {stamp['samples']} timed "
              f"requests, correct {res['correct']})")
        rows = dict(res["metrics"])
        rows["failed_frac"] = {"value": res["failed"] / res["attempted"], "unit": "ratio"}
        for name, m in rows.items():
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

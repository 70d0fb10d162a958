"""Self-test of the tkd benchmark.

    python3 perfbench/selftest.py

1. A short smoke run of every workload through ``run.py`` must end correct,
   with failed_frac 0 and exactly the metrics BENCHMARK.json declares; one
   traced run must report every per-layer metric.
2. The gates must catch a wrong result: a reference entry moved by 1e-9
   fails its oracle check and every request of its kind counts as failed,
   and a repeat that differs from the first result in one entry counts as
   failed in the closed loop.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import serve  # noqa: E402
import workloads  # noqa: E402

PERTURBATION = 1e-9


def _bench(workload: str, trace: int) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=170)
    return json.loads(out.stdout.decode().splitlines()[-1])


def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for w in spec["workloads"]:
        res = _bench(w["name"], 0)
        assert res["correct"] and res["failed"] == 0, (w["name"], res)
        assert res["attempted"] >= serve.MIN_REQUESTS, res
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        assert got == declared, (w["name"], got)
        assert all(v["value"] > 0 for v in res["metrics"].values()), res
        print(f"smoke {w['name']}: {res['attempted']} requests, failed_frac 0")
    res = _bench("dist-pass", 1)
    assert res["correct"], res
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == declared, got
    assert res["metrics"]["quasiprob.pass_ms"]["value"] > 0
    print(f"smoke dist-pass traced: {len(got)} per-layer metrics")


def _perturbed(ref):
    """``ref`` with its first numeric entry moved by PERTURBATION."""
    if isinstance(ref, str):  # a CLI document: move the first distribution value
        doc = json.loads(ref)
        doc["distribution"]["values"][0][0] += PERTURBATION
        return json.dumps(doc)
    out = np.array(ref, dtype=np.complex128)
    out.flat[0] += PERTURBATION
    return out


def perturbation():
    spec_dir = serve.OUT / f"selftest-{os.getpid()}"
    spec_dir.mkdir(parents=True, exist_ok=True)
    try:
        for workload, name in (("dist-pass", "kd_right"), ("state-char", "kd_state_recursive"),
                               ("cli-mix", "dist right")):
            reqs = workloads.build(workload, 7, spec_dir)
            k = [r.name for r in reqs].index(name)
            ref = reqs[k].canon(reqs[k].call())
            assert all(row["ok"] for row in run.check_results([reqs[k]], [ref], [None]))
            rows = run.check_results([reqs[k]], [_perturbed(ref)], [None])
            assert not any(row["ok"] for row in rows), rows
            loop = {"kind": np.array([k, k, k], dtype=np.int32), "mismatched": [0] * len(reqs)}
            assert run.count_failed([r.name for r in reqs], rows, [loop]) == (3, 3)
            print(f"gate {workload}/{name}: a {PERTURBATION:g} shift fails "
                  f"(deviation {rows[0]['deviation']:.3g} > tol {rows[0]['tol']:g})")
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)

    # repeats: the second and later calls return a result off by 1e-9 in one entry
    reqs = workloads.build("dist-pass", 7)
    k = [r.name for r in reqs].index("lvn")
    good = reqs[k].call
    calls = []

    def drifting():
        q = good()
        calls.append(1)
        if len(calls) > 1:
            q.values.flat[0] += PERTURBATION
        return q

    reqs[k].call = drifting
    _, prints, _ = serve.warm_up([reqs[k]])
    loop = serve.closed_loop([reqs[k]], [0], prints, seconds=0.0)
    assert loop["mismatched"][0] == len(loop["kind"]) == serve.MIN_REQUESTS, loop["mismatched"]
    print(f"gate repeats: {loop['mismatched'][0]} of {len(loop['kind'])} drifted repeats fail")


if __name__ == "__main__":
    perturbation()
    smoke()
    print("selftest passed")

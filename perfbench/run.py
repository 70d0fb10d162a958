"""tkd benchmark: one workload, one closed-loop caller, oracle-checked results.

    python3 perfbench/run.py --workload dist-pass|state-char|cli-mix \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The harness (this process) never serves
requests. It times set-up as the median of eight fresh interpreters that
import tkd, build the seeded inputs and warm every request kind up
(``serve.py --setup-only``), four before and four after one serving process
runs the timed loop. Afterwards it checks the first result of each request
kind against ``tkd.oracle``; repeats were already compared bit for bit with
that result inside the serving process. Latencies are reported at a
reference machine speed (see speed.py).

Stdout ends with two JSON lines: a stamp (environment, request mix, oracle
checks, percentile placement, failed_frac) and the result object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` splits the run into an untraced and a
traced half and reports the per-layer metrics and ``trace_overhead``.
"""

from __future__ import annotations

import argparse
import json
import pickle
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 4  # before and again after the timed process: 8 per run
SETUP_TIMEOUT_S = 60.0
SERVE_GRACE_S = 90.0  # set-up, warm-up and the last request past --seconds


def _serve_cmd(args) -> list[str]:
    return [sys.executable, str(HERE / "serve.py"), "--workload", args.workload,
            "--seed", str(args.seed)]


def _run(cmd: list[str], timeout: float) -> bytes:
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"{' '.join(cmd[1:])} timed out after {timeout:.0f} s")
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited with code {proc.returncode}")
    return out


def setup_seconds(args) -> float:
    """Fresh interpreter start to the point where the first timed request could go."""
    cmd = _serve_cmd(args) + ["--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate()
        finally:
            killer.cancel()
    if line != b"ready\n" or proc.returncode:
        raise RuntimeError(f"set-up run exited with code {proc.returncode} before it was ready")
    return elapsed


def check_results(reqs: list, refs: list, errors: list) -> list[dict]:
    """One row per oracle comparison of each request kind's first result."""
    rows = []
    for r, ref, err in zip(reqs, refs, errors):
        if err is not None:
            rows.append({"request": r.name, "what": "warm-up", "ok": False,
                         "error": err.strip().splitlines()[-1]})
            continue
        try:
            found = r.check(ref)
        except Exception as e:  # a malformed result fails its check
            rows.append({"request": r.name, "what": "check", "ok": False, "error": repr(e)})
            continue
        rows += [{"request": r.name, "what": what, "deviation": dev, "tol": tol,
                  "ok": bool(dev <= tol)} for what, dev, tol in found]
    return rows


def count_failed(names: list[str], rows: list[dict], loops: list[dict]) -> tuple[int, int]:
    """Attempted and failed timed requests. A request fails if it raised or
    differed from its kind's first result; every request of a kind whose
    first result failed its oracle check fails too."""
    bad = {row["request"] for row in rows if not row["ok"]}
    kinds = np.concatenate([lp["kind"] for lp in loops])
    failed = 0
    for k, name in enumerate(names):
        failed += int(np.sum(kinds == k)) if name in bad else sum(lp["mismatched"][k] for lp in loops)
    return len(kinds), failed


def _percentile_place(lat_ms: np.ndarray, kinds: np.ndarray, names: list[str], q: float) -> dict:
    """Where percentile q falls: its request kind, and the relative latency
    spread of the samples within 2.5 % of ranks around it. A large spread
    means the percentile sits on the gap between two request kinds."""
    order = np.argsort(lat_ms, kind="stable")
    n = len(order)
    r = int(round(q / 100 * (n - 1)))
    w = max(2, int(0.025 * n))
    lo, hi = order[max(0, r - w)], order[min(n - 1, r + w)]
    return {"request": names[kinds[order[r]]],
            "window_spread": float((lat_ms[hi] - lat_ms[lo]) / lat_ms[order[r]])}


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_calls"):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_kb"):
        return "kB"
    return "ratio"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tkd" / "__init__.py").is_file():
        print(f"run.py: no tkd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2

    try:
        # set-up samples on both sides of the timed process, so their median
        # spans the host's slow drift instead of one phase of it
        setup = [] if args.trace else [setup_seconds(args) for _ in range(SETUP_SAMPLES)]
        raw = _run(_serve_cmd(args) + ["--seconds", str(args.seconds), "--trace",
                                       str(args.trace)], args.seconds + SERVE_GRACE_S)
        setup += [] if args.trace else [setup_seconds(args) for _ in range(SETUP_SAMPLES)]
    except RuntimeError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    res = pickle.loads(raw)  # written by serve.py of this checkout

    # tkd is imported here only after the serving process has ended
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    reqs = workloads.build(args.workload, args.seed)
    rows = check_results(reqs, res["refs"], res["errors"])
    names = [r.name for r in reqs]
    loops = [res["plain"]] + ([res["traced"]] if args.trace else [])
    attempted, failed = count_failed(names, rows, loops)

    plain = res["plain"]
    lat_ms = speed.corrected_latencies(plain) * 1e3
    rps = 1e3 / float(np.mean(lat_ms))  # one caller, no think time
    p50, p90 = (float(x) for x in np.percentile(lat_ms, [50, 90]))
    raw_ms = plain["latency_s"] * 1e3
    probe_q = np.percentile(plain["probe_s"] * 1e3, [25, 50, 75])
    mix = []
    for k, r in enumerate(reqs):
        row = dict(r.mix, request=r.name, weight=r.weight)
        if isinstance(res["refs"][k], str):
            row["doc_bytes"] = len(res["refs"][k].encode())
        row["median_ms"] = float(np.median(lat_ms[plain["kind"] == k]))
        mix.append(row)
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": res["env"], "samples": len(lat_ms),
        "loop": "closed, one caller, one process",
        "failed_frac": failed / attempted,
        "setup_samples_s": setup,
        "probe_ms_quartiles": [float(x) for x in probe_q],
        "wall_clock": {"setup_s": statistics.median(setup) if setup else None,
                       "req_per_s": 1e3 / float(np.mean(raw_ms)),
                       "latency_p50_ms": float(np.percentile(raw_ms, 50)),
                       "latency_p90_ms": float(np.percentile(raw_ms, 90))},
        "p50": _percentile_place(lat_ms, plain["kind"], names, 50),
        "p90": _percentile_place(lat_ms, plain["kind"], names, 90),
        "checks": rows, "mix": mix,
    }
    if args.trace:
        traced = res["traced"]
        overhead = float(np.mean(lat_ms)) / float(np.mean(speed.corrected_latencies(traced) * 1e3))
        # layer times at the reference speed of the traced half, like the latencies
        factor = speed.PROBE_REF_S / float(np.median(traced["probe_s"]))
        metrics = {}
        for name, value in sorted(res["layers"].items()):
            unit = _layer_unit(name)
            value *= {"ms": factor, "1/s": 1 / factor}.get(unit, 1.0)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
        by_request = {kind: {layer: ms * factor for layer, ms in row.items()}
                      for kind, row in res["layers_by_request"].items()}
        stamp.update(layers_by_request_ms=by_request, span_file=res["span_file"])
    else:
        metrics = {
            "req_per_s": {"value": rps, "unit": "1/s"},
            "latency_p50_ms": {"value": p50, "unit": "ms"},
            "latency_p90_ms": {"value": p90, "unit": "ms"},
            "setup_s": {"value": speed.corrected_setup(setup, plain), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps(stamp))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

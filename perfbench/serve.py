"""Serving process of the tkd benchmark: one workload, one caller, closed loop.

    python3 perfbench/serve.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/serve.py --workload NAME --seed N --setup-only

Builds the workload's inputs through tkd, runs every request kind once
(warm-up: imports, lazy one-time work such as the interferometer sign
calibration, and the reference result of each kind), then sends requests
back to back for ``--seconds``. Every repeat is compared bit for bit with
the reference. ``--setup-only`` prints ``ready`` after warm-up and exits; the
harness times that as set-up. Otherwise the results go to stdout as one
pickle for ``run.py``, which checks the references against ``tkd.oracle``.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy loads, so a dense fold does not compete
# with the caller for the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import pickle
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from layertrace import Tracer, summarize  # noqa: E402
from speed import probe  # noqa: E402

MIN_REQUESTS = 100  # at least ten samples beyond p90
PROBE_EVERY_S = 0.05  # speed probes between requests, see speed.py


def _fingerprint(x):
    return x if isinstance(x, str) else pickle.dumps(x, protocol=5)


def _blas_threads() -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    try:
        fn = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    fn.restype = ctypes.c_int
    return int(fn())


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def warm_up(reqs):
    """First call of each request kind: its reference result, or its error."""
    refs, prints, errors = [], [], []
    for r in reqs:
        try:
            canon = r.canon(r.call())
        except Exception:
            refs.append(None)
            prints.append(None)
            errors.append(traceback.format_exc(limit=3))
            continue
        refs.append(canon)
        prints.append(_fingerprint(canon))
        errors.append(None)
    return refs, prints, errors


def closed_loop(reqs, order, prints, seconds: float, tracer=None) -> dict:
    """Send the next request only after the previous one returned; between
    requests, run the speed probe every PROBE_EVERY_S."""
    begin, lat, kinds, probe_at, probe_s = [], [], [], [], []
    mismatched = [0] * len(reqs)
    clock = time.perf_counter
    start = clock()

    def sample_speed(times: int = 1):
        for _ in range(times):
            probe_at.append(clock() - start)
            probe_s.append(probe())

    sample_speed(5)
    last_probe = clock()
    i = 0
    while True:
        k = order[i % len(order)]
        i += 1
        call = reqs[k].call
        t0 = clock()
        try:
            out = call() if tracer is None else tracer.run(k, call)
        except Exception:
            t1 = clock()
            if not mismatched[k]:
                traceback.print_exc(limit=3)
            mismatched[k] += 1
        else:
            t1 = clock()
            if prints[k] is None or _fingerprint(reqs[k].canon(out)) != prints[k]:
                mismatched[k] += 1
        begin.append(t0 - start)
        lat.append(t1 - t0)
        kinds.append(k)
        # stop on a round boundary only, so every run has the exact request mix
        if i % len(order) == 0 and len(lat) >= MIN_REQUESTS and t1 - start >= seconds:
            break
        if clock() - last_probe >= PROBE_EVERY_S:
            sample_speed()
            last_probe = clock()
    sample_speed(5)
    return {"begin_s": np.array(begin), "latency_s": np.array(lat),
            "kind": np.array(kinds, dtype=np.int32), "mismatched": mismatched,
            "probe_at_s": np.array(probe_at), "probe_s": np.array(probe_s)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    spec_dir = OUT / f"specs-{os.getpid()}"
    spec_dir.mkdir(parents=True, exist_ok=True)
    try:
        reqs = workloads.build(args.workload, args.seed, spec_dir)
        refs, prints, errors = warm_up(reqs)
        if args.setup_only:
            sys.stdout.write("ready\n")
            sys.stdout.flush()
            return 0

        order = workloads.cycle(reqs)
        payload = {"refs": refs, "errors": errors, "env": environment()}
        if args.trace:
            payload["plain"] = closed_loop(reqs, order, prints, args.seconds / 2)
            tracer = Tracer([r.name for r in reqs])
            tracer.install()
            try:
                traced = closed_loop(reqs, order, prints, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            spans = tracer.arrays()
            layers, by_kind = summarize(spans, tracer.names, tracer.layer_of, len(reqs))
            doc_bytes = np.array([len(r.encode()) if isinstance(r, str) else 0 for r in refs])
            layers["cli.doc_kb"] = float(np.mean(doc_bytes[traced["kind"]])) / 1e3
            span_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            np.savez(span_file, names=np.array(tracer.names), **spans)
            payload.update(traced=traced, layers=layers, layers_by_request=by_kind,
                           span_file=str(span_file.relative_to(ROOT)))
        else:
            payload["plain"] = closed_loop(reqs, order, prints, args.seconds)
        payload["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        sys.stdout.buffer.write(pickle.dumps(payload, protocol=5))
        sys.stdout.flush()
        return 0
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

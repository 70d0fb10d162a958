"""Layer spans recorded from outside tkd.

``Tracer.install`` wraps the public functions of each tkd module and rebinds
every wrapper in each tkd module namespace that holds the original, so that
calls made inside the package (``quasiprob`` calling its own imported
``apply_channel``, ``mh_state`` calling ``kd_state_recursive``) are seen too.
Spans live in flat in-memory arrays (name, parent, start, end, size) and are
only summarised or written out once the traced loop has ended.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

import tkd

# layer metric stem -> (module, attribute) pairs it covers; the module is the
# one that defines the function, so its original object is found there
LAYERS = {
    "cli.parse": [("cli", "load_spec"), ("cli", "load_spec_bytes")],
    "cli.emit": [("cli", "run_command")],
    "channels.apply": [("channels", "apply_channel"), ("channels", "adjoint_apply")],
    "channels.validate": [("channels", "validate_cptp"), ("channels", "check_density")],
    "channels.dilate": [("channels", "stinespring"), ("channels", "jamiolkowski")],
    "measurements.spectral": [("measurements", "spectral_measurement")],
    "quasiprob.pass": [("quasiprob", f) for f in
                       ("kd_right", "kd_left", "kd_doubled", "lvn", "mh_from_kd")],
    "quasiprob.backward": [("quasiprob", "joint_ops"), ("quasiprob", "classicality_witness")],
    "tomography.fold": [("tomography", f) for f in ("kd_state_recursive", "mh_state", "pdo")],
    "tomography.correlators": [("tomography", "correlators")],
    "tomography.reconstruct": [("tomography", "reconstruct_state")],
    "tomography.born": [("tomography", "born_eval")],
    "tomography.eig": [("tomography", "TemporalStateOperator.eigenvalues")],
    "charfunc.char_fn": [("charfunc", "char_fn")],
    "charfunc.invert": [("charfunc", "invert_char")],
    "charfunc.circuit": [("charfunc", "circuit_sim")],
    "linops.kron": [("linops", "kron"), ("linops", "kron_chain")],
    "linops.partial_trace": [("linops", "partial_trace")],
    "linops.embed": [("linops", "embed_operator")],
    "linops.eig": [("linops", "hermitian_eig")],
}

# spans whose result size is recorded: outcome entries of a pass, grid points of char_fn
_SIZED = {("quasiprob", f) for _, f in LAYERS["quasiprob.pass"]} | {("charfunc", "char_fn")}

MODULES = ("linops", "channels", "measurements", "quasiprob", "tomography", "charfunc", "cli")


def _module(name: str):
    return importlib.import_module(f"tkd.{name}")


class Tracer:
    def __init__(self, request_names: list[str]):
        self.names = [f"request:{n}" for n in request_names]
        self.layer_of: dict[int, str] = {}
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.size = array("q")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, nid: int, sized: bool):
        name, parent, t0, t1, size, stack = (self.name, self.parent, self.t0, self.t1,
                                             self.size, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            t1.append(0.0)
            size.append(0)
            stack.append(i)
            t0.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1[i] = clock()
                stack.pop()
            if sized:
                size[i] = out.values.size
            return out

        return traced

    def install(self):
        namespaces = [tkd] + [_module(m) for m in MODULES]
        for layer, targets in LAYERS.items():
            for mod, attr in targets:
                nid = len(self.names)
                self.names.append(f"{mod}.{attr}")
                self.layer_of[nid] = layer
                owner = _module(mod)
                if "." in attr:  # a method, patched on its class
                    cls_name, meth = attr.split(".")
                    owner = getattr(owner, cls_name)
                    attr = meth
                original = getattr(owner, attr)
                wrapper = self._wrap(original, nid, (mod, attr) in _SIZED)
                places = [owner] if isinstance(owner, type) else \
                    [ns for ns in namespaces if ns.__dict__.get(attr) is original]
                for ns in places:
                    self._undo.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original in reversed(self._undo):
            setattr(ns, attr, original)
        self._undo.clear()

    def run(self, kind: int, call):
        """One request as a root span named after its request kind."""
        i = len(self.name)
        self.name.append(kind)
        self.parent.append(-1)
        self.t1.append(0.0)
        self.size.append(0)
        self._stack.append(i)
        self.t0.append(time.perf_counter())
        try:
            return call()
        finally:
            self.t1[i] = time.perf_counter()
            self._stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "t0": np.frombuffer(self.t0), "t1": np.frombuffer(self.t1),
                "size": np.frombuffer(self.size, dtype=np.int64)}


def summarize(spans: dict[str, np.ndarray], names: list[str], layer_of: dict[int, str],
              n_kinds: int) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Per-request layer metrics, and self time (ms) per layer for each request kind.

    A ``_ms`` value is self time: a span's duration minus the time covered by
    its direct children. Counts and rates come from the same spans.
    """
    name, parent = spans["name"], spans["parent"]
    dur = spans["t1"] - spans["t0"]
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child

    groups = np.array([layer_of.get(int(k), "") for k in range(len(names))], dtype=object)
    layer = groups[name]
    is_pass = layer == "quasiprob.pass"
    # root request of each span and whether a pass span encloses it; parents
    # always precede their children in the arrays
    root = np.empty(len(name), dtype=np.int64)
    under_pass = np.zeros(len(name), dtype=bool)
    for i, p in enumerate(parent.tolist()):
        if p < 0:
            root[i] = i
        else:
            root[i] = root[p]
            under_pass[i] = under_pass[p] or is_pass[p]

    n_req = max(1, int(np.sum(~has_parent)))
    out: dict[str, float] = {}
    for stem in LAYERS:
        sel = layer == stem
        out[f"{stem}_ms"] = float(np.sum(self_s[sel])) * 1e3 / n_req
    apply = layer == "channels.apply"
    out["channels.apply_calls"] = float(np.sum(apply)) / n_req
    out["measurements.spectral_calls"] = float(np.sum(layer == "measurements.spectral")) / n_req
    entries = float(np.sum(spans["size"][is_pass]))
    pass_time = float(np.sum(dur[is_pass]))
    out["quasiprob.entries_per_s"] = entries / pass_time if pass_time else 0.0
    out["quasiprob.apply_per_entry"] = float(np.sum(apply & under_pass)) / entries if entries else 0.0
    is_char = layer == "charfunc.char_fn"
    char_time = float(np.sum(dur[is_char]))
    out["charfunc.points_per_s"] = float(np.sum(spans["size"][is_char])) / char_time \
        if char_time else 0.0

    by_kind: dict[str, dict[str, float]] = {}
    root_kind = name[root]
    for k in range(n_kinds):
        mine = root_kind == k
        count = int(np.sum(mine & ~has_parent))
        if not count:
            continue
        row = {}
        for stem in list(LAYERS) + [""]:
            t = float(np.sum(self_s[mine & (layer == stem)])) * 1e3 / count
            if t:
                row[stem or "unattributed"] = t
        by_kind[names[k].removeprefix("request:")] = row
    return out, by_kind

"""Command-line front end.

Reads JSON process specifications, dispatches the library computations, and
emits deterministic JSON result documents (complex scalars as [re, im]
pairs, matrices as row-major nested arrays). Exit codes: 2 for bad usage,
3 for a spec file that does not parse, 4 for numerical validation failures.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.resources
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channels import Instrument, QuantumChannel, build_channel, validate_cptp
from .charfunc import (
    ObservableSchedule,
    char_fn,
    circuit_sim,
    default_nodes,
    invert_char,
    product_grid,
)
from .linops import ValidationError, dagger, max_abs
from .measurements import Outcome, ProjectiveMeasurement, spectral_measurement
from .quasiprob import (
    MultiTimeProcess,
    QuasiDistribution,
    classicality_witness,
    extended_kd,
    kd_doubled,
    kd_left,
    kd_right,
    lvn,
    marginalize,
    mh_from_kd,
    nonclassicality,
)
from .tomography import correlators, kd_state_recursive, mh_state, pdo, reconstruct_state

DEFAULT_TOLERANCE = 1e-9
TOLERANCE_ENV = "TKD_TOLERANCE"

_DIST_KINDS = ("right", "left", "doubled", "mh", "lvn")
_STATE_CLI_KINDS = ("kd-right", "kd-left", "doubled", "mh", "pdo")
_DEMOS = {
    "xy-qubit": "xy_qubit.json",
    "replacement": "replacement.json",
    "measure-replace": "measure_replace.json",
}


class SpecParseError(Exception):
    pass


# ---------------------------------------------------------------------------
# JSON <-> numpy


def _c2(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _matrix_json(m: np.ndarray) -> list:
    return [[_c2(x) for x in row] for row in np.asarray(m)]


def _number(obj, where: str, integer: bool = False):
    """One numeric spec field: a JSON integer, or (not ``integer``) any finite
    JSON number as a float. Booleans, strings, NaN and ±Infinity raise
    SpecParseError naming the field."""
    if isinstance(obj, bool) or not isinstance(obj, int if integer else (int, float)) \
            or not (integer or abs(obj) <= sys.float_info.max):
        want = "an integer" if integer else "a finite number"
        raise SpecParseError(f"{where}: expected {want}, got {obj!r}")
    return obj if integer else float(obj)


def _parse_complex(obj, where: str) -> complex:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise SpecParseError(f"{where}: expected a [re, im] pair, got {obj!r}")
    return complex(_number(obj[0], f"{where}[0]"), _number(obj[1], f"{where}[1]"))


def _parse_matrix(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SpecParseError(f"{where}: expected a nested array")
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise SpecParseError(f"{where}[{i}]: expected a row array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SpecParseError(f"{where}[{i}]: ragged row")
        rows.append([_parse_complex(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)])
    return np.array(rows, dtype=np.complex128)


def _label_json(label):
    if isinstance(label, (str, int, float)):
        return label
    if isinstance(label, tuple):
        return [_label_json(x) for x in label]
    return str(label)


# ---------------------------------------------------------------------------
# spec files


@dataclass
class SpecBundle:
    label: str
    sha256: str
    data: dict
    process: MultiTimeProcess
    schedules: dict[str, list[ProjectiveMeasurement]]
    observables: dict[str, list[np.ndarray]]
    tol: float
    seed: int | None


def _parse_instrument(obj, where: str, tol: float) -> Instrument:
    if not isinstance(obj, list) or not obj:
        raise SpecParseError(f"{where}: expected a list of branches")
    branches = []
    for i, br in enumerate(obj):
        if not isinstance(br, dict) or "label" not in br or "operators" not in br:
            raise SpecParseError(f"{where}[{i}]: branch needs 'label' and 'operators'")
        ops = [_parse_matrix(m, f"{where}[{i}].operators[{j}]")
               for j, m in enumerate(br["operators"])]
        branches.append((br["label"], ops))
    return Instrument(branches, tol=tol)


def _parse_channel(obj, where: str, tol: float) -> QuantumChannel:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecParseError(f"{where}: expected an object with a 'kind'")
    kind = obj["kind"]
    if kind == "kraus":
        ops = obj.get("operators")
        if not isinstance(ops, list) or not ops:
            raise SpecParseError(f"{where}.operators: expected a list of matrices")
        return QuantumChannel([_parse_matrix(m, f"{where}.operators[{i}]")
                               for i, m in enumerate(ops)])
    if kind == "unitary":
        return build_channel("unitary", u=_parse_matrix(obj.get("u"), f"{where}.u"), tol=tol)
    if kind == "replacement":
        params = {"omega": _parse_matrix(obj.get("omega"), f"{where}.omega"), "tol": tol}
        if "d_in" in obj:
            params["d_in"] = _number(obj["d_in"], f"{where}.d_in", integer=True)
        return build_channel("replacement", **params)
    if kind == "measure_replace":
        inst = _parse_instrument(obj.get("instrument"), f"{where}.instrument", tol)
        outs = obj.get("outputs")
        if not isinstance(outs, list):
            raise SpecParseError(f"{where}.outputs: expected a list of matrices")
        outputs = [_parse_matrix(m, f"{where}.outputs[{i}]") for i, m in enumerate(outs)]
        return build_channel("measure_replace", instrument=inst, outputs=outputs, tol=tol)
    if kind == "depolarizing":
        try:
            p, d = obj["p"], obj["d"]
        except KeyError as e:
            raise SpecParseError(f"{where}: depolarizing needs {e.args[0]!r}") from None
        return build_channel("depolarizing", p=_number(p, f"{where}.p"),
                             d=_number(d, f"{where}.d", integer=True))
    raise SpecParseError(f"{where}.kind: unknown channel kind {kind!r}")


def _parse_measurement(obj, where: str, dim: int, tol: float) -> tuple[ProjectiveMeasurement, np.ndarray]:
    """Returns the measurement together with its generating observable."""
    if not isinstance(obj, dict):
        raise SpecParseError(f"{where}: expected an object")
    if "observable" in obj:
        h = _parse_matrix(obj["observable"], f"{where}.observable")
        if h.shape != (dim, dim):
            raise SpecParseError(f"{where}.observable: shape {h.shape}, expected {(dim, dim)}")
        m = spectral_measurement(h)
        return m, h
    if "projectors" in obj:
        entries = obj["projectors"]
        if not isinstance(entries, list) or not entries:
            raise SpecParseError(f"{where}.projectors: expected a list")
        outs = []
        for i, e in enumerate(entries):
            if not isinstance(e, dict) or "matrix" not in e:
                raise SpecParseError(f"{where}.projectors[{i}]: needs a 'matrix'")
            mat = _parse_matrix(e["matrix"], f"{where}.projectors[{i}].matrix")
            value = _number(e.get("value", i), f"{where}.projectors[{i}].value")
            label = e.get("label", value)
            outs.append(Outcome(value=value, projector=mat, label=label))
        m = ProjectiveMeasurement(dim, outs, tol=tol)
        return m, m.observable()
    raise SpecParseError(f"{where}: needs 'observable' or 'projectors'")


def _build_bundle(data, label: str, sha: str) -> SpecBundle:
    if not isinstance(data, dict):
        raise SpecParseError("spec root must be an object")
    if data.get("version") != 1:
        raise SpecParseError(f"version: expected 1, got {data.get('version')!r}")
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise SpecParseError("options: expected an object")
    tol = options.get("tolerance")
    if tol is None:
        tol = float(os.environ.get(TOLERANCE_ENV, DEFAULT_TOLERANCE))
    else:
        tol = _number(tol, "options.tolerance")
    seed = options.get("seed")
    if seed is not None:
        seed = _number(seed, "options.seed", integer=True)
        if seed < 0:
            raise SpecParseError(f"options.seed: expected a non-negative integer, got {seed}")

    rho = _parse_matrix(data.get("initial_state"), "initial_state")
    if rho.shape[0] != rho.shape[1]:
        raise SpecParseError(f"initial_state: shape {rho.shape} is not square")
    raw_channels = data.get("channels")
    if not isinstance(raw_channels, list):
        raise SpecParseError("channels: expected a list")
    channels = [_parse_channel(c, f"channels[{i}]", tol) for i, c in enumerate(raw_channels)]
    process = MultiTimeProcess(rho, channels, tol=tol)

    dims = data.get("dims")
    if dims is not None:
        if not isinstance(dims, list):
            raise SpecParseError(f"dims: expected a list of integers, got {dims!r}")
        if tuple(_number(d, f"dims[{i}]", integer=True) for i, d in enumerate(dims)) != process.dims:
            raise SpecParseError(f"dims: {dims} does not match the channel chain {list(process.dims)}")

    raw_scheds = data.get("schedules", {})
    if not isinstance(raw_scheds, dict):
        raise SpecParseError("schedules: expected an object of named schedules")
    schedules: dict[str, list[ProjectiveMeasurement]] = {}
    observables: dict[str, list[np.ndarray]] = {}
    for name, entries in raw_scheds.items():
        if not isinstance(entries, list) or len(entries) != process.n_times:
            raise SpecParseError(
                f"schedules.{name}: expected {process.n_times} entries")
        ms, obs = [], []
        for k, entry in enumerate(entries):
            m, h = _parse_measurement(entry, f"schedules.{name}[{k}]", process.dims[k], tol)
            ms.append(m)
            obs.append(h)
        schedules[name] = ms
        observables[name] = obs
    return SpecBundle(label=label, sha256=sha, data=data, process=process,
                      schedules=schedules, observables=observables, tol=tol, seed=seed)


def load_spec_bytes(raw: bytes, label: str) -> SpecBundle:
    sha = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise SpecParseError(f"{label}: {e}") from None
    return _build_bundle(data, label, sha)


def load_spec(path: str) -> SpecBundle:
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise SpecParseError(f"{path}: {e}") from None
    return load_spec_bytes(raw, path)


def _schedule(bundle: SpecBundle, name: str) -> list[ProjectiveMeasurement]:
    if name not in bundle.schedules:
        raise SpecParseError(f"schedule {name!r} not found; spec has {sorted(bundle.schedules)}")
    return bundle.schedules[name]


# ---------------------------------------------------------------------------
# result documents


def _base_doc(command: str, bundle: SpecBundle) -> dict:
    return {
        "document": "tkd-result",
        "format_version": 1,
        "command": command,
        "spec": bundle.label,
        "spec_sha256": bundle.sha256,
        "tolerance": bundle.tol,
    }


def _axes_json(q: QuasiDistribution) -> list:
    out = []
    for i, ax in enumerate(q.axes):
        block = "ket" if i < q.ket_axes else ("bra" if q.ket_axes else "single")
        time = i if i < q.ket_axes or not q.ket_axes else i - q.ket_axes
        out.append({
            "axis": i,
            "time": time,
            "block": block,
            "labels": [_label_json(o.label) for o in ax],
            "values": [float(o.value) for o in ax],
        })
    return out


def _dist_json(q: QuasiDistribution) -> dict:
    return {
        "kind": q.kind,
        "shape": list(q.values.shape),
        "ket_axes": q.ket_axes,
        "axes": _axes_json(q),
        "values": [_c2(z) for z in q.values.reshape(-1)],
        "ordering": "row-major over ascending-time axes (lexicographic outcome tuples)",
    }


def _write_output(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit(doc: dict, out: str | None) -> int:
    _write_output(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)
    return 0


def _write_table(q: QuasiDistribution, path: str):
    """Flat delimited export, one outcome tuple per row, latest time first."""
    nt = len(q.axes) - q.ket_axes if q.ket_axes else len(q.axes)
    cols = []
    if q.ket_axes:
        cols += [f"ket_t{nt - 1 - i}" for i in range(q.ket_axes)]
        cols += [f"bra_t{nt - 1 - i}" for i in range(len(q.axes) - q.ket_axes)]
        order = list(range(q.ket_axes - 1, -1, -1)) + \
            list(range(len(q.axes) - 1, q.ket_axes - 1, -1))
    else:
        cols = [f"t{len(q.axes) - 1 - i}" for i in range(len(q.axes))]
        order = list(range(len(q.axes) - 1, -1, -1))
    lines = ["\t".join(cols + ["re", "im"])]
    for idx in np.ndindex(q.values.shape):
        z = complex(q.values[idx])
        cells = [str(_label_json(q.axes[a][idx[a]].label)) for a in order]
        lines.append("\t".join(cells + [repr(z.real), repr(z.imag)]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _compute_dist(bundle: SpecBundle, kind: str, sched: str, bra_sched: str | None) -> QuasiDistribution:
    s = _schedule(bundle, sched)
    if kind == "doubled":
        b = _schedule(bundle, bra_sched or sched)
        return kd_doubled(bundle.process, s, b)
    if kind == "right":
        return kd_right(bundle.process, s)
    if kind == "left":
        return kd_left(bundle.process, s)
    if kind == "mh":
        return mh_from_kd(kd_right(bundle.process, s))
    return lvn(bundle.process, s)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    bundle = load_spec(args.spec)
    p = bundle.process
    rho = p.rho0
    eigs = np.linalg.eigvalsh((rho + dagger(rho)) / 2)
    doc = _base_doc("validate", bundle)
    doc["initial_state"] = {
        "dim": rho.shape[0],
        "trace_defect": float(abs(np.trace(rho) - 1.0)),
        "hermiticity_defect": float(max_abs(rho - dagger(rho))),
        "min_eigenvalue": float(eigs[0]),
    }
    doc["channels"] = [{
        "index": i,
        "kraus_count": len(c.kraus),
        "d_in": c.d_in,
        "d_out": c.d_out,
        "cptp_defect": float(validate_cptp(c, bundle.tol).defect),
    } for i, c in enumerate(p.channels)]
    doc["schedules"] = {
        name: [{
            "time": k,
            "outcomes": len(m.outcomes),
            "completeness_defect": float(max_abs(
                sum(o.projector for o in m.outcomes) - np.eye(m.dim))),
        } for k, m in enumerate(ms)]
        for name, ms in bundle.schedules.items()
    }
    return _emit(doc, args.out)


def _cmd_dist(args) -> int:
    bundle = load_spec(args.spec)
    q = _compute_dist(bundle, args.kind, args.schedule, args.bra_schedule)
    doc = _base_doc("dist", bundle)
    doc["distribution"] = _dist_json(q)
    doc["diagnostics"] = {
        "total": _c2(q.total()),
        "normalization_defect": float(abs(q.total() - 1.0)),
        "nonclassicality_linear": nonclassicality(q),
    }
    if args.table:
        _write_table(q, args.table)
    return _emit(doc, args.out)


def _cmd_nonclassicality(args) -> int:
    bundle = load_spec(args.spec)
    q = _compute_dist(bundle, args.kind, args.schedule, args.bra_schedule)
    doc = _base_doc("nonclassicality", bundle)
    doc["kind"] = q.kind
    doc["variant"] = args.variant
    doc["value"] = float(nonclassicality(q, args.variant))
    return _emit(doc, args.out)


def _cmd_witness(args) -> int:
    bundle = load_spec(args.spec)
    rep = classicality_witness(bundle.process, _schedule(bundle, args.schedule))
    doc = _base_doc("witness", bundle)
    doc["nonclassicality"] = float(rep.nonclassicality)
    doc["max_commutator_norm"] = float(rep.max_commutator_norm)
    if rep.worst_pair is None:
        doc["worst_pair"] = None
    else:
        (ta, la), (tb, lb) = rep.worst_pair
        doc["worst_pair"] = {
            "a": {"times": list(ta), "labels": [_label_json(x) for x in la]},
            "b": {"times": list(tb), "labels": [_label_json(x) for x in lb]},
        }
    return _emit(doc, args.out)


def _cmd_state(args) -> int:
    bundle = load_spec(args.spec)
    p = bundle.process
    if args.kind == "kd-right":
        y = kd_state_recursive(p)
    elif args.kind == "kd-left":
        y = kd_state_recursive(p, kind="kd_left")
    elif args.kind == "mh":
        y = mh_state(p)
    elif args.kind == "pdo":
        y = pdo(p)
    else:
        y = reconstruct_state(correlators(p, kind="doubled"))
    doc = _base_doc("state", bundle)
    eigs = y.eigenvalues()
    doc["state"] = {
        "kind": y.kind,
        "dims": list(y.dims),
        "factor_order": "latest time first" + (", ket block then bra block" if y.doubled else ""),
        "matrix": _matrix_json(y.matrix),
        "trace": _c2(np.trace(y.matrix)),
        "hermiticity_defect": float(max_abs(y.matrix - dagger(y.matrix))),
        "eigenvalues": [_c2(z) for z in eigs],
        "min_real_eigenvalue": float(np.min(np.asarray(eigs).real)),
    }
    return _emit(doc, args.out)


def _parse_points(text: str, width: int) -> list[tuple[float, ...]]:
    pts = []
    for i, chunk in enumerate(x for x in text.split(";") if x.strip()):
        try:
            pt = tuple(float(v) for v in chunk.split(","))
        except ValueError:
            raise SpecParseError(f"points[{i}]: {chunk!r} is not a comma-separated tuple")
        if len(pt) != width:
            raise SpecParseError(f"points[{i}]: needs {width} phases, got {len(pt)}")
        pts.append(pt)
    if not pts:
        raise SpecParseError("points: empty")
    return pts


def _char_setup(bundle: SpecBundle, kind: str, sched: str, bra_sched: str | None):
    """ObservableSchedule plus per-axis spectra for the requested kind."""
    spectra = [[o.value for o in m.outcomes] for m in _schedule(bundle, sched)]
    obs_main = tuple(bundle.observables[sched])
    if kind == "right":
        return ObservableSchedule(bra=obs_main), spectra
    if kind == "left":
        return ObservableSchedule(ket=obs_main), spectra
    bname = bra_sched or sched
    spectra += [[o.value for o in m.outcomes] for m in _schedule(bundle, bname)]
    return ObservableSchedule(ket=obs_main, bra=tuple(bundle.observables[bname])), spectra


def _cmd_charfn(args) -> int:
    bundle = load_spec(args.spec)
    obs, spectra = _char_setup(bundle, args.kind, args.schedule, args.bra_schedule)
    if args.points:
        grid = _parse_points(args.points, len(spectra))
        source = "explicit"
    else:
        grid = product_grid([default_nodes(sp) for sp in spectra])
        source = "default"
    samples = char_fn(bundle.process, obs, grid, kind=args.kind)
    doc = _base_doc("charfn", bundle)
    doc["characteristic"] = {
        "kind": samples.kind,
        "grid": [list(pt) for pt in samples.grid],
        "grid_source": source,
        "values": [_c2(z) for z in samples.values],
    }
    if source == "default":
        q = invert_char(samples, spectra)
        direct = _compute_dist(bundle, args.kind, args.schedule, args.bra_schedule)
        doc["characteristic"]["inversion_round_trip_defect"] = float(
            np.max(np.abs(q.values - direct.values)))
    return _emit(doc, args.out)


def _cmd_circuit_sim(args) -> int:
    bundle = load_spec(args.spec)
    obs, spectra = _char_setup(bundle, args.kind, args.schedule, args.bra_schedule)
    point = _parse_points(args.point, len(spectra))[0]
    seed = args.seed if args.seed is not None else bundle.seed
    res = circuit_sim(bundle.process, obs, point, kind=args.kind,
                      shots=args.shots, seed=seed)
    ref = char_fn(bundle.process, obs, [point], kind=args.kind).values[0]
    doc = _base_doc("circuit-sim", bundle)
    doc["circuit"] = {
        "kind": res.kind,
        "point": list(res.point),
        "exact": _c2(res.exact),
        "direct_formula": _c2(ref),
        "circuit_defect": float(abs(res.exact - ref)),
        "metadata": {k: (list(v) if isinstance(v, tuple) else v)
                     for k, v in res.metadata.items()},
        "shots": res.shots,
        "seed": seed,
    }
    if res.estimate is not None:
        doc["circuit"]["estimate"] = _c2(res.estimate)
        doc["circuit"]["std_error"] = res.std_error
        doc["circuit"]["deviation"] = res.deviation
    return _emit(doc, args.out)


# ---------------------------------------------------------------------------
# demos


def _load_demo(name: str) -> SpecBundle:
    res = importlib.resources.files("tkd") / "demos" / _DEMOS[name]
    return load_spec_bytes(res.read_bytes(), f"demo:{name}")


_XY_TABLE = [[0.25, 0.25], [0.25, -0.25], [0.25, -0.25], [0.25, 0.25]]
_MR_PROCESS_TABLE = [[0.25, -0.25], [0.25, 0.25], [0.25, 0.25], [0.25, -0.25]]
_MR_EXTENDED_TABLE = [[0.25, 0.25], [0.25, -0.25], [0.25, -0.25], [0.25, 0.25]]
_SQRT2_MINUS_1 = 0.41421356237309515


def _table_dev(q: QuasiDistribution, ref: list) -> float:
    flat = q.values.reshape(-1)
    return float(max(abs(z - complex(a, b)) for z, (a, b) in zip(flat, ref)))


def _cmd_demo(args) -> int:
    bundle = _load_demo(args.name)
    p = bundle.process
    s = bundle.schedules["default"]
    doc = _base_doc("demo", bundle)
    doc["demo"] = args.name

    if args.name == "xy-qubit":
        q = kd_right(p, s)
        doc["distribution"] = _dist_json(q)
        doc["nonclassicality"] = nonclassicality(q)
        doc["reference"] = {"table": _XY_TABLE, "nonclassicality": _SQRT2_MINUS_1}
        doc["max_table_deviation"] = _table_dev(q, _XY_TABLE)
        doc["nonclassicality_deviation"] = abs(doc["nonclassicality"] - _SQRT2_MINUS_1)
        return _emit(doc, args.out)

    if args.name == "replacement":
        q = kd_right(p, s)
        p0 = np.array([np.trace(p.rho0 @ o.projector) for o in s[0].outcomes])
        omega = p.state_at(1)
        p1 = np.array([np.trace(omega @ o.projector) for o in s[1].outcomes])
        product = np.real(np.outer(p0, p1))
        doc["distribution"] = _dist_json(q)
        doc["marginal_t0"] = [float(x) for x in p0.real]
        doc["marginal_t1"] = [float(x) for x in p1.real]
        doc["factorization_defect"] = float(np.max(np.abs(q.values - product)))
        doc["nonclassicality"] = nonclassicality(q)
        doc["reference"] = {"table": [[0.25, 0.0]] * 4, "nonclassicality": 0.0}
        doc["max_table_deviation"] = _table_dev(q, [[0.25, 0.0]] * 4)
        return _emit(doc, args.out)

    # measure-replace
    q = kd_right(p, s)
    inst = _parse_instrument(bundle.data["channels"][0]["instrument"],
                             "channels[0].instrument", bundle.tol)
    outputs = [_parse_matrix(m, f"channels[0].outputs[{i}]")
               for i, m in enumerate(bundle.data["channels"][0]["outputs"])]
    ext = extended_kd(p.rho0, s[0], inst)
    # align: match each t1 outcome's projector to the branch output it selects
    perm = []
    for o in s[1].outcomes:
        hits = [k for k, w in enumerate(outputs) if max_abs(w - o.projector) <= 1e-9]
        if len(hits) != 1:
            raise ValidationError("demo outputs do not match the t1 projectors one-to-one")
        perm.append(hits[0])
    aligned = ext.values[:, perm]
    doc["distribution"] = _dist_json(q)
    doc["extended_kd"] = _dist_json(ext)
    doc["nonclassicality"] = nonclassicality(q)
    doc["extended_nonclassicality"] = nonclassicality(ext)
    doc["equality_gap"] = abs(nonclassicality(q) - nonclassicality(ext))
    doc["table_gap_after_alignment"] = float(np.max(np.abs(q.values - aligned)))
    doc["reference"] = {
        "table": _MR_PROCESS_TABLE,
        "extended_table": _MR_EXTENDED_TABLE,
        "nonclassicality": _SQRT2_MINUS_1,
    }
    doc["max_table_deviation"] = _table_dev(q, _MR_PROCESS_TABLE)
    doc["max_extended_table_deviation"] = _table_dev(ext, _MR_EXTENDED_TABLE)
    return _emit(doc, args.out)


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tkd",
                                 description="Temporal quasiprobability toolbox")
    sub = ap.add_subparsers(dest="command", required=True)

    def spec_cmd(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.add_argument("spec", help="process specification file (JSON)")
        sp.add_argument("-o", "--out", default=None, help="write the document here instead of stdout")
        sp.set_defaults(fn=fn)
        return sp

    spec_cmd("validate", _cmd_validate, help="run all structural and numerical checks")

    sp = spec_cmd("dist", _cmd_dist, help="evaluate a temporal distribution")
    sp.add_argument("--kind", choices=_DIST_KINDS, default="right")
    sp.add_argument("--schedule", default="default")
    sp.add_argument("--bra-schedule", default=None, help="bra side for --kind doubled")
    sp.add_argument("--table", default=None, help="also write a flat delimited table here")

    sp = spec_cmd("nonclassicality", _cmd_nonclassicality, help="Σ|Q|-1 or log Σ|Q|")
    sp.add_argument("--kind", choices=_DIST_KINDS, default="right")
    sp.add_argument("--schedule", default="default")
    sp.add_argument("--bra-schedule", default=None)
    sp.add_argument("--variant", choices=("linear", "log"), default="linear")

    sp = spec_cmd("witness", _cmd_witness, help="nonclassicality vs back-evolved commutators")
    sp.add_argument("--schedule", default="default")

    sp = spec_cmd("state", _cmd_state, help="temporal state operator with eigenvalue summary")
    sp.add_argument("--kind", choices=_STATE_CLI_KINDS, default="kd-right")

    sp = spec_cmd("charfn", _cmd_charfn, help="characteristic function samples")
    sp.add_argument("--kind", choices=("right", "left", "doubled"), default="right")
    sp.add_argument("--schedule", default="default")
    sp.add_argument("--bra-schedule", default=None)
    sp.add_argument("--points", default=None,
                    help="semicolon-separated comma tuples; default: inversion grid")

    sp = spec_cmd("circuit-sim", _cmd_circuit_sim, help="ancilla interferometer at one point")
    sp.add_argument("--kind", choices=("right", "left", "doubled"), default="right")
    sp.add_argument("--schedule", default="default")
    sp.add_argument("--bra-schedule", default=None)
    sp.add_argument("--point", required=True, help="comma-separated phases")
    sp.add_argument("--shots", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("demo", help="run a bundled worked example")
    sp.add_argument("name", choices=sorted(_DEMOS))
    sp.add_argument("-o", "--out", default=None)
    sp.set_defaults(fn=_cmd_demo)

    return ap


def run_command(argv) -> int:
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except SpecParseError as e:
        print(f"tkd: spec error: {e}", file=sys.stderr)
        return 3
    except ValidationError as e:
        print(f"tkd: validation error: {e}", file=sys.stderr)
        return 4


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

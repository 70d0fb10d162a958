"""Command-line front end.

Reads JSON process specifications, dispatches the library computations, and
emits deterministic JSON result documents (complex scalars as [re, im]
pairs, matrices as row-major nested arrays). Documents are written by
``_write``, which gives the bytes of ``json.dumps(doc, indent=2,
sort_keys=True)``: dicts and lists share one loop, and one list writer
(``_list_to``) renders every float and complex array, or its flat view, a
block of about 2,048 floats at a time into a sink that writes pieces of about
64 kB to stdout or to the ``-o`` file, so no whole-document string is ever
built. Every result is computed before the first byte.
Exit codes: 2 for bad usage or an output file that cannot be written, 3 for
a spec file that does not parse or a ``state``, ``dist``, ``nonclassicality``,
``witness`` or ``charfn`` request too large for the machine's physical
memory, 4 for numerical validation failures.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.resources
import itertools
import json
import math
import operator
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channels import Instrument, QuantumChannel, build_channel, validate_cptp
from .charfunc import (
    CHAR_KINDS,
    ObservableSchedule,
    _entry_measurements,
    char_fn,
    circuit_sim,
    default_nodes,
    invert_char,
    product_grid,
)
from .linops import ValidationError, _in_field, check_half_range, dagger, max_abs
from .measurements import Outcome, ProjectiveMeasurement
from .quasiprob import (
    MultiTimeProcess,
    QuasiDistribution,
    classicality_witness,
    extended_kd,
    kd_doubled,
    kd_left,
    kd_right,
    lvn,
    mh_from_kd,
    nonclassicality,
)
from .tomography import kd_state_recursive, mh_state, pdo

DEFAULT_TOLERANCE = 1e-9
TOLERANCE_ENV = "TKD_TOLERANCE"
# peak resident bytes per entry of one run of each command (growth of ru_maxrss
# over a process warmed up by the same command, 2^12 to 2^20 entries, d = 2, 3, 4,
# documents streamed to stdout or to -o): `state` 45-80 B per matrix entry (all
# kinds); `dist` 17-80 B and `nonclassicality` 48-80 B per distribution entry, the
# sweep's last step at d = 4 setting the top; `witness` 38-61 B per entry of its
# commutator stack (Π m_k·d², unitary and Kraus chains); `charfn` 230-460 B per
# grid point (2^12 to 2^18 points, 8 to 18 axes, all kinds), growing by about
# 17 B per axis, so 1 kB covers grids of up to about 50 axes; explicit --points
# are charged as many
_BYTES_PER_ENTRY = {"state": 128, "dist": 128, "nonclassicality": 128, "witness": 64, "charfn": 1024}

# each --kind of `dist` and `nonclassicality` and its builder (process, schedule[, bra schedule])
_DIST_BUILDERS = {
    "right": kd_right,
    "left": kd_left,
    "doubled": kd_doubled,
    "mh": lambda p, s: mh_from_kd(kd_right(p, s)),
    "lvn": lvn,
}
# each `state --kind` and its builder, in the order argparse lists them in a usage error
_STATE_BUILDERS = {
    "kd-right": functools.partial(kd_state_recursive, kind="kd_right"),
    "kd-left": functools.partial(kd_state_recursive, kind="kd_left"),
    "doubled": functools.partial(kd_state_recursive, kind="kd_doubled"),
    "mh": mh_state,
    "pdo": pdo,
}


class SpecParseError(Exception):
    pass


class SizeLimitError(Exception):
    """A request whose estimated memory exceeds the machine's physical memory."""


class OutputError(Exception):
    """An ``-o`` or ``--table`` path that cannot be written."""


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform cannot say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _size_guard(what: str, entries: int, bytes_per_entry: int, noun: str):
    """Refuse a request whose estimated memory exceeds physical memory."""
    need, have = entries * bytes_per_entry, _physical_memory()
    if have is not None and need > have:
        raise SizeLimitError(f"{what}: estimated {entries} {noun}, about {need / 2**30:.1f} GiB, "
                             f"exceed the {have / 2**30:.1f} GiB of physical memory")


# ---------------------------------------------------------------------------
# JSON <-> numpy


def _c2(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_BLOCK = 2048  # floats of an array rendered per step: its text stays a few tens of kB
_PIECE = 1 << 16  # characters of array text the sink gathers before it writes


class _Sink(list):
    """Pieces of a document not yet written. Array text goes in through ``add``,
    which first hands everything gathered to ``write`` when the text would pass
    _PIECE characters; other pieces are small and are plain appends."""

    def __init__(self, write):
        super().__init__()
        self.write, self.size = write, 0

    def add(self, text: str):
        if self.size + len(text) > _PIECE:
            self.flush()
        self.append(text)
        self.size += len(text)

    def flush(self):
        self.write("".join(self))
        self.clear()
        self.size = 0


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


_json_str = json.encoder.encode_basestring_ascii
# the text of each plain JSON scalar type, by exact type (subclasses are looked up by isinstance)
_SCALARS = {str: _json_str, int: int.__repr__, float: _float_text,
            bool: lambda o: "true" if o else "false", type(None): lambda o: "null"}
_ARRAY_DTYPES = (np.float64, np.complex128)


def _template(shape: tuple, level: int) -> str:
    """``%s`` template of an array of ``shape`` as nested lists whose '[' sits at ``level``."""
    if not shape:
        return "%s"
    if not shape[0]:
        return "[]"
    ind = "\n" + "  " * (level + 1)
    return "[" + ind + ("," + ind).join([_template(shape[1:], level + 1)] * shape[0]) + ind[:-2] + "]"


def _floats(a: np.ndarray) -> tuple:
    """The repr of each float of ``a`` in C order, re then im for a complex entry."""
    return tuple(map(float.__repr__, np.ravel(a).view(np.float64).tolist()))


def _texts(a: np.ndarray) -> tuple:
    """`_floats` of ``a`` in JSON's spelling."""
    text = _floats(a)
    if not np.isfinite(a).all():
        text = tuple(_NONFINITE.get(x, x) for x in text)
    return text


def _list_to(chunks, item_shape: tuple, per: int, level: int, out: _Sink):
    """The list, '[' at ``level``, of the items along the leading axis of each array of
    ``chunks`` in turn, each an array of ``item_shape`` as nested lists, with ``per`` floats
    per entry (2: complex entries as [re, im] pairs); a chunk is rendered at once."""
    ind = "\n" + "  " * (level + 1)
    sep = "," + ind
    item, templates = _template(item_shape + (2,) * (per - 1), level + 1), {}
    head = "[" + ind
    for c in chunks:
        n = len(c)
        if n:
            if n not in templates:
                templates[n] = sep.join([item] * n)
            out.add(head + templates[n] % _texts(c))
            head = sep
    out.append(ind[:-2] + "]" if head == sep else "[]")


def _array_to(a: np.ndarray, level: int, out: _Sink):
    """A float64 or complex128 array as nested lists (complex entries as [re, im] pairs),
    '[' at ``level``, rendered a block of about _BLOCK floats at a time."""
    per = 2 if a.dtype == np.complex128 else 1  # floats per entry
    row = math.prod(a.shape[1:]) * per
    if row <= _BLOCK:
        step = _BLOCK // max(row, 1)
        _list_to((a[s:s + step] for s in range(0, len(a), step)), a.shape[1:], per, level, out)
        return
    ind = "\n" + "  " * (level + 1)  # rows too large for one block: each is an array of its own
    out.append("[" + ind)
    for i, r in enumerate(a):
        if i:
            out.append("," + ind)
        _array_to(r, level + 1, out)
    out.append(ind[:-2] + "]")


def _pieces(a: np.ndarray, size: int):
    """``a`` in C order as slices of at most ``size`` entries, none of them a copy: of a
    C-contiguous ``a``, runs of its flat view; of any other, its leading-axis slices,
    split in turn until they are small enough."""
    if a.flags.c_contiguous:
        a = a.reshape(-1)
    if a.size <= size:
        yield a
    elif a.ndim == 1:
        yield from (a[s:s + size] for s in range(0, len(a), size))
    else:
        for r in a:
            yield from _pieces(r, size)


class _Flat:
    """An array that `_write` renders as ``a.reshape(-1)`` is rendered, a piece of at most
    _BLOCK floats at a time (`_pieces`), so that no flat copy of a non-contiguous array,
    such as a doubled distribution, is made."""

    def __init__(self, a: np.ndarray):
        self.a = a


def _key_text(k) -> str:
    """A dict key as `json.dumps` writes it: a str as itself, an int, float, bool or None key
    as the JSON string of its scalar's text, such as "1" or "true"."""
    if isinstance(k, str):
        return _json_str(k)
    base = type(k) if type(k) in _SCALARS else next((t for t in (int, float) if isinstance(k, t)), None)
    if base is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    return f'"{_SCALARS[base](k)}"'


def _write(o, level: int, out: _Sink):
    """Append ``o`` to ``out`` as ``json.dumps(o, indent=2, sort_keys=True)`` lays it out
    when its first character sits at nesting ``level``; float64 and complex128
    ``np.ndarray`` leaves (ndim ≥ 1) are nested lists, complex entries [re, im] pairs, and
    dict keys are written as `_key_text` states.
    A scalar inside a list or dict goes out in line, without a call of its own."""
    text = _SCALARS.get(type(o))
    if text:
        out.append(text(o))
    elif isinstance(o, (dict, list, tuple)):
        keyed = isinstance(o, dict)
        brackets = "{}" if keyed else "[]"
        if not o:
            out.append(brackets)
            return
        ind = "\n" + "  " * (level + 1)
        sep = brackets[0] + ind
        for k, x in sorted(o.items()) if keyed else enumerate(o):
            head = sep + _key_text(k) + ": " if keyed else sep
            text = _SCALARS.get(type(x))
            if text:
                out.append(head + text(x))
            else:
                out.append(head)
                _write(x, level + 1, out)
            sep = "," + ind
        out.append(ind[:-2] + brackets[1])
    elif isinstance(o, np.ndarray) and o.ndim and o.dtype in _ARRAY_DTYPES:
        _array_to(o, level, out)
    elif isinstance(o, _Flat):
        per = 2 if o.a.dtype == np.complex128 else 1
        _list_to((c.reshape(-1) for c in _pieces(o.a, _BLOCK // per)), (), per, level, out)
    else:
        base = next((t for t in (str, int, float) if isinstance(o, t)), None)
        if base is None:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        out.append(_SCALARS[base](o))


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


_FLOAT_MAX = sys.float_info.max
_NUMBERS = {int, float}


def _parse_matrix(obj, where: str) -> np.ndarray:
    """A nested array of [re, im] pairs as a complex128 matrix. A well-formed one is one
    conversion: an (r, c, 2) float64 array, viewed as complex, whose entries are all JSON
    integers or floats (no booleans or numeric strings) of magnitude below the float maximum.
    Anything else is walked entry by entry (`_walk_matrix`), which names the first bad one."""
    try:
        a = np.array(obj, dtype=np.float64)
    except (ValueError, TypeError, OverflowError):
        return _walk_matrix(obj, where)
    if a.ndim != 3 or a.shape[2] != 2 or not a.size or not np.abs(a).max() < _FLOAT_MAX:
        return _walk_matrix(obj, where)
    if not set(map(type, itertools.chain.from_iterable(itertools.chain.from_iterable(obj)))) <= _NUMBERS:
        return _walk_matrix(obj, where)
    return a.view(np.complex128)[..., 0]


def _walk_matrix(obj, where: str) -> np.ndarray:
    """`_parse_matrix` one entry at a time: the first malformed part raises SpecParseError naming it."""
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


# ---------------------------------------------------------------------------
# spec files


@dataclass(eq=False)
class SpecBundle:
    label: str
    sha256: str
    process: MultiTimeProcess
    schedules: dict[str, list[ProjectiveMeasurement]]
    seed: int | None
    instruments: dict[str, tuple[Instrument, list[np.ndarray]]]  # measure_replace parts by field


def _matrices(obj, where: str) -> list[np.ndarray]:
    """A non-empty list of matrices of one shape."""
    if not isinstance(obj, list) or not obj:
        raise SpecParseError(f"{where}: expected a list of matrices")
    ms = [_parse_matrix(m, f"{where}[{i}]") for i, m in enumerate(obj)]
    for i, m in enumerate(ms):
        if m.shape != ms[0].shape:
            raise SpecParseError(f"{where}[{i}]: shape {m.shape} differs from [0]'s {ms[0].shape}")
    return ms


def _check_input(m: np.ndarray, where: str, dim: int):
    """Refuse field ``where`` when its matrix ``m`` does not act on the chain's dimension ``dim``."""
    if m.shape[1] != dim:
        raise SpecParseError(
            f"{where}: input dimension {m.shape[1]} does not match the chain's dimension {dim} at this step")


def _parse_branches(obj, where: str, dim: int) -> list[tuple]:
    if not isinstance(obj, list) or not obj:
        raise SpecParseError(f"{where}: expected a list of branches")
    branches = []
    for i, br in enumerate(obj):
        if not isinstance(br, dict) or "label" not in br or "operators" not in br:
            raise SpecParseError(f"{where}[{i}]: branch needs 'label' and 'operators'")
        ops = _matrices(br["operators"], f"{where}[{i}].operators")
        _check_input(ops[0], f"{where}[{i}].operators", dim)
        if branches and ops[0].shape != branches[0][1][0].shape:
            raise SpecParseError(f"{where}[{i}].operators: shape {ops[0].shape} differs from "
                                 f"[0]'s {branches[0][1][0].shape}")
        branches.append((br["label"], ops))
    return branches


def _parse_dim(obj, where: str, dim: int) -> int:
    """``d`` or ``d_in``: the chain's dimension ``dim`` at the channel's step."""
    n = _number(obj, where, integer=True)
    if n != dim:
        raise SpecParseError(f"{where}: {n} does not match the chain's dimension {dim} at this step")
    return n


def _plain(parse):
    """``parse(obj, where)`` as a channel field parser, which needs no dim."""
    return lambda obj, where, dim: parse(obj, where)


# each spec channel kind's fields, all required but d_in, and their parsers
# (value, where, dim), dim being the chain's dimension at the step;
# `build_channel` takes the parsed fields as its parameters
_CHANNEL_FIELDS = {
    "kraus": {"operators": _plain(_matrices)},
    "unitary": {"u": _plain(_parse_matrix)},
    "replacement": {"omega": _plain(_parse_matrix), "d_in": _parse_dim},
    "measure_replace": {"instrument": _parse_branches, "outputs": _plain(_matrices)},
    "depolarizing": {"p": _plain(_number), "d": _parse_dim},
}
# the field whose matrix sets a kind's input dimension when no d_in is given
_INPUT_FIELD = {"kraus": "operators", "unitary": "u", "replacement": "omega"}


def _parse_channel(obj, where: str, tol: float, dim: int, instruments: dict) -> QuantumChannel:
    """Every malformed field (exit 3) is refused before the numerical checks (exit 4), which
    `Instrument` and `build_channel` run once each; measure_replace parts go to ``instruments[where]``."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecParseError(f"{where}: expected an object with a 'kind'")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _CHANNEL_FIELDS:
        raise SpecParseError(f"{where}.kind: unknown channel kind {kind!r}")
    fields = {}
    for name, parse in _CHANNEL_FIELDS[kind].items():
        if name in obj:
            fields[name] = parse(obj[name], f"{where}.{name}", dim)
        elif name != "d_in":
            raise SpecParseError(f"{where}.{name}: required by kind {kind!r}")
    name = _INPUT_FIELD.get(kind)
    if name and "d_in" not in fields:
        m = fields[name]
        _check_input(m[0] if kind == "kraus" else m, f"{where}.{name}", dim)
    if kind == "measure_replace":
        branches, outputs = fields["instrument"], fields["outputs"]
        if len(outputs) != len(branches):
            raise SpecParseError(f"{where}.outputs: {len(outputs)} states for {len(branches)} "
                                 "instrument branches, one per branch is required")
        fields["instrument"] = _in_field(("instrument",), Instrument, branches, tol=tol)
        instruments[where] = (fields["instrument"], outputs)
    return build_channel(kind, tol=tol, **fields)


def _parse_entry(obj, name: str, k: int, dim: int, tol: float):
    """Entry ``k`` of schedule ``name``, with every malformed field refused: an `observable`
    as its (where, matrix) pair, for `_measurements` to decompose with the spec's other
    observables; `projectors` as the call that builds and checks its measurement."""
    where = f"schedules.{name}[{k}]"
    if not isinstance(obj, dict):
        raise SpecParseError(f"{where}: expected an object")
    if "observable" in obj:
        h = _parse_matrix(obj["observable"], f"{where}.observable")
        if h.shape != (dim, dim):
            raise SpecParseError(f"{where}.observable: shape {h.shape}, expected {(dim, dim)}")
        return f"{where}.observable", h
    if "projectors" in obj:
        entries = obj["projectors"]
        if not isinstance(entries, list) or not entries:
            raise SpecParseError(f"{where}.projectors: expected a list")
        outs, seen = [], {}
        for i, e in enumerate(entries):
            if not isinstance(e, dict) or "matrix" not in e:
                raise SpecParseError(f"{where}.projectors[{i}]: needs a 'matrix'")
            mwhere = f"{where}.projectors[{i}].matrix"
            mat = _parse_matrix(e["matrix"], mwhere)
            if mat.shape != (dim, dim):
                raise SpecParseError(f"{mwhere}: shape {mat.shape}, expected {(dim, dim)}")
            value = _number(e.get("value", i), f"{where}.projectors[{i}].value")
            label, lwhere = e.get("label", value), f"{where}.projectors[{i}].label"
            if isinstance(label, bool) or not isinstance(label, (str, int, float)) \
                    or isinstance(label, float) and not math.isfinite(label):
                raise SpecParseError(f"{lwhere}: expected a string or finite number, got {label!r}")
            if label in seen:
                raise SpecParseError(f"{lwhere}: {label!r} repeats projectors[{seen[label]}]")
            seen[label] = i
            outs.append(Outcome(value=value, projector=mat, label=label))
        return functools.partial(_projective, outs, name, k, dim, tol)
    raise SpecParseError(f"{where}: needs 'observable' or 'projectors'")


def _projective(outs: list[Outcome], name: str, k: int, dim: int, tol: float) -> ProjectiveMeasurement:
    """The measurement of the `projectors` entry ``k`` of schedule ``name``, checked."""
    m = _in_field(("schedules", name, k, "projectors"), ProjectiveMeasurement, dim, outs, tol=tol)
    # Σ value·P is held to an observable's range
    check_half_range(m.observable(), f"schedules.{name}[{k}].projectors")
    return m


def _measurements(entries: list, tol: float) -> list[ProjectiveMeasurement]:
    """The measurement of each parsed schedule entry (`_parse_entry`), every observable of the
    spec through one `_entry_measurements` call. On a refusal the entries are built again one
    at a time, in spec order, so that the one refused is the first."""
    try:
        built = iter(_entry_measurements([e for e in entries if isinstance(e, tuple)], tol))
        return [next(built) if isinstance(e, tuple) else e() for e in entries]
    except ValidationError:
        return [_entry_measurements([e], tol)[0] if isinstance(e, tuple) else e() for e in entries]


def _tolerance(options: dict) -> float:
    """``options.tolerance``, else the TKD_TOLERANCE environment variable, else
    the default; either source must hold a positive finite number."""
    tol, where = options.get("tolerance"), "options.tolerance"
    if tol is None:
        raw, where = os.environ.get(TOLERANCE_ENV), TOLERANCE_ENV
        if raw is None:
            return DEFAULT_TOLERANCE
        try:
            tol = float(raw)
        except ValueError:
            tol = raw  # rejected below with the variable named
    tol = _number(tol, where)
    if tol <= 0:
        raise SpecParseError(f"{where}: expected a positive number, got {tol}")
    return tol


def _build_bundle(data, label: str, sha: str) -> SpecBundle:
    if not isinstance(data, dict):
        raise SpecParseError("spec root must be an object")
    if data.get("version") != 1:
        raise SpecParseError(f"version: expected 1, got {data.get('version')!r}")
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise SpecParseError("options: expected an object")
    tol = _tolerance(options)
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
    instruments: dict = {}
    channels, dim = [], rho.shape[0]
    for i, c in enumerate(raw_channels):
        where = f"channels[{i}]"
        channels.append(_in_field(("channels", i), _parse_channel, c, where, tol, dim, instruments))
        dim = channels[-1].d_out
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
    parsed = []  # (schedule name, `_parse_entry` of one entry), in spec order
    try:
        for name, entries in raw_scheds.items():
            if not isinstance(entries, list) or len(entries) != process.n_times:
                raise SpecParseError(
                    f"schedules.{name}: expected {process.n_times} entries")
            for k, entry in enumerate(entries):
                parsed.append((name, _parse_entry(entry, name, k, process.dims[k], tol)))
    except SpecParseError:
        _measurements([e for _, e in parsed], tol)  # a numerical refusal of an earlier entry comes first
        raise
    schedules: dict[str, list[ProjectiveMeasurement]] = {name: [] for name in raw_scheds}
    for (name, _), m in zip(parsed, _measurements([e for _, e in parsed], tol)):
        schedules[name].append(m)
    return SpecBundle(label=label, sha256=sha, process=process, schedules=schedules,
                      seed=seed, instruments=instruments)


def load_spec_bytes(raw: bytes, label: str) -> SpecBundle:
    sha = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise SpecParseError(f"{label}: {e}") from None
    try:
        return _build_bundle(data, label, sha)
    except ValidationError as e:
        if not e.field:  # the parser's own numerical refusals name their field in the message
            raise
        head, *steps = e.field  # the spec path: ("channels", 0, "outputs", 1) is channels[0].outputs[1]
        if len(e.field) == 2 and head == "channels" and data["channels"][steps[0]]["kind"] == "kraus":
            steps.append("operators")  # the process refuses a kraus step for its operators
        path = {"rho0": "initial_state"}.get(head, head) + "".join(
            f"[{s}]" if isinstance(s, int) else f".{s}" for s in steps)
        raise ValidationError(f"{path}: {e}") from None


def load_spec(path: str) -> SpecBundle:
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise SpecParseError(f"{path}: {e}") from None
    return load_spec_bytes(raw, path)


def _schedule(table: dict, name: str) -> list:
    """Entry ``name`` of ``bundle.schedules``."""
    if name not in table:
        raise SpecParseError(f"schedule {name!r} not found; spec has {sorted(table)}")
    return table[name]


# ---------------------------------------------------------------------------
# result documents


def _base_doc(command: str, bundle: SpecBundle) -> dict:
    return {
        "document": "tkd-result",
        "format_version": 1,
        "command": command,
        "spec": bundle.label,
        "spec_sha256": bundle.sha256,
        "tolerance": bundle.process.tol,
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
            "labels": [o.label for o in ax],
            "values": [float(o.value) for o in ax],
        })
    return out


def _dist_json(q: QuasiDistribution) -> dict:
    return {
        "kind": q.kind,
        "shape": list(q.values.shape),
        "ket_axes": q.ket_axes,
        "axes": _axes_json(q),
        "values": _Flat(q.values),
        "ordering": "row-major over ascending-time axes (lexicographic outcome tuples)",
    }


def _to_file(path: str, fill):
    """Call ``fill`` with a sink that writes to the file ``path``, opened before its
    first piece; a file that cannot be opened or written raises OutputError."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            fill(_Sink(f.write))
    except OSError as e:
        raise OutputError(f"{path}: {e.strerror or e}") from None


def _document(doc: dict, sink: _Sink):
    _write(doc, 0, sink)
    sink.append("\n")
    sink.flush()


def _emit(doc: dict, out: str | None) -> int:
    """Write ``doc`` to the ``out`` file, else to stdout, in pieces of about _PIECE characters."""
    if out:
        _to_file(out, functools.partial(_document, doc))
    else:
        _document(doc, _Sink(sys.stdout.write))
    return 0


def _write_table(q: QuasiDistribution, path: str):
    """Flat delimited export, one outcome tuple per row in C order of the axes,
    latest time first within each block."""
    blocks = [("ket_", range(q.ket_axes)), ("bra_", range(q.ket_axes, len(q.axes)))] \
        if q.ket_axes else [("", range(len(q.axes)))]
    order = [a for _, axes in blocks for a in reversed(axes)]
    cols = [f"{name}t{a - axes.start}" for name, axes in blocks for a in reversed(axes)]
    tuples = itertools.product(*[[str(o.label) for o in ax] for ax in q.axes])
    cells = map("\t".join, map(operator.itemgetter(*order), tuples)) if len(order) > 1 \
        else itertools.chain.from_iterable(tuples)

    def fill(sink: _Sink):
        sink.append("\t".join(cols + ["re", "im"]) + "\n")
        for piece in _pieces(q.values, _BLOCK // 2):
            text = _floats(piece)
            # the labels come last, so map stops at the block's end without taking a row's labels
            sink.add("".join(map("{2}\t{0}\t{1}\n".format, text[::2], text[1::2], cells)))
        sink.flush()

    _to_file(path, fill)


def _named(table: dict, args) -> list:
    """The --schedule entry of ``table``, then for --kind doubled the --bra-schedule one."""
    bra = [args.bra_schedule or args.schedule] if args.kind == "doubled" else []
    return [_schedule(table, name) for name in [args.schedule] + bra]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(bundle: SpecBundle, args) -> dict:
    rho = bundle.process.rho0
    eigs = np.linalg.eigvalsh((rho + dagger(rho)) / 2)
    return {
        "initial_state": {
            "dim": rho.shape[0],
            "trace_defect": float(abs(np.trace(rho) - 1.0)),
            "hermiticity_defect": float(max_abs(rho - dagger(rho))),
            "min_eigenvalue": float(eigs[0]),
        },
        "channels": [{
            "index": i,
            "kraus_count": len(c.kraus),
            "d_in": c.d_in,
            "d_out": c.d_out,
            "cptp_defect": float(validate_cptp(c, bundle.process.tol).defect),
        } for i, c in enumerate(bundle.process.channels)],
        "schedules": {
            name: [{
                "time": k,
                "outcomes": len(m.outcomes),
                "completeness_defect": float(max_abs(
                    sum(o.projector for o in m.outcomes) - np.eye(m.dim))),
            } for k, m in enumerate(ms)]
            for name, ms in bundle.schedules.items()
        },
    }


def _requested_dist(bundle: SpecBundle, args) -> QuasiDistribution:
    """The --kind distribution of the named schedules, refused before any
    sweep if its Π m_k entries (both schedules for doubled) cannot fit."""
    scheds = _named(bundle.schedules, args)
    entries = math.prod(len(m.outcomes) for s in scheds for m in s)
    _size_guard(f"{args.command} --kind {args.kind}", entries, _BYTES_PER_ENTRY[args.command],
                "distribution entries")
    return _DIST_BUILDERS[args.kind](bundle.process, *scheds)


def _cmd_dist(bundle: SpecBundle, args) -> dict:
    q = _requested_dist(bundle, args)
    if args.table:
        _write_table(q, args.table)
    return {
        "distribution": _dist_json(q),
        "diagnostics": {
            "total": _c2(q.total()),
            "normalization_defect": float(abs(q.total() - 1.0)),
            "nonclassicality_linear": nonclassicality(q),
        },
    }


def _cmd_nonclassicality(bundle: SpecBundle, args) -> dict:
    q = _requested_dist(bundle, args)
    return {"kind": q.kind, "variant": args.variant,
            "value": float(nonclassicality(q, args.variant))}


def _cmd_witness(bundle: SpecBundle, args) -> dict:
    s, d = _schedule(bundle.schedules, args.schedule), bundle.process.dims[0]
    entries = math.prod(len(m.outcomes) for m in s) * d * d
    _size_guard("witness", entries, _BYTES_PER_ENTRY["witness"], "commutator matrix entries")
    rep = classicality_witness(bundle.process, s)
    worst = None
    if rep.worst_pair is not None:
        (ta, la), (tb, lb) = rep.worst_pair
        worst = {
            "a": {"times": list(ta), "labels": list(la)},
            "b": {"times": list(tb), "labels": list(lb)},
        }
    return {"nonclassicality": float(rep.nonclassicality),
            "max_commutator_norm": float(rep.max_commutator_norm), "worst_pair": worst}


def _cmd_state(bundle: SpecBundle, args) -> dict:
    p = bundle.process
    side = math.prod(p.dims) ** (2 if args.kind == "doubled" else 1)
    _size_guard(f"state --kind {args.kind}", side * side, _BYTES_PER_ENTRY["state"],
                f"matrix entries ({side}x{side})")
    y = _STATE_BUILDERS[args.kind](p)
    eigs = y.eigenvalues()
    return {"state": {
        "kind": y.kind,
        "dims": list(y.dims),
        "factor_order": "latest time first" + (", ket block then bra block" if y.doubled else ""),
        "matrix": y.matrix,
        "trace": _c2(np.trace(y.matrix)),
        "hermiticity_defect": float(max_abs(y.matrix - dagger(y.matrix))),
        "eigenvalues": eigs.astype(np.complex128),
        "min_real_eigenvalue": float(np.min(np.asarray(eigs).real)),
    }}


def _parse_points(text: str, width: int) -> list[tuple[float, ...]]:
    pts = []
    for i, chunk in enumerate(x for x in text.split(";") if x.strip()):
        try:
            pt = tuple(float(v) for v in chunk.split(","))
        except ValueError:
            raise SpecParseError(f"points[{i}]: {chunk!r} is not a comma-separated tuple")
        if len(pt) != width:
            raise SpecParseError(f"points[{i}]: needs {width} phases, got {len(pt)}")
        if not all(math.isfinite(v) for v in pt):
            raise SpecParseError(f"points[{i}]: phases must be finite, got {chunk!r}")
        pts.append(pt)
    if not pts:
        raise SpecParseError("points: empty")
    return pts


def _char_setup(bundle: SpecBundle, args):
    """The kind's ObservableSchedule and the named schedules it inserts as given, one per side
    (ket first): phase widths, inversion spectra and round-trip reference come from these."""
    named = _named(bundle.schedules, args)
    obs = ObservableSchedule(ket=None if args.kind == "right" else named[0],
                             bra=None if args.kind == "left" else named[-1], tol=bundle.process.tol)
    return obs, named


def _cmd_charfn(bundle: SpecBundle, args) -> dict:
    obs, sides = _char_setup(bundle, args)
    spectra = [[o.value for o in m.outcomes] for ms in sides for m in ms]
    if args.points:
        grid = _parse_points(args.points, len(spectra))
        source, points = "explicit", len(grid)
    else:
        nodes = [default_nodes(sp) for sp in spectra]
        source, points = "default", math.prod(map(len, nodes))
    _size_guard(f"charfn --kind {args.kind}", points, _BYTES_PER_ENTRY["charfn"], f"{source} grid points")
    if source == "default":
        grid = product_grid(nodes)
    samples = char_fn(bundle.process, obs, grid, kind=args.kind)
    ch = {"kind": samples.kind, "grid": samples.grid, "grid_source": source,
          "values": samples.values}
    if source == "default":
        q = invert_char(samples, spectra)
        direct = _DIST_BUILDERS[args.kind](bundle.process, *sides)
        # invert_char gives one entry per distinct value, ascending: sum the direct one alike
        inverse = [np.searchsorted(sorted(set(sp)), sp) for sp in spectra]
        by_value = np.zeros(q.values.shape, dtype=np.complex128)
        np.add.at(by_value, np.ix_(*inverse), direct.values)
        ch["inversion_round_trip_defect"] = float(np.max(np.abs(q.values - by_value)))
    return {"characteristic": ch}


def _cmd_circuit_sim(bundle: SpecBundle, args) -> dict:
    obs, sides = _char_setup(bundle, args)
    points = _parse_points(args.point, sum(map(len, sides)))
    if len(points) > 1:
        raise SpecParseError(f"point: one phase tuple expected, got {len(points)}")
    point = points[0]
    seed = args.seed if args.seed is not None else bundle.seed
    res = circuit_sim(bundle.process, obs, point, kind=args.kind,
                      shots=args.shots, seed=seed)
    ref = char_fn(bundle.process, obs, [point], kind=args.kind).values[0]
    circuit = {
        "kind": res.kind,
        "point": res.point,
        "exact": _c2(res.exact),
        "direct_formula": _c2(ref),
        "circuit_defect": float(abs(res.exact - ref)),
        "metadata": res.metadata,
        "shots": res.shots,
        "seed": seed,
    }
    if res.estimate is not None:
        circuit.update(estimate=_c2(res.estimate), std_error=res.std_error,
                       deviation=res.deviation)
    return {"circuit": circuit}


# ---------------------------------------------------------------------------
# demos


def _load_demo(name: str) -> SpecBundle:
    res = importlib.resources.files("tkd") / "demos" / (name.replace("-", "_") + ".json")
    return load_spec_bytes(res.read_bytes(), f"demo:{name}")


# each demo's closed-form kd_right table (row-major [re, im] entries) and nonclassicality;
# measure-replace's extended KD is the xy-qubit table
_XY_TABLE = [[0.25, 0.25], [0.25, -0.25], [0.25, -0.25], [0.25, 0.25]]
_REFERENCES = {
    "xy-qubit": {"table": _XY_TABLE, "nonclassicality": math.sqrt(2) - 1},
    "replacement": {"table": [[0.25, 0.0]] * 4, "nonclassicality": 0.0},
    "measure-replace": {"table": [[0.25, -0.25], [0.25, 0.25], [0.25, 0.25], [0.25, -0.25]],
                        "extended_table": _XY_TABLE, "nonclassicality": math.sqrt(2) - 1},
}


def _table_dev(q: QuasiDistribution, ref: list) -> float:
    flat = q.values.reshape(-1)
    return float(max(abs(z - complex(a, b)) for z, (a, b) in zip(flat, ref)))


def _cmd_demo(bundle: SpecBundle, args) -> dict:
    p, s, ref = bundle.process, bundle.schedules["default"], _REFERENCES[args.name]
    q = kd_right(p, s)
    doc = {"demo": args.name, "distribution": _dist_json(q), "nonclassicality": nonclassicality(q),
           "reference": ref, "max_table_deviation": _table_dev(q, ref["table"])}

    if args.name == "xy-qubit":
        doc["nonclassicality_deviation"] = abs(doc["nonclassicality"] - ref["nonclassicality"])
    elif args.name == "replacement":
        p0 = np.array([np.trace(p.rho0 @ o.projector) for o in s[0].outcomes])
        omega = p.state_at(1)
        p1 = np.array([np.trace(omega @ o.projector) for o in s[1].outcomes])
        doc["marginal_t0"] = [float(x) for x in p0.real]
        doc["marginal_t1"] = [float(x) for x in p1.real]
        doc["factorization_defect"] = float(np.max(np.abs(q.values - np.real(np.outer(p0, p1)))))
    else:  # measure-replace
        inst, outputs = bundle.instruments["channels[0]"]
        ext = extended_kd(p.rho0, s[0], inst)
        # align: match each t1 outcome's projector to the branch output it selects
        perm = []
        for o in s[1].outcomes:
            hits = [k for k, w in enumerate(outputs) if max_abs(w - o.projector) <= p.tol]
            if len(hits) != 1:
                raise ValidationError("demo outputs do not match the t1 projectors one-to-one")
            perm.append(hits[0])
        doc["extended_kd"] = _dist_json(ext)
        doc["extended_nonclassicality"] = nonclassicality(ext)
        doc["equality_gap"] = abs(doc["nonclassicality"] - doc["extended_nonclassicality"])
        doc["table_gap_after_alignment"] = float(np.max(np.abs(q.values - ext.values[:, perm])))
        doc["max_extended_table_deviation"] = _table_dev(ext, ref["extended_table"])
    return doc


# ---------------------------------------------------------------------------
# parser


def _seed_arg(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _shots_arg(text: str) -> int:
    """At least 2 shots, one per readout basis, as `circuit_sim` requires."""
    try:
        if int(text) >= 2:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer of at least 2, got {text!r}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tkd",
                                 description="Temporal quasiprobability toolbox")
    sub = ap.add_subparsers(dest="command", required=True)

    def spec_cmd(name, fn, help, kinds=None):
        """A subcommand on a spec file; ``kinds`` adds --kind, --schedule and --bra-schedule."""
        sp = sub.add_parser(name, help=help)
        sp.add_argument("spec", help="process specification file (JSON)")
        sp.add_argument("-o", "--out", default=None, help="write the document here instead of stdout")
        if kinds:
            sp.add_argument("--kind", choices=kinds, default="right")
            sp.add_argument("--schedule", default="default")
            sp.add_argument("--bra-schedule", default=None, help="bra side for --kind doubled")
        sp.set_defaults(fn=fn)
        return sp

    spec_cmd("validate", _cmd_validate, "run all structural and numerical checks")

    sp = spec_cmd("dist", _cmd_dist, "evaluate a temporal distribution", _DIST_BUILDERS)
    sp.add_argument("--table", default=None, help="also write a flat delimited table here")

    sp = spec_cmd("nonclassicality", _cmd_nonclassicality, "Σ|Q|-1 or log Σ|Q|", _DIST_BUILDERS)
    sp.add_argument("--variant", choices=("linear", "log"), default="linear")

    sp = spec_cmd("witness", _cmd_witness, "nonclassicality vs back-evolved commutators")
    sp.add_argument("--schedule", default="default")

    sp = spec_cmd("state", _cmd_state, "temporal state operator with eigenvalue summary")
    sp.add_argument("--kind", choices=_STATE_BUILDERS, default="kd-right")

    sp = spec_cmd("charfn", _cmd_charfn, "characteristic function samples", CHAR_KINDS)
    sp.add_argument("--points", default=None,
                    help="semicolon-separated comma tuples; default: inversion grid")

    sp = spec_cmd("circuit-sim", _cmd_circuit_sim, "ancilla interferometer at one point", CHAR_KINDS)
    sp.add_argument("--point", required=True, help="comma-separated phases")
    sp.add_argument("--shots", type=_shots_arg, default=None)
    sp.add_argument("--seed", type=_seed_arg, default=None)

    sp = sub.add_parser("demo", help="run a bundled worked example")
    sp.add_argument("name", choices=sorted(_REFERENCES))
    sp.add_argument("-o", "--out", default=None)
    sp.set_defaults(fn=_cmd_demo)

    return ap


def run_command(argv) -> int:
    """Run one ``tkd`` command line: each ``_cmd_*`` adds its entries to the
    `_base_doc` header of the loaded spec or demo. Returns the exit code."""
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as e:
        return int(e.code or 0)
    try:
        bundle = _load_demo(args.name) if args.command == "demo" else load_spec(args.spec)
        doc = _base_doc(args.command, bundle)
        doc.update(args.fn(bundle, args))
        return _emit(doc, args.out)
    except SpecParseError as e:
        print(f"tkd: spec error: {e}", file=sys.stderr)
        return 3
    except SizeLimitError as e:
        print(f"tkd: refused: {e}", file=sys.stderr)
        return 3
    except OutputError as e:
        print(f"tkd: cannot write output: {e}", file=sys.stderr)
        return 2
    except ValidationError as e:
        print(f"tkd: validation error: {e}", file=sys.stderr)
        return 4


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

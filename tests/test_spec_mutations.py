"""Seeded spec-mutation property test of the CLI's refusal contract.

Each case takes one of three valid specs, replaces one random JSON node with
one of 21 values (or deletes it, in a quarter of the cases), and runs
``validate``, ``dist --kind doubled``, ``witness``, ``charfn`` and ``state
--kind pdo`` on the result through ``run_command``. Every run must exit 0, 3
or 4 without raising or warning; a refusal writes one ``tkd: `` line to
stderr, and that line names a field of the mutated spec (present, or missing
from an object that is present) unless it is one of a few refusals of the
request itself.
"""

from __future__ import annotations

import copy
import json
import random
import re
import sys
import warnings
from importlib.resources import files
from pathlib import Path

import pytest  # type: ignore

from tkd.cli import TOLERANCE_ENV, run_command

DATA = Path(__file__).parent / "data"
SPECS = {
    "five_channel_kinds": json.loads((DATA / "five_channel_kinds.json").read_text()),
    "qubit_two_times": json.loads((DATA / "qubit_two_times.json").read_text()),
    "measure_replace": json.loads((files("tkd") / "demos" / "measure_replace.json").read_text()),
}
COMMANDS = [["validate"], ["dist", "--kind", "doubled"], ["witness"], ["charfn"], ["state", "--kind", "pdo"]]
MATRIX_1x1 = [[[1, 0]]]
MATRIX_2x2 = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
VALUES = [None, 0, -1, 1, 2, 1.5, -0.0, 1e308, 10**30, "x", "", [], {}, True, False,
          [1, 2], {"a": 1}, [[]], [[1]], MATRIX_1x1, MATRIX_2x2]
DELETE = object()
CASES = 400  # mutated specs per seed, each run by every command (about 3 s a seed)
# refusals of the request rather than of one spec field
REQUEST_LEVEL = (
    "tkd: spec error: spec root must be an object",
    "tkd: spec error: schedule 'default' not found; spec has ",
    "tkd: validation error: classicality_witness needs square channels",
    "tkd: validation error: characteristic functions need square step dims",
)
LINE = re.compile(r"tkd: (?:spec|validation) error: ([A-Za-z_][\w.\[\]]*): ")
STEP = re.compile(r"\.(\w+)|\[(\d+)\]")


def _nodes(o, path=()):
    """Every node's path (dict keys and list indices) under ``o``, ``o`` itself first."""
    yield path
    if isinstance(o, dict):
        for k, v in o.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(o, list):
        for i, v in enumerate(o):
            yield from _nodes(v, path + (i,))


def _mutated(rng: random.Random):
    name = rng.choice(sorted(SPECS))
    spec = copy.deepcopy(SPECS[name])
    path = rng.choice(list(_nodes(spec)))
    value = DELETE if path and rng.random() < 0.25 else copy.deepcopy(rng.choice(VALUES))
    if not path:
        return value, (name, path, value)
    parent = spec
    for step in path[:-1]:
        parent = parent[step]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return spec, (name, path, value)


def _names_a_field(spec, field: str) -> bool:
    """``field`` (``a.b[0].c``) leads through ``spec`` to a node, or to an
    object that lacks only its last key."""
    head, rest = re.match(r"(\w+)(.*)", field).groups()
    steps = [head] + [int(i) if i else k for k, i in STEP.findall(rest)]
    node = spec
    for n, step in enumerate(steps):
        if isinstance(node, dict) and isinstance(step, str) and step in node \
                or isinstance(node, list) and isinstance(step, int) and step < len(node):
            node = node[step]
        else:
            return n == len(steps) - 1 and isinstance(node, dict) and isinstance(step, str)
    return True


@pytest.mark.parametrize("seed", [0, 1])
def test_every_mutated_spec_exits_0_3_or_4_naming_its_field(tmp_path, capsys, monkeypatch, seed):
    monkeypatch.delenv(TOLERANCE_ENV, raising=False)
    rng = random.Random(seed)
    path = tmp_path / "mutated.json"
    for _ in range(CASES):
        spec, case = _mutated(rng)
        path.write_text(json.dumps(spec))
        for command in COMMANDS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run_command([command[0], str(path)] + command[1:])
            err = capsys.readouterr().err
            assert code in (0, 3, 4), (case, command, code, err)
            if code == 0:
                assert err == "", (case, command, err)
                continue
            assert err.count("\n") == 1 and err.startswith("tkd: "), (case, command, err)
            if err.startswith(REQUEST_LEVEL):
                continue
            m = LINE.match(err)
            assert m and _names_a_field(spec, m.group(1)), (case, command, err)


EXTREMES = [sys.float_info.max, -1e308, int(sys.float_info.max), 5e-324]


def _numeric_leaves(o, path=()):
    """The path of every int or float node under ``o`` (a bool is not numeric here)."""
    if type(o) in (int, float):
        yield path
    elif isinstance(o, (dict, list)):
        for k, v in (o.items() if isinstance(o, dict) else enumerate(o)):
            yield from _numeric_leaves(v, path + (k,))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_extreme_numbers_in_every_numeric_leaf_exit_0_3_or_4_without_a_warning(tmp_path, capsys,
                                                                              monkeypatch, name):
    # the spec parse runs under no errstate: a check that overflows on the largest or the
    # smallest numbers, in any numeric field, would escape here as a RuntimeWarning
    monkeypatch.delenv(TOLERANCE_ENV, raising=False)
    path = tmp_path / "extreme.json"
    for leaf in _numeric_leaves(SPECS[name]):
        for value in EXTREMES:
            spec = copy.deepcopy(SPECS[name])
            parent = spec
            for step in leaf[:-1]:
                parent = parent[step]
            parent[leaf[-1]] = value
            path.write_text(json.dumps(spec))
            for command in (["validate"], ["dist", "--kind", "doubled"]):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = run_command([command[0], str(path)] + command[1:])
                err = capsys.readouterr().err
                case = (leaf, value, command, code, err)
                assert code in (0, 3, 4), case
                assert err == "" if code == 0 else err.count("\n") == 1 and err.startswith("tkd: "), case

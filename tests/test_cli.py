from __future__ import annotations

import hashlib
import json
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest  # type: ignore

import tkd
from tkd.cli import _emit, run_command
from tkd.linops import max_abs

I2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
X = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
Y = [[[0, 0], [0, -1]], [[0, 1], [0, 0]]]
Z = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
ZERO_STATE = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
ONE_STATE = [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]
PLUS = [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]
MINUS = [[[0.5, 0], [-0.5, 0]], [[-0.5, 0], [0.5, 0]]]


MISSING = object()  # a probe_spec value that drops its key


def probe_spec(**extra) -> dict:
    spec = {
        "version": 1,
        "dims": [2, 2],
        "initial_state": ZERO_STATE,
        "channels": [{"kind": "unitary", "u": I2}],
        "schedules": {
            "default": [{"observable": X}, {"observable": Y}],
            "alt": [{"observable": Z}, {"observable": Z}],
        },
        "options": {"seed": 77},
    }
    spec.update(extra)
    return {k: v for k, v in spec.items() if v is not MISSING}


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(probe_spec()))
    return str(path)


def run_json(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_validate_document(spec_file, capsys):
    doc = run_json(capsys, ["validate", spec_file])
    assert doc["document"] == "tkd-result"
    assert doc["command"] == "validate"
    raw = open(spec_file, "rb").read()
    assert doc["spec_sha256"] == hashlib.sha256(raw).hexdigest()
    assert doc["initial_state"]["trace_defect"] < 1e-12
    assert doc["channels"][0]["cptp_defect"] < 1e-12
    for entry in doc["schedules"]["default"]:
        assert entry["completeness_defect"] < 1e-9


def test_dist_closed_form(spec_file, capsys):
    doc = run_json(capsys, ["dist", spec_file])
    d = doc["distribution"]
    assert d["kind"] == "kd_right" and d["shape"] == [2, 2]
    # row-major ascending-time axes, ascending outcome values per axis
    want = [[0.25, 0.25], [0.25, -0.25], [0.25, -0.25], [0.25, 0.25]]
    assert np.allclose(d["values"], want, atol=1e-12)
    assert doc["diagnostics"]["normalization_defect"] < 1e-12
    assert abs(doc["diagnostics"]["nonclassicality_linear"] - (np.sqrt(2) - 1)) < 1e-12


def test_dist_table_export(spec_file, capsys, tmp_path):
    table = tmp_path / "flat.tsv"
    run_json(capsys, ["dist", spec_file, "--table", str(table)])
    lines = table.read_text().strip().split("\n")
    assert lines[0] == "\t".join(["t1", "t0", "re", "im"])
    assert len(lines) == 5
    first = lines[1].split("\t")
    # first row: earliest-tuple (-1, -1), printed latest time first
    assert first[0] == "-1.0" and first[1] == "-1.0"
    assert abs(float(first[2]) - 0.25) < 1e-12
    assert abs(float(first[3]) - 0.25) < 1e-12


@pytest.mark.parametrize("kind, n_times", [("right", 1), ("mh", 3), ("doubled", 2), ("right", 11)],
                         ids=["one axis", "mh", "doubled", "two blocks of rows"])
def test_table_rows_follow_the_outcome_tuples(tmp_path, capsys, kind, n_times):
    table = tmp_path / "flat.tsv"
    doc = run_json(capsys, ["dist", _chain_spec(tmp_path, n_times, d=2), "--kind", kind,
                            "--table", str(table)])["distribution"]
    axes, ket = doc["axes"], doc["ket_axes"]
    order = [a for block in ([range(ket), range(ket, len(axes))] if ket else [range(len(axes))])
             for a in reversed(block)]
    values = iter(doc["values"])
    rows = []
    for idx in np.ndindex(*doc["shape"]):  # one row per outcome tuple, in C order
        re, im = next(values)
        rows.append("\t".join([str(axes[a]["labels"][idx[a]]) for a in order] + [repr(re), repr(im)]))
    assert table.read_text().split("\n")[1:] == rows + [""]


def test_dist_doubled_and_lvn(spec_file, capsys):
    doc = run_json(capsys, ["dist", spec_file, "--kind", "doubled",
                            "--bra-schedule", "alt"])
    d = doc["distribution"]
    assert d["kind"] == "kd_doubled"
    assert d["shape"] == [2, 2, 2, 2] and d["ket_axes"] == 2
    blocks = [ax["block"] for ax in d["axes"]]
    assert blocks == ["ket", "ket", "bra", "bra"]
    doc = run_json(capsys, ["dist", spec_file, "--kind", "lvn"])
    vals = np.array(doc["distribution"]["values"])
    assert np.max(np.abs(vals[:, 1])) < 1e-12
    assert vals[:, 0].min() > -1e-12


def test_nonclassicality_log(spec_file, capsys):
    doc = run_json(capsys, ["nonclassicality", spec_file, "--variant", "log"])
    assert abs(doc["value"] - 0.5 * np.log(2.0)) < 1e-12
    assert doc["variant"] == "log"


def test_witness_document(spec_file, capsys):
    doc = run_json(capsys, ["witness", spec_file])
    assert abs(doc["nonclassicality"] - (np.sqrt(2) - 1)) < 1e-12
    assert abs(doc["max_commutator_norm"] - 0.5) < 1e-12
    pair = doc["worst_pair"]
    assert set(pair) == {"a", "b"}
    assert pair["a"]["times"] and pair["b"]["times"]


def test_state_documents(spec_file, capsys):
    doc = run_json(capsys, ["state", spec_file, "--kind", "pdo"])
    st = doc["state"]
    assert st["kind"] == "pdo" and st["dims"] == [2, 2]
    assert st["hermiticity_defect"] < 1e-12
    assert abs(st["trace"][0] - 1.0) < 1e-10 and abs(st["trace"][1]) < 1e-12
    assert len(st["eigenvalues"]) == 4
    doc = run_json(capsys, ["state", spec_file, "--kind", "doubled"])
    assert doc["state"]["kind"] == "kd_doubled"
    assert len(doc["state"]["matrix"]) == 16


def _pairs(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _nearest_gap(a, b) -> float:
    """Largest distance from a point of either multiset to its nearest point in the other."""
    gaps = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    return float(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))


def test_doubled_state_document_matches_tomography(tmp_path, capsys):
    p = tkd.random_process(2, 2, seed=611, channel_kind="mixed")
    spec = probe_spec(dims=list(p.dims), initial_state=_pairs(p.rho0),
                      channels=[{"kind": "kraus", "operators": [_pairs(k) for k in c.kraus]}
                                for c in p.channels],
                      schedules={"default": [{"observable": o} for o in (X, Y, Z)]})
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(spec))
    st = run_json(capsys, ["state", str(path), "--kind", "doubled"])["state"]
    assert st["kind"] == "kd_doubled" and st["dims"] == [2, 2, 2]
    m = np.asarray(st["matrix"]) @ [1, 1j]
    tomo = tkd.reconstruct_state(tkd.correlators(p, kind="doubled")).matrix
    assert max_abs(m - tomo) <= 1e-12
    assert max_abs(m - tkd.oracle_state(p, "doubled").matrix) <= 1e-10
    # near-tied eigenvalues swap places under np.sort_complex, so compare multisets
    assert _nearest_gap(np.asarray(st["eigenvalues"]) @ [1, 1j], np.linalg.eigvals(tomo)) <= 1e-10


def test_charfn_round_trip(spec_file, capsys):
    doc = run_json(capsys, ["charfn", spec_file])
    ch = doc["characteristic"]
    assert ch["grid_source"] == "default"
    assert ch["inversion_round_trip_defect"] < 1e-8
    assert any(all(x == 0.0 for x in pt) for pt in ch["grid"])
    doc = run_json(capsys, ["charfn", spec_file, "--kind", "left"])
    assert doc["characteristic"]["inversion_round_trip_defect"] < 1e-8
    doc = run_json(capsys, ["charfn", spec_file, "--points", "0.3,0.4;0.0,0.0"])
    ch = doc["characteristic"]
    assert ch["grid_source"] == "explicit"
    assert "inversion_round_trip_defect" not in ch
    assert ch["grid"] == [[0.3, 0.4], [0.0, 0.0]]
    assert np.allclose(ch["values"][1], [1.0, 0.0], atol=1e-12)


# projector schedules whose outcome order differs from the spectral one that
# charfn inserts: values written in descending order, and two equal values
ROUND_TRIP_SCHEDULES = {
    "descending": [{"projectors": [{"matrix": PLUS, "value": 1}, {"matrix": MINUS, "value": -1}]},
                   {"projectors": [{"matrix": ONE_STATE, "value": 2},
                                   {"matrix": ZERO_STATE, "value": 0.5}]}],
    "equal values": [{"projectors": [{"matrix": PLUS, "value": 0, "label": "plus"},
                                     {"matrix": MINUS, "value": 0, "label": "minus"}]},
                     {"observable": Z}],
}


@pytest.mark.parametrize("kind", ["right", "left", "doubled"])
@pytest.mark.parametrize("schedule", sorted(ROUND_TRIP_SCHEDULES))
def test_charfn_round_trip_on_projector_schedules(tmp_path, capsys, schedule, kind):
    path = tmp_path / "projectors.json"
    path.write_text(json.dumps(probe_spec(schedules={"default": ROUND_TRIP_SCHEDULES[schedule]})))
    ch = run_json(capsys, ["charfn", str(path), "--kind", kind])["characteristic"]
    assert ch["inversion_round_trip_defect"] <= 1e-12


def test_circuit_sim_document(spec_file, capsys):
    argv = ["circuit-sim", spec_file, "--point", "0.7,1.3", "--shots", "40000"]
    doc = run_json(capsys, argv)
    c = doc["circuit"]
    assert c["circuit_defect"] < 1e-10
    assert c["seed"] == 77  # falls back to options.seed in the spec
    assert c["shots"] == 40000
    assert c["deviation"] <= 6.0 * c["std_error"]
    # rerun: same seed, byte-identical output
    code = run_command(argv)
    out2 = capsys.readouterr().out
    assert code == 0
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out2


def test_circuit_sim_refuses_a_rectangular_chain(capsys):
    # every other command runs on five_channel_kinds (see its golden documents); the
    # interferometer dilates each step into a unitary on system ⊗ environment, which needs d_in = d_out
    spec = str(Path(__file__).parent / "data" / "five_channel_kinds.json")
    assert run_command(["circuit-sim", spec, "--point", "0,0,0,0,0,0"]) == 4
    assert capsys.readouterr() == ("", "tkd: validation error: stinespring needs a square channel\n")


def test_circuit_sim_at_the_spec_tolerance(tmp_path, capsys):
    # a step trace preserving only to 1e-7, accepted at options.tolerance 1e-6
    k = np.sqrt(1 - 1e-7)
    near_tp = {"kind": "kraus", "operators": [[[[k, 0], [0, 0]], [[0, 0], [k, 0]]]]}
    spec = probe_spec(channels=[near_tp], options={"tolerance": 1e-6})
    path = tmp_path / "near_tp.json"
    path.write_text(json.dumps(spec))
    for kind, point in (("right", "0.7,1.3"), ("left", "0.7,1.3"), ("doubled", "0.7,1.3,0.2,0.9")):
        argv = ["circuit-sim", str(path), "--kind", kind, "--point", point]
        assert run_json(capsys, argv)["circuit"]["circuit_defect"] <= 1e-12


# projectors Hermitian only to 1e-7 (each is idempotent, they are orthogonal
# and sum to the identity exactly), accepted at options.tolerance 1e-6
NEAR_HERMITIAN = [{"projectors": [{"matrix": [[[1, 0], [1e-7, 0]], [[0, 0], [0, 0]]], "value": 1},
                                  {"matrix": [[[0, 0], [-1e-7, 0]], [[0, 0], [1, 0]]], "value": -1}]}] * 2
# the same schedule as observables Hermitian only to 2e-7
NEAR_HERMITIAN_OBSERVABLE = [{"observable": [[[1, 0], [2e-7, 0]], [[0, 0], [-1, 0]]]}] * 2


def _qutrit_projector(k: int, off: float) -> list:
    """diag(e_k) as [re, im] entries, with ``off`` at [2][1]."""
    return [[[float(i == j == k) + (off if (i, j) == (2, 1) else 0.0), 0.0] for j in range(3)]
            for i in range(3)]


# a qutrit spec whose projectors are each Hermitian only to 6e-7, two of them at value 1:
# their sum is off by 1.2e-6, beyond options.tolerance, so χ must insert them as given
NEAR_HERMITIAN_QUTRIT = {
    "dims": [3, 3], "initial_state": [[[1 / 3, 0]] * 3] * 3,
    "channels": [{"kind": "unitary", "u": [[[float(i == j), 0] for j in range(3)] for i in range(3)]}],
    "schedules": {"default": [{"projectors": [
        {"matrix": _qutrit_projector(0, 6e-7), "value": 1, "label": "a"},
        {"matrix": _qutrit_projector(1, 6e-7), "value": 1, "label": "b"},
        {"matrix": _qutrit_projector(2, -6e-7), "value": 2, "label": "c"}]}] * 2}}
TOLERANCE_COMMANDS = {"validate": ["validate"], "dist": ["dist"], "charfn": ["charfn"],
                      "charfn left": ["charfn", "--kind", "left"],
                      "charfn doubled": ["charfn", "--kind", "doubled"],
                      "circuit-sim": ["circuit-sim", "--point", "0.7,1.3"]}


@pytest.mark.parametrize("argv, spec", [
    pytest.param(argv, spec, id=name + suffix)
    for suffix, spec in (("", {"schedules": {"default": NEAR_HERMITIAN}}),
                         (" observable", {"schedules": {"default": NEAR_HERMITIAN_OBSERVABLE}}),
                         (" qutrit", NEAR_HERMITIAN_QUTRIT))
    for name, argv in TOLERANCE_COMMANDS.items()])
def test_every_command_evaluates_at_the_spec_tolerance(tmp_path, capsys, argv, spec):
    path = tmp_path / "near_hermitian.json"
    path.write_text(json.dumps(probe_spec(**spec, options={"tolerance": 1e-6})))
    doc = run_json(capsys, [argv[0], str(path)] + argv[1:])
    assert doc["tolerance"] == 1e-6
    if argv[0] == "charfn":
        assert doc["characteristic"]["inversion_round_trip_defect"] <= 1e-12


SPLIT = np.diag([1.0, 1.0 + 5e-7])  # two eigenvalues 5e-7 apart: one outcome at 1e-6, two at 1e-9


def _validated_outcomes(tmp_path, capsys, tol) -> int:
    entry = {"observable": [[[float(x), 0.0] for x in row] for row in SPLIT.real]}
    path = tmp_path / "split.json"
    path.write_text(json.dumps(probe_spec(schedules={"split": [entry] * 2}, options={"tolerance": tol})))
    counts = {t["outcomes"] for t in run_json(capsys, ["validate", str(path)])["schedules"]["split"]}
    assert len(counts) == 1
    return counts.pop()


@pytest.mark.parametrize("tol, outcomes", [(1e-6, 1), (1e-9, 2)])
@pytest.mark.parametrize("entry", ["spectral_measurement", "ObservableSchedule", "tkd validate"])
def test_entry_points_merge_eigenvalues_at_the_one_tolerance(tmp_path, capsys, entry, tol, outcomes):
    count = {
        "spectral_measurement": lambda: len(tkd.spectral_measurement(SPLIT, tol).outcomes),
        "ObservableSchedule": lambda: len(tkd.ObservableSchedule(bra=(SPLIT,), tol=tol).bra[0].outcomes),
        "tkd validate": lambda: _validated_outcomes(tmp_path, capsys, tol),
    }[entry]()
    assert count == outcomes


@pytest.mark.parametrize("kind, point", [("right", "0.7,1.3"), ("left", "0.7,1.3"),
                                         ("doubled", "0.7,1.3,0.2,0.9")])
def test_circuit_sim_inserts_the_projectors_as_given(tmp_path, capsys, kind, point):
    # the bra-side gate enters through its adjoint: it must hold Π_b, not Π_b†,
    # or the interferometer departs from χ by the projectors' non-Hermitian part
    path = tmp_path / "near_hermitian.json"
    path.write_text(json.dumps(probe_spec(**NEAR_HERMITIAN_QUTRIT, options={"tolerance": 1e-6})))
    argv = ["circuit-sim", str(path), "--kind", kind, "--point", point]
    assert run_json(capsys, argv)["circuit"]["circuit_defect"] <= 1e-12


@pytest.mark.parametrize("command", sorted(TOLERANCE_COMMANDS))
def test_observable_beyond_the_spec_tolerance_names_its_field(tmp_path, capsys, command):
    far = [{"observable": Z}, {"observable": [[[1, 0], [1e-5, 0]], [[0, 0], [-1, 0]]]}]
    path = tmp_path / "far.json"
    path.write_text(json.dumps(probe_spec(schedules={"default": far}, options={"tolerance": 1e-6})))
    argv = TOLERANCE_COMMANDS[command]
    assert run_command([argv[0], str(path)] + argv[1:]) == 4
    assert "schedules.default[1].observable: not Hermitian within 1e-06" in capsys.readouterr().err


@pytest.mark.parametrize("observable", [
    [[[1e308, 0], [0, 0]], [[0, 0], [-1, 0]]],
    [[[1, 0], [1e308, 0]], [[-1e308, 0], [-1, 0]]],
    [[[1, 0], [0, -1e308]], [[0, -1e308], [-1, 0]]],
], ids=["diagonal", "real off-diagonal", "imaginary off-diagonal"])
def test_observable_that_overflows_names_its_field(tmp_path, capsys, observable):
    # (h + h†)/2 or h − h† would overflow: one refusal naming the field, and no numpy warning
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(probe_spec(schedules={"default": [{"observable": Z},
                                                                 {"observable": observable}]})))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_command(["validate", str(path)]) == 4
    assert not caught
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("tkd: validation error: schedules.default[1].observable: ")
    assert "overflows" in err[0]


HUGE_DIAGONAL = [[[1, 1e308], [0, 0]], [[0, 0], [0, 0]]]  # imaginary: h − h† overflows


@pytest.mark.parametrize("extra, message", [
    ({"initial_state": HUGE_DIAGONAL}, "initial_state: state is not Hermitian within tol"),
    ({"channels": [{"kind": "kraus", "operators": [[[[1e308, 0], [0, 0]], [[0, 0], [1, 0]]]]}]},
     "channels[0].operators: channel 0 is not trace preserving, defect inf"),
    ({"channels": [{"kind": "unitary", "u": [[[1e308, 0], [0, 0]], [[0, 0], [1, 0]]]}]},
     "channels[0].u: build_channel: u is not unitary within tol"),
    ({"channels": [{"kind": "replacement", "omega": HUGE_DIAGONAL}]},
     "channels[0].omega: state is not Hermitian within tol"),
    ({"schedules": {"default": [{"projectors": [{"matrix": [[[1e308, 0], [0, 0]], [[0, 0], [0, 0]]]},
                                                {"matrix": ONE_STATE}]}, {"observable": Y}]}},
     "schedules.default[0].projectors: outcome 0.0: not a Hermitian projector"),
    ({"schedules": {"default": [{"projectors": [{"matrix": ZERO_STATE, "value": 1e308},
                                                {"matrix": ONE_STATE}]}, {"observable": Y}]}},
     "schedules.default[0].projectors: an entry exceeds 8.988466e+307 in its real or imaginary part, "
     "so (h + h†)/2 overflows"),
], ids=["initial_state", "kraus", "unitary", "omega", "projector matrix", "projector value"])
def test_entry_that_overflows_a_check_is_refused_without_a_warning(tmp_path, capsys, extra, message):
    # the defect overflows to inf or NaN, which the check refuses; numpy's warning stays silent
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(probe_spec(**extra)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_command(["validate", str(path)]) == 4
    assert capsys.readouterr().err == f"tkd: validation error: {message}\n"


FLOAT_MAX = sys.float_info.max


@pytest.mark.parametrize("entry", [FLOAT_MAX, -FLOAT_MAX, int(FLOAT_MAX)], ids=["float", "negative", "int"])
@pytest.mark.parametrize("field, message", [
    ("initial_state", "initial_state: state trace differs from 1"),
    ("u", "channels[0].u: build_channel: u is not unitary within tol"),
])
def test_an_entry_at_the_float_maximum_is_read_then_refused_by_its_check(tmp_path, capsys, monkeypatch,
                                                                        entry, field, message):
    # the one conversion takes entries below the float maximum only: one of exactly ±max is
    # read by the walk, entry by entry, and the numerical check of its field refuses it
    walked = []
    walk = tkd.cli._walk_matrix
    monkeypatch.setattr(tkd.cli, "_walk_matrix", lambda obj, where: walked.append(walk(obj, where)) or walked[-1])
    matrix = [[[entry, 0], [0, 0]], [[0, 0], [0, 0]]]
    extra = {"initial_state": matrix} if field == "initial_state" else \
        {"channels": [{"kind": "unitary", "u": matrix}]}
    path = tmp_path / "max.json"
    path.write_text(json.dumps(probe_spec(**extra)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_command(["validate", str(path)]) == 4
    assert capsys.readouterr().err == f"tkd: validation error: {message}\n"
    assert [w[0, 0] for w in walked] == [float(entry)]


def test_observable_at_half_the_float_range_is_accepted(tmp_path, capsys):
    half_max = sys.float_info.max / 2  # h ± h† stays finite for entry parts up to it
    edge = [[[half_max, 0], [0, 0]], [[0, 0], [-half_max, 0]]]
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(probe_spec(schedules={"default": [{"observable": edge}] * 2})))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        doc = run_json(capsys, ["validate", str(path)])
    assert not caught and doc["command"] == "validate"


def test_output_file_option(spec_file, capsys, tmp_path):
    out = tmp_path / "doc.json"
    code = run_command(["validate", spec_file, "-o", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["command"] == "validate"


@pytest.mark.parametrize("argv", [["dist", "SPEC", "--table"], ["demo", "xy-qubit", "-o"]],
                         ids=["--table", "-o"])
@pytest.mark.parametrize("target", ["missing dir", "a directory"])
def test_unwritable_output_exits_2(spec_file, capsys, tmp_path, argv, target):
    path = tmp_path / "missing" / "out.json" if target == "missing dir" else tmp_path
    argv = [spec_file if a == "SPEC" else a for a in argv] + [str(path)]
    assert run_command(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"tkd: cannot write output: {path}: ") and err.count("\n") == 1


def test_demo_xy(capsys):
    doc = run_json(capsys, ["demo", "xy-qubit"])
    assert doc["max_table_deviation"] < 1e-12
    assert doc["nonclassicality_deviation"] < 1e-12
    code = run_command(["demo", "xy-qubit"])
    out2 = capsys.readouterr().out
    assert code == 0
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out2


def test_demo_replacement(capsys):
    doc = run_json(capsys, ["demo", "replacement"])
    assert doc["factorization_defect"] < 1e-12
    assert doc["max_table_deviation"] < 1e-12
    assert abs(doc["nonclassicality"]) < 1e-12


def test_demo_measure_replace(capsys):
    doc = run_json(capsys, ["demo", "measure-replace"])
    assert doc["max_table_deviation"] < 1e-12
    assert doc["max_extended_table_deviation"] < 1e-12
    assert doc["equality_gap"] < 1e-12
    assert doc["table_gap_after_alignment"] < 1e-12
    assert abs(doc["nonclassicality"] - 0.41421356237309515) < 1e-12


def test_exit_code_usage(capsys):
    assert run_command(["no-such-command"]) == 2
    capsys.readouterr()


def test_exit_code_parse(tmp_path, capsys):
    assert run_command(["validate", str(tmp_path / "missing.json")]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_command(["validate", str(bad)]) == 3
    v2 = tmp_path / "v2.json"
    v2.write_text(json.dumps(probe_spec(version=2)))
    assert run_command(["validate", str(v2)]) == 3
    # unknown schedule name is a spec-level error
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(probe_spec()))
    assert run_command(["dist", str(ok), "--schedule", "nope"]) == 3
    capsys.readouterr()


T3 = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]
QUTRIT_ZERO = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]
FROM_QUTRIT = [[[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]  # |1><2|, 2x3
TO_QUTRIT = [[[0, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]]]  # |1><1|, 3x2


def measure_replace(**fields) -> dict:
    """probe_spec fields whose one step measures Z and prepares the outcome's state."""
    channel = {"kind": "measure_replace", "outputs": [ZERO_STATE, ONE_STATE],
               "instrument": [{"label": 0, "operators": [ZERO_STATE]},
                              {"label": 1, "operators": [ONE_STATE]}]}
    channel.update(fields)
    return {"channels": [{k: v for k, v in channel.items() if v is not MISSING}]}


PROJECTORS_BAD_VALUE = [{"matrix": PLUS, "value": "q"}, {"matrix": MINUS, "value": -1}]
PROJECTORS_LIST_LABEL = [{"matrix": PLUS, "label": [1, 2]}, {"matrix": MINUS}]
PROJECTORS_SAME_LABEL = [{"matrix": PLUS, "label": "x"}, {"matrix": MINUS, "label": "x"}]
MALFORMED_FIELDS = [
    ({"channels": [{"kind": "depolarizing", "p": "abc", "d": 2}]}, "channels[0].p"),
    ({"channels": [{"kind": "depolarizing", "p": 0.1, "d": "x"}]}, "channels[0].d"),
    ({"channels": [{"kind": "replacement", "omega": ZERO_STATE, "d_in": "x"}]},
     "channels[0].d_in"),
    ({"options": {"tolerance": "x"}}, "options.tolerance"),
    ({"options": {"tolerance": -1}}, "options.tolerance: expected a positive number"),
    ({"options": {"tolerance": 0}}, "options.tolerance: expected a positive number, got 0.0"),
    ({"options": {"seed": "abc"}}, "options.seed"),
    ({"options": {"seed": -1}}, "options.seed"),
    ({"dims": ["a"]}, "dims[0]"),
    ({"schedules": {"default": [{"projectors": PROJECTORS_BAD_VALUE}, {"observable": Y}]}},
     "schedules.default[0].projectors[0].value"),
    ({"schedules": {"default": [{"projectors": PROJECTORS_LIST_LABEL}, {"observable": Y}]}},
     "schedules.default[0].projectors[0].label"),
    ({"schedules": {"default": [{"observable": X}, {"projectors": PROJECTORS_SAME_LABEL}]}},
     "schedules.default[1].projectors[1].label"),
    ({"initial_state": [[[True, 0], [0, 0]], [[0, 0], [0, 0]]]}, "initial_state[0][0][0]"),
    ({"initial_state": [[[1, 0], [0, 0]], [[0, 0], [float("nan"), 0]]]},
     "initial_state[1][1][0]"),
    # each entry a single conversion of the matrix would accept, or refuse unnamed
    ({"initial_state": [[[1, 0], [0, 0]], [[0, 0], [0, True]]]},
     "initial_state[1][1][1]: expected a finite number"),
    ({"schedules": {"default": [{"observable": X},
                                {"observable": [[[0, 0], [0, -1]], [[0, 1], [False, 0]]]}]}},
     "schedules.default[1].observable[1][1][0]: expected a finite number, got False"),
    ({"initial_state": [[[1, 0], [0, 0]], [[0, 0], [10**400, 0]]]},
     "initial_state[1][1][0]: expected a finite"),
    ({"initial_state": [[[1, 0], [int(sys.float_info.max) + 1, 0]], [[0, 0], [0, 0]]]},
     "initial_state[0][1][0]: expected a finite number"),
    ({"initial_state": [[[1, 0], [0, 0]], [[0, 0], ["0", 0]]]},
     "initial_state[1][1][0]: expected a finite number, got '0'"),
    ({"initial_state": [[[1, 0], [0, 0]], [[0, 0], [0, 0, 0]]]},
     "initial_state[1][1]: expected a [re, im] pair, got [0, 0, 0]"),
    ({"initial_state": [[[1, 0], [0, 0]], {"a": 1}]}, "spec error: initial_state[1]: expected a row array"),
    ({"channels": [{"kind": "unitary", "u": [[[float("inf"), 0], [0, 0]], [[0, 0], [1, 0]]]}]},
     "channels[0].u[0][0][0]"),
    ({"initial_state": [[[1, 0], [0, 0]]]}, "initial_state: shape (1, 2)"),
    # d and d_in must equal the chain's dimension before anything is built
    ({"channels": [{"kind": "depolarizing", "p": 0.1, "d": -2}]}, "channels[0].d: -2 does not match"),
    ({"channels": [{"kind": "depolarizing", "p": 0.1, "d": 100000}]},
     "channels[0].d: 100000 does not match the chain's dimension 2"),
    ({"channels": [{"kind": "replacement", "omega": ZERO_STATE, "d_in": 0}]},
     "channels[0].d_in: 0 does not match"),
    ({"channels": [{"kind": "kraus", "operators": [I2, T3]}]}, "channels[0].operators[1]: shape (3, 3)"),
    (measure_replace(instrument=[{"label": 0, "operators": 3}]),
     "channels[0].instrument[0].operators: expected a list of matrices"),
    # so must the input dimension of a matrix field that sets the channel's input
    ({"channels": [{"kind": "kraus", "operators": [T3]}]},
     "channels[0].operators: input dimension 3 does not match the chain's dimension 2"),
    ({"channels": [{"kind": "unitary", "u": T3}]},
     "channels[0].u: input dimension 3 does not match the chain's dimension 2"),
    ({"channels": [{"kind": "replacement", "omega": QUTRIT_ZERO}]},
     "channels[0].omega: input dimension 3 does not match the chain's dimension 2"),
    (measure_replace(instrument=[{"label": 0, "operators": [T3]}], outputs=[ZERO_STATE]),
     "channels[0].instrument[0].operators: input dimension 3 does not match"),
    (measure_replace(instrument=[{"label": 0, "operators": [ZERO_STATE]},
                                 {"label": 1, "operators": [FROM_QUTRIT]}]),
     "channels[0].instrument[1].operators: input dimension 3 does not match"),
    (measure_replace(instrument=[{"label": 0, "operators": [ZERO_STATE]},
                                 {"label": 1, "operators": [TO_QUTRIT]}]),
     "channels[0].instrument[1].operators: shape (3, 2) differs from [0]'s (2, 2)"),
    ({"schedules": {"default": [{"projectors": [{"matrix": T3}]}, {"observable": Y}]}},
     "schedules.default[0].projectors[0].matrix: shape (3, 3)"),
    ({"channels": [{"kind": []}]}, "channels[0].kind: unknown channel kind []"),
    # every other refusal of the spec parser
    (["not", "an", "object"], "spec root must be an object"),
    ({"options": []}, "options: expected an object"),
    ({"channels": {}}, "channels: expected a list"),
    ({"dims": 2}, "dims: expected a list of integers"),
    ({"dims": [2, 3]}, "dims: [2, 3] does not match the channel chain"),
    ({"schedules": []}, "schedules: expected an object"),
    ({"initial_state": MISSING}, "initial_state: expected a nested array"),
    ({"initial_state": [[[1, 0], [0, 0]], [[0, 0]]]}, "initial_state[1]: ragged row"),
    ({"initial_state": [[[1, 0], [0, 0]], 5]}, "initial_state[1]: expected a row array"),
    ({"initial_state": [[[1, 0], [0, 0]], [[0, 0], 1]]}, "initial_state[1][1]: expected a [re, im] pair"),
    ({"channels": [3]}, "channels[0]: expected an object with a 'kind'"),
    ({"channels": [{"u": I2}]}, "channels[0]: expected an object"),
    ({"channels": [{"kind": "bogus"}]}, "channels[0].kind: unknown channel kind 'bogus'"),
    ({"channels": [{"kind": "kraus"}]}, "channels[0].operators: required"),
    ({"channels": [{"kind": "kraus", "operators": 3}]}, "channels[0].operators: expected a list"),
    ({"channels": [{"kind": "unitary"}]}, "channels[0].u: required"),
    ({"channels": [{"kind": "unitary", "u": 3}]}, "channels[0].u: expected a nested array"),
    ({"channels": [{"kind": "replacement"}]}, "channels[0].omega: required"),
    ({"channels": [{"kind": "replacement", "omega": 3}]}, "channels[0].omega: expected a nested array"),
    (measure_replace(instrument=MISSING), "channels[0].instrument: required"),
    (measure_replace(instrument=3), "channels[0].instrument: expected a list of branches"),
    (measure_replace(outputs=MISSING), "channels[0].outputs: required"),
    (measure_replace(outputs=3), "channels[0].outputs: expected a list of matrices"),
    (measure_replace(instrument=[3]), "channels[0].instrument[0]: branch needs"),
    (measure_replace(instrument=[{"label": 0}]), "channels[0].instrument[0]: branch needs 'label'"),
    ({"schedules": {"default": [{"observable": X}]}}, "schedules.default: expected 2 entries"),
    ({"schedules": {"default": [3, {"observable": Y}]}}, "schedules.default[0]: expected an object"),
    ({"schedules": {"default": [{}, {"observable": Y}]}},
     "schedules.default[0]: needs 'observable' or 'projectors'"),
    ({"schedules": {"default": [{"observable": T3}, {"observable": Y}]}},
     "schedules.default[0].observable: shape (3, 3)"),
    ({"schedules": {"default": [{"projectors": 3}, {"observable": Y}]}},
     "schedules.default[0].projectors: expected a list"),
    ({"schedules": {"default": [{"projectors": [{}]}, {"observable": Y}]}},
     "schedules.default[0].projectors[0]: needs a 'matrix'"),
]


@pytest.mark.parametrize("extra,field", MALFORMED_FIELDS, ids=[f for _, f in MALFORMED_FIELDS])
def test_malformed_field_exits_3(tmp_path, capsys, extra, field):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(probe_spec(**extra) if isinstance(extra, dict) else extra))
    assert run_command(["validate", str(path)]) == 3
    assert field in capsys.readouterr().err


SHEARED_OBSERVABLE = [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]
MALFORMED_OBSERVABLE = [[[1, 0], [0, 0]], [[0, 0], [True, 0]]]


@pytest.mark.parametrize("entries, code, message", [
    ([{"observable": SHEARED_OBSERVABLE}, {"observable": MALFORMED_OBSERVABLE}], 4,
     "tkd: validation error: schedules.default[0].observable: not Hermitian within 1e-09\n"),
    ([{"observable": MALFORMED_OBSERVABLE}, {"observable": SHEARED_OBSERVABLE}], 3,
     "tkd: spec error: schedules.default[0].observable[1][1][0]: expected a finite number, got True\n"),
    ([{"projectors": [{"matrix": ZERO_STATE}]}, {"observable": MALFORMED_OBSERVABLE}], 4,
     "tkd: validation error: schedules.default[0].projectors: projectors do not sum to the identity\n"),
    ([{"projectors": [{"matrix": ZERO_STATE}]}, {"observable": SHEARED_OBSERVABLE}], 4,
     "tkd: validation error: schedules.default[0].projectors: projectors do not sum to the identity\n"),
    ([{"observable": X}, {"observable": SHEARED_OBSERVABLE}], 4,
     "tkd: validation error: schedules.default[1].observable: not Hermitian within 1e-09\n"),
], ids=["non-Hermitian then malformed", "malformed then non-Hermitian",
        "incomplete projectors then malformed", "incomplete projectors then non-Hermitian",
        "second observable non-Hermitian"])
def test_first_refusal_in_spec_order_is_named(tmp_path, capsys, entries, code, message):
    # the observables are decomposed together once the whole spec is parsed; the refusal
    # named is still the first in spec order, numerical or structural
    path = tmp_path / "two.json"
    path.write_text(json.dumps(probe_spec(schedules={"default": entries})))
    assert run_command(["validate", str(path)]) == code
    assert capsys.readouterr().err == message


QUTRIT_ZERO = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]
SHEARED_QUTRIT = [[[1, 0], [1, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]


@pytest.mark.parametrize("middle, message", [
    ({"projectors": [{"matrix": QUTRIT_ZERO}]},
     "tkd: validation error: schedules.default[1].projectors: projectors do not sum to the identity\n"),
    ({"observable": SHEARED_QUTRIT},
     "tkd: validation error: schedules.default[1].observable: not Hermitian within 1e-09\n"),
], ids=["incomplete qutrit projectors", "non-Hermitian qutrit observable"])
def test_first_refusal_in_spec_order_is_named_across_dimensions(tmp_path, capsys, middle, message):
    # a 2 -> 3 -> 2 chain: the qutrit entry at t1 is refused before the sheared qubit one at t2,
    # though the observables of each dimension are decomposed as a stack of their own
    spec = probe_spec(dims=[2, 3, 2], channels=[{"kind": "replacement", "omega": QUTRIT_ZERO, "d_in": 2},
                                                {"kind": "replacement", "omega": ZERO_STATE, "d_in": 3}],
                      schedules={"default": [{"observable": Z}, middle, {"observable": SHEARED_OBSERVABLE}]})
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(spec))
    assert run_command(["validate", str(path)]) == 4
    assert capsys.readouterr().err == message


def test_exit_code_validation(tmp_path, capsys):
    spec = probe_spec(channels=[{"kind": "kraus",
                                 "operators": [[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]]}])
    path = tmp_path / "nontp.json"
    path.write_text(json.dumps(spec))
    assert run_command(["validate", str(path)]) == 4
    capsys.readouterr()


NEAR_HERMITIAN = [[[0.5, 0], [0.2, 1e-10]], [[0.2, 0], [0.5, 0]]]  # Hermitian within 1e-9
SHEARED = [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]
TWICE_ZERO = [[[2, 0], [0, 0]], [[0, 0], [0, 0]]]
NOT_TP = [[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]]
# a numerical refusal of a spec field exits 4, a structural one 3; each names the field
CHANNEL_REFUSALS = [
    ({"initial_state": TWICE_ZERO}, 4, "initial_state: state trace differs from 1"),
    ({"initial_state": SHEARED}, 4, "initial_state: state is not Hermitian within tol"),
    ({"channels": [{"kind": "kraus", "operators": NOT_TP}]}, 4,
     "channels[0].operators: channel 0 is not trace preserving, defect 7.500e-01"),
    ({"schedules": {"default": [{"projectors": [{"matrix": ZERO_STATE}]}, {"observable": Y}]}}, 4,
     "schedules.default[0].projectors: projectors do not sum to the identity"),
    ({"schedules": {"alt": [{"observable": Z}, {"projectors": [{"matrix": ZERO_STATE}, {"matrix": I2}]}]}},
     4, "schedules.alt[1].projectors: projectors do not sum to the identity"),
    ({"schedules": {"default": [{"projectors": [{"matrix": TWICE_ZERO}, {"matrix": ONE_STATE}]},
                                {"observable": Y}]}}, 4,
     "schedules.default[0].projectors: outcome 0.0: not a Hermitian projector"),
    ({"channels": [{"kind": "unitary", "u": SHEARED}]}, 4,
     "channels[0].u: build_channel: u is not unitary within tol"),
    ({"channels": [{"kind": "replacement", "omega": SHEARED}]}, 4,
     "channels[0].omega: state is not Hermitian within tol"),
    ({"channels": [{"kind": "replacement", "omega": TWICE_ZERO, "d_in": 2}]}, 4,
     "channels[0].omega: state trace differs from 1"),
    (measure_replace(outputs=[ZERO_STATE, TWICE_ZERO]), 4,
     "channels[0].outputs[1]: state trace differs from 1"),
    (measure_replace(instrument=[{"label": 0, "operators": [ZERO_STATE]}], outputs=[ZERO_STATE]), 4,
     "channels[0].instrument: instrument branches sum to a non-TP map, defect 1.000e+00"),
    ({"channels": [{"kind": "depolarizing", "p": 1.5, "d": 2}]}, 4,
     "channels[0].p: depolarizing strength 1.5 outside [0, 1]"),
    (measure_replace(outputs=[ZERO_STATE]), 3,
     "channels[0].outputs: 1 states for 2 instrument branches, one per branch is required"),
    # several process faults: the first in MultiTimeProcess's order is named
    ({"initial_state": TWICE_ZERO, "dims": MISSING, "schedules": {},
      "channels": [{"kind": "unitary", "u": I2}, {"kind": "kraus", "operators": NOT_TP}]}, 4,
     "tkd: validation error: initial_state: state trace differs from 1\n"),
    ({"channels": [{"kind": "kraus", "operators": NOT_TP}, {"kind": "unitary", "u": I2},
                   {"kind": "kraus", "operators": NOT_TP}], "dims": MISSING, "schedules": {}}, 4,
     "tkd: validation error: channels[0].operators: channel 0 is not trace preserving, defect 7.500e-01\n"),
    # several faults of one channel: every malformed field is refused before any numerical check
    ({"channels": [{"kind": "replacement", "omega": TWICE_ZERO, "d_in": 3}]}, 3,
     "tkd: spec error: channels[0].d_in: 3 does not match the chain's dimension 2 at this step\n"),
    ({"channels": [{"kind": "replacement", "omega": [[[2, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]],
                                                     [[0, 0], [0, 0], [0, 0]]]}]}, 3,
     "tkd: spec error: channels[0].omega: input dimension 3 does not match the chain's dimension 2 "
     "at this step\n"),
    (measure_replace(outputs=[TWICE_ZERO]), 3, "tkd: spec error: channels[0].outputs: 1 states for 2 "
     "instrument branches, one per branch is required\n"),
    (measure_replace(instrument=[{"label": 0, "operators": [ZERO_STATE]}], outputs=3), 3,
     "tkd: spec error: channels[0].outputs: expected a list of matrices\n"),
]


@pytest.mark.parametrize("extra,code,message", CHANNEL_REFUSALS, ids=[m for _, _, m in CHANNEL_REFUSALS])
def test_channel_refusal_names_the_field(tmp_path, capsys, extra, code, message):
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(probe_spec(**extra)))
    assert run_command(["validate", str(path)]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("channel", [
    {"kind": "replacement", "omega": NEAR_HERMITIAN},
    measure_replace(outputs=[NEAR_HERMITIAN, ONE_STATE])["channels"][0],
])
def test_near_hermitian_output_state_is_accepted(tmp_path, capsys, channel):
    path = tmp_path / "near.json"
    path.write_text(json.dumps(probe_spec(channels=[channel])))
    doc = run_json(capsys, ["validate", str(path)])
    assert doc["channels"][0]["cptp_defect"] < 1e-15


def _recorded(monkeypatch, name: str, modules) -> list:
    """The first argument of every call of ``name`` that looks it up in one of ``modules``."""
    calls = []

    def recording(check):
        return lambda x, *args, **kwargs: (calls.append(x), check(x, *args, **kwargs))[1]
    for module in modules:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, recording(getattr(module, name)))
    return calls


@pytest.mark.parametrize("refused", [False, True])
def test_each_spec_check_runs_once(tmp_path, monkeypatch, refused):
    if refused:  # a valid replacement, then a step the process refuses
        spec = probe_spec(channels=[{"kind": "replacement", "omega": PLUS},
                                    {"kind": "kraus", "operators": NOT_TP}], dims=MISSING, schedules={})
        states = [spec["channels"][0]["omega"], spec["initial_state"]]
    else:
        spec = json.loads((Path(__file__).parent / "data" / "five_channel_kinds.json").read_text())
        states = [spec["channels"][2]["omega"], *spec["channels"][4]["outputs"], spec["initial_state"]]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    # the density checks of build_channel and MultiTimeProcess, and the process's step checks
    # (an instrument's check of its own total map is another check, and not counted)
    densities = _recorded(monkeypatch, "check_density", (tkd.channels, tkd.quasiprob, tkd.cli))
    steps = _recorded(monkeypatch, "validate_cptp", (tkd.quasiprob, tkd.cli))
    if refused:
        with pytest.raises(tkd.ValidationError, match=r"^channels\[1\]\.operators: channel 1 is not"):
            tkd.cli.load_spec(str(path))
    else:
        assert len(tkd.cli.load_spec(str(path)).process.channels) == 5
    # each output state in spec order, then the initial state; each step in chain order
    assert len(densities) == len(states)
    assert all(np.array_equal(m, np.asarray(want) @ [1, 1j]) for m, want in zip(densities, states))
    assert [c.d_in for c in steps] == ([2, 2] if refused else [2, 2, 2, 3, 3])


@pytest.mark.parametrize("argv", [
    ["charfn"], ["charfn", "--kind", "doubled", "--bra-schedule", "alt"],
    ["circuit-sim", "--point", "0.4,-0.2"],
    ["circuit-sim", "--kind", "doubled", "--bra-schedule", "alt", "--point", "0.4,-0.2,0.9,0.5"],
], ids=["charfn", "charfn doubled", "circuit-sim", "circuit-sim doubled"])
def test_chi_requests_decompose_only_while_the_spec_is_parsed(capsys, monkeypatch, argv):
    path = str(Path(__file__).parent / "data" / "qubit_two_times.json")
    # each call of the one decomposition entry takes a stack of observables: count the observables
    stacks = _recorded(monkeypatch, "_spectral", (tkd.cli, tkd.charfunc, tkd.measurements))
    tkd.cli.load_spec(path)
    assert sum(map(len, stacks)) == 3  # one per observable entry of the spec's two schedules
    run_json(capsys, [argv[0], path] + argv[1:])
    assert sum(map(len, stacks)) == 6  # the request's own parse, and nothing more


def test_tolerance_env_override(tmp_path, capsys, monkeypatch):
    u = [[[1, 0], [1e-6, 0]], [[0, 0], [1, 0]]]
    spec = probe_spec(channels=[{"kind": "unitary", "u": u}])
    spec["options"] = {}
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(spec))
    monkeypatch.delenv("TKD_TOLERANCE", raising=False)
    assert run_command(["validate", str(path)]) == 4
    capsys.readouterr()
    monkeypatch.setenv("TKD_TOLERANCE", "1e-3")
    doc = run_json(capsys, ["validate", str(path)])
    assert doc["tolerance"] == 1e-3
    # explicit spec tolerance beats the environment
    spec["options"] = {"tolerance": 1e-9}
    strict = tmp_path / "strict.json"
    strict.write_text(json.dumps(spec))
    assert run_command(["validate", str(strict)]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("value", ["abc", "-1", "0", "nan"])
def test_tolerance_env_rejected(tmp_path, capsys, monkeypatch, value):
    path = tmp_path / "env.json"
    path.write_text(json.dumps(probe_spec(options={})))
    monkeypatch.setenv("TKD_TOLERANCE", value)
    assert run_command(["validate", str(path)]) == 3
    assert "TKD_TOLERANCE" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [pytest.param("--seed", v, id=v) for v in ("-3", "x", "1.5")]
                         + [pytest.param("--shots", v, id=f"shots={v}") for v in ("0", "1", "-3", "x")])
def test_circuit_sim_seed_flag_rejected(spec_file, capsys, flag, value):
    argv = ["circuit-sim", spec_file, "--point", "0.7,1.3", "--shots", "10", "--seed", "7", flag, value]
    assert run_command(argv) == 2
    assert f"argument {flag}: expected" in capsys.readouterr().err


@pytest.mark.parametrize("command,argument,choices", [
    ("state", "--kind", ["kd-right", "kd-left", "doubled", "mh", "pdo"]),
    ("dist", "--kind", ["right", "left", "doubled", "mh", "lvn"]),
    ("demo", "name", ["measure-replace", "replacement", "xy-qubit"]),
], ids=["state", "dist", "demo"])
def test_unknown_choice_lists_the_choices_in_order(spec_file, capsys, command, argument, choices):
    argv = [command, "bogus"] if command == "demo" else [command, spec_file, "--kind", "bogus"]
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert "{" + ",".join(choices) + "}" in err  # the usage line
    listed = ", ".join(map(repr, choices))
    assert err.endswith(f"tkd {command}: error: argument {argument}: invalid choice: 'bogus' "
                        f"(choose from {listed})\n")


def test_circuit_sim_seed_flag_accepted(spec_file, capsys):
    argv = ["circuit-sim", spec_file, "--point", "0.7,1.3", "--shots", "4000", "--seed", "7"]
    first = run_command(argv)
    out = capsys.readouterr().out
    assert first == 0 and run_command(argv) == 0
    assert capsys.readouterr().out == out
    assert json.loads(out)["circuit"]["seed"] == 7


@pytest.mark.parametrize("points,message", [
    ("0.1,x", "points[0]: '0.1,x' is not a comma-separated tuple"),
    ("0.1,0.2;0.3", "points[1]: needs 2 phases, got 1"),
    (" ; ", "points: empty"),
])
def test_charfn_points_refused(spec_file, capsys, points, message):
    assert run_command(["charfn", spec_file, "--points", points]) == 3
    assert message in capsys.readouterr().err


def test_charfn_points_size_guard_refuses_before_any_sweep(spec_file, capsys, monkeypatch):
    def sweep(*args, **kwargs):
        raise AssertionError("char_fn ran")

    monkeypatch.setattr(tkd.cli, "char_fn", sweep)
    monkeypatch.setattr(tkd.cli, "_physical_memory", lambda: 1 << 20)
    points = ";".join(["0.1,-0.2"] * 2000)  # 2000 points of 1 kB against 1 MiB
    assert run_command(["charfn", spec_file, "--points", points]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("tkd: refused: charfn --kind right: estimated 2000 explicit grid points")


def test_circuit_sim_rejects_several_points(spec_file, capsys):
    argv = ["circuit-sim", spec_file, "--point", "0.7,1.3;0.1,0.2;9,9"]
    assert run_command(argv) == 3
    assert "point" in capsys.readouterr().err
    one = run_json(capsys, ["circuit-sim", spec_file, "--point", "0.7,1.3"])
    assert run_json(capsys, ["circuit-sim", spec_file, "--point", "0.7,1.3;"]) == one
    assert one["circuit"]["point"] == [0.7, 1.3]


@pytest.mark.parametrize("phase", ["nan", "-inf", "1e999"])
@pytest.mark.parametrize("flag", ["--points", "--point"])
def test_non_finite_phase_exits_3(spec_file, capsys, flag, phase):
    command = "charfn" if flag == "--points" else "circuit-sim"
    assert run_command([command, spec_file, f"{flag}={phase},0"]) == 3
    err = capsys.readouterr().err
    assert "points[0]" in err and phase in err


def _as_pairs(o):
    """The document as the stdlib sees it: complex arrays become [re, im] pair lists."""
    if isinstance(o, np.ndarray):
        return (np.stack([o.real, o.imag], axis=-1) if o.dtype == np.complex128 else o).tolist()
    if isinstance(o, dict):
        return {k: _as_pairs(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_as_pairs(x) for x in o]
    return o


def test_emit_matches_stdlib_indent_encoder(capsys):
    special = np.array([complex(1e-300, -1e300), complex(-1.5, -0.0),
                        complex(5e-324, 1e308), complex(-0.0, 0.1), 1 / 3 - 2e-17j])
    doc = {
        "special": special,
        "matrix": np.arange(6, dtype=np.complex128).reshape(2, 3) * (0.1 - 0.7j),
        "cube": special[:4].reshape(2, 1, 2),
        "empty": np.zeros(0, dtype=np.complex128),
        "empty_rows": np.zeros((2, 0), dtype=np.complex128),
        "no_rows": np.zeros((0, 3), dtype=np.complex128),
        "one": np.array([1 + 1j]),
        "strided": special[::2],
        "labels": ["\u00e9t\u00e9", "\U0001f600", 'q"\\\n\t', ""],
        "nested": {"z": {"b": (1, 2.5, (None, "", ())), "a": []}, "y": {}, "x": ()},
        "scalars": [-0.0, 5e-324, 1e308, -1e308, 0.1, 10 ** 20, -3, 0],
        "none": None,
        "keys": {"\u00e9": 1, "": 2, 'q"\\': 3, "B": 4, "a": 5, "10": 6, "9": 7},
    }
    assert _emit(doc, None) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(_as_pairs(doc), indent=2, sort_keys=True) + "\n"
    # a document that is one scalar, written without a container around it
    for scalar in (-0.0, 5e-324, 1e308, 0.1, 10 ** 20, -3, None, "\u00e9t\u00e9 \"q\"", ""):
        assert _emit(scalar, None) == 0
        assert capsys.readouterr().out == json.dumps(scalar, indent=2, sort_keys=True) + "\n"


def _assert_same_text(got: str, want: str):
    """Assert ``got == want``, naming the first line that differs (pytest's own diff of
    documents this long takes minutes)."""
    first = next((i for i, (a, b) in enumerate(zip(got.split("\n"), want.split("\n"))) if a != b), None)
    assert first is None and len(got) == len(want), f"the text differs from line {first}"


def test_emit_streams_arrays_in_blocks_as_the_stdlib_lays_them_out(capsys, tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    n = tkd.cli._BLOCK  # complex entries: two blocks of floats
    flat = rng.normal(size=n) + 1j * rng.normal(size=n)
    flat[[3, n - 1]] = [complex(-0.0, 5e-324), complex(1e308, -0.0)]
    doc = {
        "flat": flat,
        "matrix": flat[:600].reshape(20, 30),
        "wide": np.stack([flat, flat[::-1]]),  # rows of 2·n floats, past one block: arrays of their own
        "cube": flat.reshape(2, 8, n // 16),  # a block is one [i] of 2·n // 2 floats
        "odd": flat[:1500:2].reshape(750, 1),  # strided, blocks of whole rows and a short last one
        "grid": rng.uniform(-np.pi, np.pi, size=(1500, 3)),
        "points": np.array([[0.0, -0.0], [-1e308, 5e-324]]),
        "long": rng.normal(size=3 * n),
        "empty": [np.zeros(0), np.zeros((3, 0), dtype=np.complex128), np.zeros((0, 2))],
        "plain": {"b": [1, 2.5, None], "a": "x"},
    }
    want = json.dumps(_as_pairs(doc), indent=2, sort_keys=True) + "\n"
    writes = []
    monkeypatch.setattr(sys, "stdout", type("Out", (), {"write": lambda self, t: writes.append(t)})())
    assert _emit(doc, None) == 0
    _assert_same_text("".join(writes), want)
    assert len(writes) > 4 and max(map(len, writes)) < 2 * tkd.cli._PIECE  # pieces, not one string
    path = tmp_path / "doc.json"
    assert _emit(doc, str(path)) == 0
    _assert_same_text(path.read_text(), want)


def test_flat_values_render_as_their_reshape_without_a_copy(monkeypatch):
    # a doubled distribution's values are a transposed view: its flat text is rendered from
    # C-order pieces of the view, never from a flat copy of it (0.94 MB here)
    rng = np.random.default_rng(7)
    cube = rng.normal(size=(3,) * 10) + 1j * rng.normal(size=(3,) * 10)
    doubled = cube.transpose(*range(5, 10), *range(5))
    writes = []
    monkeypatch.setattr(sys, "stdout", type("Out", (), {"write": lambda self, t: writes.append(t)})())
    edges = (rng.normal(size=tkd.cli._BLOCK + 1), cube.reshape(-1)[:tkd.cli._BLOCK // 2])  # where a second chunk starts
    for a in (doubled, cube, cube.real.T, doubled[:2, 0, :2], cube[(0,) * 9 + (slice(1),)], np.zeros((2, 0)), *edges):
        writes.clear()
        assert _emit({"values": tkd.cli._Flat(a)}, None) == 0
        want = json.dumps({"values": _as_pairs(a.reshape(-1))}, indent=2, sort_keys=True) + "\n"
        _assert_same_text("".join(writes), want)
    writes.clear()
    monkeypatch.setattr(sys, "stdout", type("Out", (), {"write": lambda self, t: None})())
    tracemalloc.start()
    try:
        _emit({"values": tkd.cli._Flat(doubled)}, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < doubled.nbytes / 2, peak / doubled.nbytes  # the text of a block or two, no copy


def test_emit_rejects_unknown_leaves(capsys):
    # a document holds str keys and exact str, int, float and None scalars: json.dumps would
    # write a bool, an np.float64 or an int key, and the writer refuses each
    for leaf in (np.zeros(2, dtype=np.float32), np.arange(2), np.array(1.0), np.complex128(1.0), {1, 2},
                 True, np.float64(0.1), np.int64(1)):
        for doc in ({"x": leaf}, [leaf], leaf):
            with pytest.raises(TypeError):
                _emit(doc, None)
    for key in (1, 0.5, None, True, (1, 2)):
        with pytest.raises(TypeError):
            _emit({"x": {key: 0}}, None)
    capsys.readouterr()


CANONICAL = [
    *(["state", "--kind", k] for k in ("kd-right", "kd-left", "doubled", "mh", "pdo")),
    ["dist", "--kind", "doubled", "--bra-schedule", "alt"],
    ["charfn"],
    ["charfn", "--kind", "doubled", "--bra-schedule", "alt"],
    ["charfn", "--points", "0.3,0.4;0.0,0.0;-0.0,5e-324"],
    ["witness"],
    ["nonclassicality", "--variant", "log"],
]


@pytest.mark.parametrize("argv", CANONICAL, ids=[" ".join(a) for a in CANONICAL])
def test_documents_are_canonical_indented_json(spec_file, capsys, argv):
    assert run_command([argv[0], spec_file] + argv[1:]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_usage_error_leaves_the_parser_reusable(spec_file, capsys):
    argv = ["dist", spec_file, "--kind", "doubled", "--bra-schedule", "alt"]
    assert run_command(argv) == 0
    before = capsys.readouterr().out
    assert run_command(["dist"]) == 2
    err = capsys.readouterr().err
    assert "the following arguments are required: spec" in err
    assert run_command(["dist"]) == 2
    assert capsys.readouterr().err == err
    assert run_command(argv) == 0
    assert capsys.readouterr().out == before


def _chain_spec(tmp_path, n_times: int, d: int = 3, seed: int = 640) -> str:
    """A seeded spec: a mixed unitary/Kraus chain with one random observable per time."""
    p = tkd.random_process(d, n_times - 1, seed=seed, channel_kind="mixed")
    obs = [{"observable": _pairs(tkd.random_hermitian(d, seed=seed + 1 + k))} for k in range(n_times)]
    spec = probe_spec(dims=list(p.dims), initial_state=_pairs(p.rho0),
                      channels=[{"kind": "kraus", "operators": [_pairs(k) for k in c.kraus]}
                                for c in p.channels],
                      schedules={"default": obs})
    path = tmp_path / f"d{d}_times{n_times}.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _refused_at_once(capsys, argv, seconds: float = 5.0) -> str:
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code = run_command(argv)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 1_000_000
    assert elapsed < seconds
    return capsys.readouterr().err


def test_state_size_guard_refuses_before_allocating(tmp_path, capsys, monkeypatch):
    # the doubled state of d=3 at four times is 6561x6561: about 5 GiB to
    # compute and emit, minutes of allocation on a 4 GiB machine
    monkeypatch.setattr(tkd.cli, "_physical_memory", lambda: 4 << 30)
    err = _refused_at_once(capsys, ["state", _chain_spec(tmp_path, 4), "--kind", "doubled"])
    assert "doubled" in err and "43046721" in err and "5.1 GiB" in err and "4.0 GiB" in err


def test_state_size_guard_reads_the_machine(tmp_path, capsys):
    if tkd.cli._physical_memory() is None:
        pytest.skip("platform reports no physical memory size")
    # d=3 at six times doubled: 729^4 entries, far past any machine
    err = _refused_at_once(capsys, ["state", _chain_spec(tmp_path, 6), "--kind", "doubled"])
    assert "282429536481" in err


def test_state_size_guard_serves_what_fits(tmp_path, capsys, monkeypatch):
    path = _chain_spec(tmp_path, 4)
    need = 81 * 81 * tkd.cli._BYTES_PER_ENTRY["state"]  # kd-right is 81x81
    monkeypatch.setattr(tkd.cli, "_physical_memory", lambda: need)
    assert run_json(capsys, ["state", path, "--kind", "kd-right"])["state"]["dims"] == [3] * 4
    monkeypatch.setattr(tkd.cli, "_physical_memory", lambda: need - 1)
    assert run_command(["state", path, "--kind", "kd-right"]) == 3
    assert "6561" in capsys.readouterr().err
    monkeypatch.setattr(tkd.cli, "_physical_memory", lambda: None)
    assert run_json(capsys, ["state", path, "--kind", "kd-right"])["state"]["dims"] == [3] * 4


@pytest.mark.parametrize("command, gib", [("dist", "8192.0"), ("nonclassicality", "8192.0")])
def test_distribution_size_guard_refuses_before_allocating(tmp_path, capsys, monkeypatch, command, gib):
    # d=4 at nine times doubled: 4^18 entries
    path = _chain_spec(tmp_path, 9, d=4, seed=650)
    monkeypatch.setattr(tkd.cli, "_physical_memory", lambda: 8 << 30)
    err = _refused_at_once(capsys, [command, path, "--kind", "doubled"], seconds=1.0)
    assert f"{command} --kind doubled: estimated 68719476736 distribution entries" in err
    assert f"about {gib} GiB, exceed the 8.0 GiB" in err


@pytest.mark.parametrize("command", ["dist", "nonclassicality"])
def test_distribution_size_guard_serves_what_fits(spec_file, capsys, monkeypatch, command):
    argv = [command, spec_file, "--kind", "doubled", "--bra-schedule", "alt"]
    need = 16 * tkd.cli._BYTES_PER_ENTRY[command]  # 2·2 ket times 2·2 bra outcomes
    monkeypatch.setattr(tkd.cli, "_physical_memory", lambda: need)
    run_json(capsys, argv)
    monkeypatch.setattr(tkd.cli, "_physical_memory", lambda: need - 1)
    assert run_command(argv) == 3
    assert "estimated 16 distribution entries" in capsys.readouterr().err


@pytest.mark.parametrize("command, n_times, extra, message", [
    # d=4 at nine times: the doubled default grid has 4^18 points
    ("charfn", 9, ["--kind", "doubled"],
     "charfn --kind doubled: estimated 68719476736 default grid points, about 65536.0 GiB"),
    # d=4 at thirteen times: 4^13 commutators of 4x4 entries
    ("witness", 13, [], "witness: estimated 1073741824 commutator matrix entries, about 64.0 GiB"),
], ids=["charfn", "witness"])
def test_witness_and_charfn_size_guards_refuse_before_allocating(tmp_path, capsys, monkeypatch,
                                                                  command, n_times, extra, message):
    monkeypatch.setattr(tkd.cli, "_physical_memory", lambda: 8 << 30)
    argv = [command, _chain_spec(tmp_path, n_times, d=4, seed=650)] + extra
    err = _refused_at_once(capsys, argv, seconds=1.0)
    assert message + ", exceed the 8.0 GiB" in err


@pytest.mark.parametrize("command, extra, noun", [
    ("witness", [], "commutator matrix entries"),  # 2·2 outcomes, d² = 4
    ("charfn", ["--kind", "doubled", "--bra-schedule", "alt"], "default grid points"),  # 2^4 nodes
    ("charfn", ["--points", ";".join(["0.1,-0.2"] * 16)], "explicit grid points"),
], ids=["witness", "charfn", "charfn --points"])
def test_witness_and_charfn_size_guards_serve_what_fits(spec_file, capsys, monkeypatch,
                                                        command, extra, noun):
    argv = [command, spec_file] + extra
    need = 16 * tkd.cli._BYTES_PER_ENTRY[command]
    monkeypatch.setattr(tkd.cli, "_physical_memory", lambda: need)
    run_json(capsys, argv)
    monkeypatch.setattr(tkd.cli, "_physical_memory", lambda: need - 1)
    assert run_command(argv) == 3
    assert f"estimated 16 {noun}" in capsys.readouterr().err

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest  # type: ignore

from tkd.cli import run_command

I2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
X = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
Y = [[[0, 0], [0, -1]], [[0, 1], [0, 0]]]
Z = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
ZERO_STATE = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]


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
    return spec


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


def test_output_file_option(spec_file, capsys, tmp_path):
    out = tmp_path / "doc.json"
    code = run_command(["validate", spec_file, "-o", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["command"] == "validate"


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


PROJECTORS_BAD_VALUE = [
    {"matrix": [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]], "value": "q"},
    {"matrix": [[[0.5, 0], [-0.5, 0]], [[-0.5, 0], [0.5, 0]]], "value": -1},
]
MALFORMED_FIELDS = [
    ({"channels": [{"kind": "depolarizing", "p": "abc", "d": 2}]}, "channels[0].p"),
    ({"channels": [{"kind": "depolarizing", "p": 0.1, "d": "x"}]}, "channels[0].d"),
    ({"channels": [{"kind": "replacement", "omega": ZERO_STATE, "d_in": "x"}]},
     "channels[0].d_in"),
    ({"options": {"tolerance": "x"}}, "options.tolerance"),
    ({"options": {"seed": "abc"}}, "options.seed"),
    ({"options": {"seed": -1}}, "options.seed"),
    ({"dims": ["a"]}, "dims[0]"),
    ({"schedules": {"default": [{"projectors": PROJECTORS_BAD_VALUE}, {"observable": Y}]}},
     "schedules.default[0].projectors[0].value"),
    ({"initial_state": [[[True, 0], [0, 0]], [[0, 0], [0, 0]]]}, "initial_state[0][0][0]"),
    ({"initial_state": [[[1, 0], [0, 0]], [[0, 0], [float("nan"), 0]]]},
     "initial_state[1][1][0]"),
    ({"channels": [{"kind": "unitary", "u": [[[float("inf"), 0], [0, 0]], [[0, 0], [1, 0]]]}]},
     "channels[0].u[0][0][0]"),
    ({"initial_state": [[[1, 0], [0, 0]]]}, "initial_state: shape (1, 2)"),
]


@pytest.mark.parametrize("extra,field", MALFORMED_FIELDS, ids=[f for _, f in MALFORMED_FIELDS])
def test_malformed_field_exits_3(tmp_path, capsys, extra, field):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(probe_spec(**extra)))
    assert run_command(["validate", str(path)]) == 3
    assert field in capsys.readouterr().err


def test_exit_code_validation(tmp_path, capsys):
    spec = probe_spec(channels=[{"kind": "kraus",
                                 "operators": [[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]]}])
    path = tmp_path / "nontp.json"
    path.write_text(json.dumps(spec))
    assert run_command(["validate", str(path)]) == 4
    capsys.readouterr()


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

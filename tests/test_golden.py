"""Byte stability of CLI documents against checked-in golden files.

Each golden file in tests/data holds the exact stdout of one command: the
three demos; dist, charfn, state and witness on `qubit_two_times.json` (a
two-time qubit process with one random Kraus step); and witness on
`qubit_three_times_unitary.json` (a three-time qubit process with two
seeded Haar-unitary steps, where the witness also compares the projectors of
every time back-evolved to t_0); validate and dist on
`five_channel_kinds.json` (a qubit-qutrit-qubit chain of one step of each
spec channel kind: kraus, unitary, replacement with d_in, depolarizing and
measure_replace); and the ancilla interferometer with 3000 seeded shots,
circuit-sim right on `qubit_three_times_unitary.json` and circuit-sim
doubled on `qubit_two_times.json`; and charfn on explicit points of
`qubit_two_times.json`, one phase a signed zero. Each file in TABLES holds the
exact ``--table`` export of one command. Each document is also written
through ``-o FILE`` and compared to the same bytes. Spec paths are given
relative to tests/data, so the documents' ``spec`` field does not depend on
the checkout location. Regenerate with ``python tests/test_golden.py`` and
record the reason in CHANGES.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest  # type: ignore

DATA = Path(__file__).parent / "data"
SPEC = "qubit_two_times.json"
GOLDEN = {
    "demo_xy-qubit.json": ["demo", "xy-qubit"],
    "demo_replacement.json": ["demo", "replacement"],
    "demo_measure-replace.json": ["demo", "measure-replace"],
    "dist_right.json": ["dist", SPEC],
    "dist_doubled.json": ["dist", SPEC, "--kind", "doubled", "--bra-schedule", "alt"],
    "charfn_right.json": ["charfn", SPEC],
    "charfn_doubled.json": ["charfn", SPEC, "--kind", "doubled", "--bra-schedule", "alt"],
    "state_kd-right.json": ["state", SPEC, "--kind", "kd-right"],
    "witness.json": ["witness", SPEC],
    "witness_unitary.json": ["witness", "qubit_three_times_unitary.json"],
    "validate_five_channel_kinds.json": ["validate", "five_channel_kinds.json"],
    "dist_right_five_channel_kinds.json": ["dist", "five_channel_kinds.json"],
    "circuit_sim_right.json": ["circuit-sim", "qubit_three_times_unitary.json",
                               "--point", "0.3,-0.7,1.1", "--shots", "3000", "--seed", "5"],
    "circuit_sim_doubled.json": ["circuit-sim", SPEC, "--kind", "doubled", "--bra-schedule", "alt",
                                 "--point", "0.4,-0.2,0.9,0.5", "--shots", "3000", "--seed", "5"],
    "charfn_points.json": ["charfn", SPEC, "--points", "0.3,-0.0;0,0;-1.1,0.5"],
}
# the command's --table path is appended
TABLES = {"dist_doubled.tsv": ["dist", SPEC, "--kind", "doubled", "--bra-schedule", "alt", "--table"]}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_document_bytes_match_golden(name, capsys, monkeypatch):
    from tkd.cli import run_command

    monkeypatch.chdir(DATA)
    monkeypatch.delenv("TKD_TOLERANCE", raising=False)
    assert run_command(GOLDEN[name]) == 0
    assert capsys.readouterr().out.encode() == (DATA / name).read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_document_bytes_through_the_out_file_match_golden(name, capsys, monkeypatch, tmp_path):
    from tkd.cli import run_command

    monkeypatch.chdir(DATA)
    monkeypatch.delenv("TKD_TOLERANCE", raising=False)
    assert run_command(GOLDEN[name] + ["-o", str(tmp_path / name)]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_bytes_match_golden(name, monkeypatch, tmp_path):
    from tkd.cli import run_command

    monkeypatch.chdir(DATA)
    monkeypatch.delenv("TKD_TOLERANCE", raising=False)
    assert run_command(TABLES[name] + [str(tmp_path / name)]) == 0
    assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()


if __name__ == "__main__":  # rewrite every golden file from the current code
    import contextlib
    import io
    import os

    sys.path.insert(0, str(Path(__file__).parents[1] / "src"))
    from tkd.cli import run_command

    os.chdir(DATA)
    os.environ.pop("TKD_TOLERANCE", None)
    for name, argv in GOLDEN.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run_command(argv) == 0, name
        (DATA / name).write_bytes(out.getvalue().encode())
    for name, argv in TABLES.items():
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_command(argv + [name]) == 0, name

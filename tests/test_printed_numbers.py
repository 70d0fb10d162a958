"""Every number of every golden CLI document, checked against a path that
shares no code with the sweep.

Each command of `test_golden.GOLDEN` is run, and its document is parsed. One
checker per command pops each field it checks, and a numeric field that no
checker pops fails the test. The references are:

- distribution values and their diagnostics: `oracle_kd`;
- χ values: `char_from_distribution` of the oracle's distribution, on a default
  grid rebuilt from its formula;
- the state matrix: `oracle_state`, and its summary from numpy on that matrix;
- the witness: the oracle's nonclassicality and `_witness_reference`'s plain loop;
- circuit-sim's exact value and direct formula: χ as above; its estimate: the
  binomial draws redone with numpy;
- validate's defects, the demos' marginals and the extended table: plain numpy
  on the parsed spec.

A defect whose exact value is zero (a round trip, a circuit defect) is checked
against zero. Outcome values, labels, shapes, times and options are checked
against the parsed spec and the command line. Distributions and χ are held to
1e-12, states to 1e-10.
"""

from __future__ import annotations

import json

import numpy as np
import pytest  # type: ignore

import tkd
from tkd.cli import _build_parser, _load_demo, load_spec, run_command
from tkd.oracle import oracle_kd, oracle_state
from conftest import table_dev
from test_golden import DATA, GOLDEN
from test_properties import _witness_reference

TOL = 1e-12
STATE_TOL = 1e-10
ORACLE_KIND = {"right": "kd_right", "left": "kd_left", "doubled": "kd_doubled", "mh": "mh"}


def _complex(pairs) -> np.ndarray:
    """Printed [re, im] pairs, nested as printed, as one complex array."""
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _numbers(o, path="$") -> list[str]:
    """The paths of the numeric leaves left in a parsed document."""
    if isinstance(o, dict):
        return [p for k, v in o.items() for p in _numbers(v, f"{path}.{k}")]
    if isinstance(o, list):
        return [p for i, v in enumerate(o) for p in _numbers(v, f"{path}[{i}]")]
    return [path] if isinstance(o, (int, float)) and not isinstance(o, bool) else []


def _oracle(bundle, args) -> tkd.QuasiDistribution:
    """The oracle's distribution of the command's --kind and schedules."""
    s = bundle.schedules[args.schedule]
    if args.kind == "doubled":
        bra = bundle.schedules[args.bra_schedule or args.schedule]
        return oracle_kd(bundle.process, s, "kd_doubled", bra=bra)
    return oracle_kd(bundle.process, s, ORACLE_KIND[args.kind])


def _chi(q: tkd.QuasiDistribution, grid) -> np.ndarray:
    return tkd.char_from_distribution(q, grid).values


def _check_distribution(d: dict, q: tkd.QuasiDistribution):
    """Pop the fields of a printed distribution, checking them against ``q`` and its axes."""
    assert d.pop("kind") == q.kind
    assert d.pop("shape") == list(q.values.shape)
    assert d.pop("ket_axes") == q.ket_axes
    times = len(q.axes) - q.ket_axes if q.ket_axes else len(q.axes)
    for i, (ax, outcomes) in enumerate(zip(d["axes"], q.axes, strict=True)):
        assert ax.pop("axis") == i and ax.pop("time") == i % times
        assert ax.pop("labels") == [o.label for o in outcomes]
        assert ax.pop("values") == [o.value for o in outcomes]
    assert table_dev(_complex(d.pop("values")), q.values.reshape(-1)) <= TOL


def _check_dist(doc, bundle, args):
    q = _oracle(bundle, args)
    _check_distribution(doc["distribution"], q)
    diag = doc["diagnostics"]
    total = q.values.sum()
    assert abs(_complex(diag.pop("total")) - total) <= TOL
    assert abs(diag.pop("normalization_defect") - abs(total - 1)) <= TOL
    assert abs(diag.pop("nonclassicality_linear") - (np.abs(q.values).sum() - 1)) <= TOL


def _check_charfn(doc, bundle, args):
    q = _oracle(bundle, args)
    ch = doc["characteristic"]
    assert ch.pop("kind") == args.kind
    grid = np.array(ch.pop("grid"), dtype=float)
    if args.points:
        assert ch.pop("grid_source") == "explicit"
        want = [[float(x) for x in pt.split(",")] for pt in args.points.split(";")]
        assert np.array_equal(grid, want) and np.array_equal(np.signbit(grid), np.signbit(want))
    else:  # u_j = j·π/(1 + spread) per axis over its distinct values, the last axis fastest
        assert ch.pop("grid_source") == "default"
        spectra = map(q.axis_values, range(len(q.axes)))
        nodes = [np.pi / (1 + np.ptp(v)) * np.arange(len(set(v))) for v in spectra]
        want = np.stack(np.meshgrid(*nodes, indexing="ij"), axis=-1).reshape(-1, len(nodes))
        assert table_dev(grid, want) <= TOL
        assert ch.pop("inversion_round_trip_defect") <= TOL
    assert table_dev(_complex(ch.pop("values")), _chi(q, grid)) <= TOL


def _check_state(doc, bundle, args):
    p = bundle.process
    want = oracle_state(p, {"kd-right": "right", "kd-left": "left"}.get(args.kind, args.kind)).matrix
    y = doc["state"]
    assert y.pop("dims") == list(p.dims)
    assert table_dev(_complex(y.pop("matrix")), want) <= STATE_TOL
    assert abs(_complex(y.pop("trace")) - np.trace(want)) <= STATE_TOL
    assert abs(y.pop("hermiticity_defect") - np.abs(want - want.conj().T).max()) <= STATE_TOL
    eigs = np.sort_complex(np.linalg.eigvals(want))
    assert table_dev(np.sort_complex(_complex(y.pop("eigenvalues"))), eigs) <= STATE_TOL
    assert abs(y.pop("min_real_eigenvalue") - eigs.real.min()) <= STATE_TOL


def _check_witness(doc, bundle, args):
    p, s = bundle.process, bundle.schedules[args.schedule]
    assert abs(doc.pop("nonclassicality") - (np.abs(oracle_kd(p, s).values).sum() - 1)) <= TOL
    best, ((ta, la), (tb, lb)) = _witness_reference(p, s)
    assert abs(doc.pop("max_commutator_norm") - best) <= TOL
    assert doc.pop("worst_pair") == {"a": {"times": list(ta), "labels": list(la)},
                                     "b": {"times": list(tb), "labels": list(lb)}}


def _check_circuit_sim(doc, bundle, args):
    point = [float(x) for x in args.point.split(",")]
    exact = _chi(_oracle(bundle, args), [point])[0]
    c = doc["circuit"]
    assert c.pop("kind") == args.kind and c.pop("point") == point
    assert abs(_complex(c.pop("exact")) - exact) <= TOL
    assert abs(_complex(c.pop("direct_formula")) - exact) <= TOL
    assert c.pop("circuit_defect") <= TOL
    env = [len(k.kraus) for k in bundle.process.channels]
    assert c.pop("metadata") == {"env_dims": env, "register": [2, bundle.process.dims[0]] + env,
                                 "gate_phase_sign": 1, "readout_sign": -1}
    # ⟨X⟩ = Re χ and ⟨Y⟩ = −Im χ, each read in half the shots
    shots, seed = c.pop("shots"), c.pop("seed")
    assert (shots, seed) == (args.shots, args.seed)
    rng, x, y = np.random.default_rng(seed), exact.real, -exact.imag
    nx, ny = shots // 2, shots - shots // 2
    mean_x, mean_y = 2 * rng.binomial(nx, (1 + x) / 2) / nx - 1, 2 * rng.binomial(ny, (1 + y) / 2) / ny - 1
    estimate = complex(mean_x, -mean_y)
    assert abs(_complex(c.pop("estimate")) - estimate) <= TOL
    assert abs(c.pop("std_error") - np.sqrt((1 - x * x) / nx + (1 - y * y) / ny)) <= TOL
    assert abs(c.pop("deviation") - abs(estimate - exact)) <= TOL


def _check_validate(doc, bundle, args):
    rho = bundle.process.rho0
    init = doc["initial_state"]
    assert init.pop("dim") == len(rho)
    assert abs(init.pop("trace_defect") - abs(np.trace(rho) - 1)) <= TOL
    assert abs(init.pop("hermiticity_defect") - np.abs(rho - rho.conj().T).max()) <= TOL
    assert abs(init.pop("min_eigenvalue") - np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0]) <= TOL
    for i, (row, c) in enumerate(zip(doc["channels"], bundle.process.channels, strict=True)):
        k = np.array(c.kraus)
        assert (row.pop("index"), row.pop("kraus_count")) == (i, len(k))
        assert (row.pop("d_in"), row.pop("d_out")) == (k.shape[2], k.shape[1])
        defect = np.abs(np.einsum("kji,kjl->il", k.conj(), k) - np.eye(k.shape[2])).max()
        assert abs(row.pop("cptp_defect") - defect) <= TOL
    for name, rows in doc["schedules"].items():
        for k, (row, m) in enumerate(zip(rows, bundle.schedules[name], strict=True)):
            proj = np.array([o.projector for o in m.outcomes])
            assert (row.pop("time"), row.pop("outcomes")) == (k, len(proj))
            defect = np.abs(proj.sum(axis=0) - np.eye(proj.shape[1])).max()
            assert abs(row.pop("completeness_defect") - defect) <= TOL


def _check_demo(doc, bundle, args):
    p, s = bundle.process, bundle.schedules["default"]
    q = oracle_kd(p, s)
    _check_distribution(doc["distribution"], q)
    nc = np.abs(q.values).sum() - 1
    assert abs(doc.pop("nonclassicality") - nc) <= TOL
    ref = doc["reference"]
    table = _complex(ref.pop("table"))
    assert table_dev(table, q.values.reshape(-1)) <= TOL
    assert abs(ref.pop("nonclassicality") - nc) <= TOL
    assert abs(doc.pop("max_table_deviation") - np.abs(q.values.reshape(-1) - table).max()) <= TOL
    if args.name == "xy-qubit":
        assert doc.pop("nonclassicality_deviation") <= TOL
    elif args.name == "replacement":  # Tr[ρΠ] at t_0, Tr[E(ρ)Π] at t_1, and their product
        p0 = [np.trace(p.rho0 @ o.projector).real for o in s[0].outcomes]
        later = sum(k @ p.rho0 @ k.conj().T for k in p.channels[0].kraus)
        p1 = [np.trace(later @ o.projector).real for o in s[1].outcomes]
        assert table_dev(doc.pop("marginal_t0"), p0) <= TOL and table_dev(doc.pop("marginal_t1"), p1) <= TOL
        assert doc.pop("factorization_defect") <= TOL
    else:  # measure-replace: Q(b, k) = Tr[M_k(ρΠ_b)], branch k's outputs matched to the t_1 projectors
        inst, outputs = bundle.instruments["channels[0]"]
        ext = np.array([[sum(np.trace(k @ p.rho0 @ o.projector @ k.conj().T) for k in ops)
                         for _, ops in inst.branches] for o in s[0].outcomes])
        branch = tuple(tkd.Outcome(value=float(k), projector=None, label=label)
                       for k, (label, _) in enumerate(inst.branches))
        _check_distribution(doc["extended_kd"], tkd.QuasiDistribution(
            "kd_right", (tuple(s[0].outcomes), branch), ext))
        ext_nc = np.abs(ext).sum() - 1
        assert abs(doc.pop("extended_nonclassicality") - ext_nc) <= TOL
        assert abs(doc.pop("equality_gap") - abs(nc - ext_nc)) <= TOL
        extended = _complex(ref.pop("extended_table"))
        assert table_dev(extended, ext.reshape(-1)) <= TOL
        assert abs(doc.pop("max_extended_table_deviation") - np.abs(ext.reshape(-1) - extended).max()) <= TOL
        perm = [next(i for i, w in enumerate(outputs) if np.allclose(w, o.projector)) for o in s[1].outcomes]
        assert abs(doc.pop("table_gap_after_alignment") - np.abs(q.values - ext[:, perm]).max()) <= TOL


CHECKS = {"dist": _check_dist, "charfn": _check_charfn, "state": _check_state, "witness": _check_witness,
          "circuit-sim": _check_circuit_sim, "validate": _check_validate, "demo": _check_demo}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_printed_number_matches_an_independent_path(name, capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    monkeypatch.delenv("TKD_TOLERANCE", raising=False)
    argv = GOLDEN[name]
    assert run_command(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    args = _build_parser().parse_args(argv)
    bundle = _load_demo(args.name) if args.command == "demo" else load_spec(args.spec)
    assert doc.pop("format_version") == 1 and doc.pop("tolerance") == bundle.process.tol
    CHECKS[args.command](doc, bundle, args)
    assert _numbers(doc) == [], "numbers printed but not checked"

"""Seeded request mixes for the tkd benchmark, with their oracle checks.

``build(name, seed, spec_dir)`` turns a workload seed into a list of
``Request`` objects. Every input (process, schedule, observable, phase point,
spec file) is drawn from tkd's own seeded generators, so the same seed gives
the same requests. The serving process only runs ``Request.call``; the
harness process runs ``Request.check`` once on the first result, against
``tkd.oracle``, outside anything that is timed.

Sizes follow two limits. Each request must stay in the regime the package
targets (d <= 4, a few times, up to ~10^4 outcome entries). And each result
must be checkable against the brute-force oracle within a few seconds:
``oracle_state`` sums 4^(n+1) correlators into D x D blocks, so full state
checks stop at D = 64 (it takes ~8 s at d=2, n=6 and is out of reach at n=8).
"""

from __future__ import annotations

import contextlib
import importlib.resources
import io
import json
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import tkd
import tkd.cli

DIST_TOL = 1e-12   # distributions, chi samples, nonclassicality (ROADMAP contract)
STATE_TOL = 1e-10  # temporal state operators (ROADMAP contract)

WORKLOADS = ("dist-pass", "state-char", "cli-mix")


@dataclass
class Request:
    """One distinct request kind of a workload.

    ``call`` runs the request and returns its raw result; ``canon`` maps that
    result to the plain data (arrays, floats, a document string) that repeats
    must reproduce bit for bit; ``check`` compares canonical data with the
    oracle and returns ``(what, deviation, tolerance)`` triples.
    """

    name: str
    call: Callable[[], object]
    canon: Callable[[object], object]
    check: Callable[[object], list]
    mix: dict
    weight: int = 1


# ---------------------------------------------------------------------------
# seeded inputs


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _process(d: int, n: int, rng, kind: str = "mixed") -> tkd.MultiTimeProcess:
    """Seeded chain; "mixed" alternates Haar unitaries with 2-Kraus CPTP steps."""
    return tkd.random_process(d, n, seed=rng, channel_kind=kind)


def _observables(dims, rng) -> list[np.ndarray]:
    return [tkd.random_hermitian(d, rng) for d in dims]


def _degenerate_observable(d: int, rng) -> np.ndarray:
    """Haar-rotated diag(1, ..., 1, -1): two outcomes, one of rank d-1."""
    u = tkd.haar_unitary(d, rng)
    spectrum = np.ones(d)
    spectrum[-1] = -1.0
    return (u * spectrum) @ u.conj().T


def _kraus_counts(p: tkd.MultiTimeProcess) -> list[int]:
    return [len(c.kraus) for c in p.channels]


def _mix(call: str, p: tkd.MultiTimeProcess, entries: int, **extra) -> dict:
    return dict(call=call, d=p.dims[0], n=p.n_steps, kraus=_kraus_counts(p),
                entries=int(entries), **extra)


def _outcome_entries(sched) -> int:
    return int(np.prod([len(m.outcomes) for m in sched]))


# ---------------------------------------------------------------------------
# oracle-side helpers (harness process only)


def _dev(a, b) -> float:
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def _oracle_nonclassicality(p, s) -> float:
    return float(np.sum(np.abs(tkd.oracle_kd(p, s, "kd_right").values))) - 1.0


def _hs_correlators(matrix: np.ndarray, dims) -> np.ndarray:
    """T[i_0..i_n] = Tr[Y (σ_{i_n} ⊗ ... ⊗ σ_{i_0})] over tkd's HS bases.

    Plain einsum over the state's factors (latest time first), written here
    so the check does not reuse the code under test.
    """
    nt = len(dims)
    fdims = list(reversed(dims))
    y = np.asarray(matrix).reshape(fdims + fdims)
    letters = iter(string.ascii_letters)
    rows = [next(letters) for _ in range(nt)]
    cols = [next(letters) for _ in range(nt)]
    mus = [next(letters) for _ in range(nt)]
    stacks, terms = [], []
    for j in range(nt):          # factor j holds time nt-1-j
        stacks.append(np.stack(tkd.hs_basis(fdims[j]).ops))
        terms.append(mus[nt - 1 - j] + cols[j] + rows[j])
    sub = "".join(rows + cols) + "," + ",".join(terms) + "->" + "".join(mus)
    return np.einsum(sub, y, *stacks, optimize=True)


def _oracle_char(q, grid) -> np.ndarray:
    return tkd.char_from_distribution(q, grid).values


# ---------------------------------------------------------------------------
# dist-pass: the quasiprob recursions over many tiny matrices


def _dist_request(name, call, p, sched, oracle_kind):
    return Request(
        name=name, call=call, canon=lambda q: q.values,
        check=lambda v: [("distribution", _dev(v, tkd.oracle_kd(p, sched, oracle_kind).values),
                          DIST_TOL)],
        mix=_mix(name, p, _outcome_entries(sched)))


def _dist_pass(seed: int) -> list[Request]:
    reqs = []

    p = _process(2, 8, _rng(seed, 1))
    s = tkd.random_schedule(p.dims, _rng(seed, 2))
    reqs.append(_dist_request("kd_right", lambda: tkd.kd_right(p, s), p, s, "kd_right"))

    pl = _process(4, 4, _rng(seed, 3))
    sl = tkd.random_schedule(pl.dims, _rng(seed, 4))
    reqs.append(_dist_request("kd_left", lambda: tkd.kd_left(pl, sl), pl, sl, "kd_left"))

    pd = _process(3, 3, _rng(seed, 5))
    ket = tkd.random_schedule(pd.dims, _rng(seed, 6))
    bra = tkd.random_schedule(pd.dims, _rng(seed, 7))
    reqs.append(Request(
        name="kd_doubled", call=lambda: tkd.kd_doubled(pd, ket, bra),
        canon=lambda q: q.values,
        check=lambda v: [("distribution", _dev(
            v, tkd.oracle_kd(pd, ket, "kd_doubled", bra=bra).values), DIST_TOL)],
        mix=_mix("kd_doubled", pd, _outcome_entries(ket) * _outcome_entries(bra))))

    # the degenerate schedule: rank-2 outcomes at t0, t2, t4
    pv = _process(3, 4, _rng(seed, 8))
    rng = _rng(seed, 9)
    sv = [tkd.spectral_measurement(_degenerate_observable(3, rng) if k % 2 == 0
                                   else tkd.random_hermitian(3, rng)) for k in range(5)]

    def lvn_check(v):
        doubled = tkd.oracle_kd(pv, sv, "kd_doubled", bra=sv).values
        diag = np.array([doubled[idx + idx] for idx in np.ndindex(v.shape)]).reshape(v.shape)
        return [("diagonal of doubled oracle", _dev(v, diag), DIST_TOL)]

    reqs.append(Request(name="lvn", call=lambda: tkd.lvn(pv, sv), canon=lambda q: q.values,
                        check=lvn_check,
                        mix=_mix("lvn", pv, _outcome_entries(sv), degenerate_times=[0, 2, 4])))

    pm = _process(2, 6, _rng(seed, 10))
    sm = tkd.random_schedule(pm.dims, _rng(seed, 11))
    reqs.append(_dist_request("mh_from_kd", lambda: tkd.mh_from_kd(tkd.kd_right(pm, sm)),
                              pm, sm, "mh"))

    pn = _process(3, 3, _rng(seed, 12))
    sn = tkd.random_schedule(pn.dims, _rng(seed, 13))
    reqs.append(Request(
        name="nonclassicality", call=lambda: tkd.nonclassicality(tkd.kd_right(pn, sn)),
        canon=float,
        check=lambda v: [("sum|Q|-1", abs(v - _oracle_nonclassicality(pn, sn)), DIST_TOL)],
        mix=_mix("nonclassicality(kd_right)", pn, _outcome_entries(sn))))

    for name, d, n, kind, stream in (("witness_unitary", 2, 6, "unitary", 14),
                                     ("witness_mixed", 3, 4, "mixed", 16)):
        pw = _process(d, n, _rng(seed, stream), kind)
        sw = tkd.random_schedule(pw.dims, _rng(seed, stream + 1))
        reqs.append(Request(
            name=name, call=lambda pw=pw, sw=sw: tkd.classicality_witness(pw, sw),
            canon=lambda r: (r.nonclassicality, r.max_commutator_norm, repr(r.worst_pair)),
            check=lambda v, pw=pw, sw=sw: [
                ("nonclassicality", abs(v[0] - _oracle_nonclassicality(pw, sw)), DIST_TOL)],
            mix=_mix("classicality_witness", pw, _outcome_entries(sw))))

    pj = _process(2, 5, _rng(seed, 18))
    sj = tkd.random_schedule(pj.dims, _rng(seed, 19))

    def joint_check(ops):
        traces = np.einsum("bij,ji->b", ops, pj.rho0)
        want = tkd.oracle_kd(pj, sj, "kd_right").values.reshape(-1)
        return [("Tr[M_b rho0]", _dev(traces, want), DIST_TOL)]

    reqs.append(Request(
        name="joint_ops", call=lambda: tkd.joint_ops(pj, sj),
        canon=lambda j: np.stack([j.ops[k] for k in sorted(j.ops)]),
        check=joint_check, mix=_mix("joint_ops", pj, _outcome_entries(sj))))

    # weights put p50 inside the 12-16 ms witness/kd cluster and p90 inside
    # kd_doubled (~85 ms), each >= 7 % of ranks from the edge of its cluster, so
    # neither percentile sits on the gap between two request kinds
    weights = {"kd_doubled": 2, "witness_unitary": 2, "joint_ops": 2}
    for r in reqs:
        r.weight = weights.get(r.name, 1)
    return reqs


# ---------------------------------------------------------------------------
# state-char: tomography, characteristic functions and the interferometer


def _state_request(name, call, p, oracle_kind):
    side = int(np.prod(p.dims))
    return Request(
        name=name, call=call, canon=lambda y: y.matrix,
        check=lambda m: [("state", _dev(m, tkd.oracle_state(p, oracle_kind).matrix), STATE_TOL)],
        mix=_mix(name, p, side * side))


def _spectra(obs) -> list[list[float]]:
    return [[o.value for o in tkd.spectral_measurement(h).outcomes] for h in obs]


def _state_char(seed: int) -> list[Request]:
    reqs = []

    p1 = _process(2, 5, _rng(seed, 1))
    reqs.append(_state_request("kd_state_recursive", lambda: tkd.kd_state_recursive(p1),
                               p1, "right"))

    p2 = _process(4, 2, _rng(seed, 2))
    reqs.append(_state_request("mh_state", lambda: tkd.mh_state(p2), p2, "mh"))

    p3 = _process(2, 5, _rng(seed, 3))  # pdo equals the lvn oracle only for qubits
    reqs.append(_state_request("pdo", lambda: tkd.pdo(p3), p3, "lvn"))

    p4 = _process(2, 2, _rng(seed, 4))

    def doubled_call():
        t = tkd.correlators(p4, kind="doubled")
        return t, tkd.reconstruct_state(t)

    side4 = int(np.prod(p4.dims)) ** 2
    reqs.append(Request(
        name="correlators_doubled+reconstruct", call=doubled_call,
        canon=lambda r: (r[0].values, r[1].matrix),
        check=lambda v: [("doubled state", _dev(v[1], tkd.oracle_state(p4, "doubled").matrix),
                          STATE_TOL)],
        mix=_mix("correlators(doubled)+reconstruct_state", p4, side4 * side4)))

    p5 = _process(2, 4, _rng(seed, 5))
    reqs.append(Request(
        name="correlators_right", call=lambda: tkd.correlators(p5, kind="right"),
        canon=lambda t: t.values,
        check=lambda v: [("correlators", _dev(
            v, _hs_correlators(tkd.oracle_state(p5, "right").matrix, p5.dims)), STATE_TOL)],
        mix=_mix("correlators(right)", p5, 4 ** p5.n_times)))

    # Born rule on a prepared kd_right state, one call per outcome tuple
    sb = tkd.random_schedule(p1.dims, _rng(seed, 6))
    y1 = tkd.kd_state_recursive(p1)
    tuples = [[m.outcomes[i].projector for m, i in zip(sb, idx)]
              for idx in np.ndindex(*(len(m.outcomes) for m in sb))]
    reqs.append(Request(
        name="born_eval", call=lambda: np.array([tkd.born_eval(y1, t) for t in tuples]),
        canon=lambda v: v,
        check=lambda v: [("born vs kd_right", _dev(
            v, tkd.oracle_kd(p1, sb, "kd_right").values.reshape(-1)), DIST_TOL)],
        mix=_mix("born_eval x outcome tuples", p1, len(tuples))))

    p7 = _process(3, 3, _rng(seed, 7))
    obs7 = _observables(p7.dims, _rng(seed, 8))
    s7 = [tkd.spectral_measurement(h) for h in obs7]
    spec7 = _spectra(obs7)
    grid7 = tkd.product_grid([tkd.default_nodes(sp) for sp in spec7])
    sched7 = tkd.ObservableSchedule(bra=tuple(obs7))

    def char_call():
        chi = tkd.char_fn(p7, sched7, grid7, kind="right")
        return chi, tkd.invert_char(chi, spec7)

    def char_check(v):
        q = tkd.oracle_kd(p7, s7, "kd_right")
        return [("chi", _dev(v[0], _oracle_char(q, grid7)), DIST_TOL),
                ("inverted distribution", _dev(v[1], q.values), DIST_TOL)]

    reqs.append(Request(
        name="char_fn+invert", call=char_call, canon=lambda r: (r[0].values, r[1].values),
        check=char_check, mix=_mix("char_fn(inversion grid)+invert_char", p7, len(grid7))))

    p8 = _process(2, 3, _rng(seed, 9))
    rng = _rng(seed, 10)
    ket8, bra8 = _observables(p8.dims, rng), _observables(p8.dims, rng)
    grid8 = tkd.product_grid([tkd.default_nodes(sp) for sp in _spectra(ket8) + _spectra(bra8)])
    sched8 = tkd.ObservableSchedule(ket=tuple(ket8), bra=tuple(bra8))

    def doubled_char_check(v):
        q = tkd.oracle_kd(p8, [tkd.spectral_measurement(h) for h in ket8], "kd_doubled",
                          bra=[tkd.spectral_measurement(h) for h in bra8])
        return [("chi", _dev(v, _oracle_char(q, grid8)), DIST_TOL)]

    reqs.append(Request(
        name="char_fn_doubled", call=lambda: tkd.char_fn(p8, sched8, grid8, kind="doubled"),
        canon=lambda c: c.values, check=doubled_char_check,
        mix=_mix("char_fn(doubled grid)", p8, len(grid8))))

    for name, d, n, kind, stream in (("circuit_sim_right", 3, 3, "right", 11),
                                     ("circuit_sim_doubled", 2, 4, "doubled", 14)):
        pc = _process(d, n, _rng(seed, stream))
        rng = _rng(seed, stream + 1)
        ket = _observables(pc.dims, rng) if kind == "doubled" else None
        bra = _observables(pc.dims, rng)
        obs = tkd.ObservableSchedule(ket=None if ket is None else tuple(ket), bra=tuple(bra))
        width = 2 * pc.n_times if kind == "doubled" else pc.n_times
        point = tuple(float(x) for x in rng.uniform(0.0, np.pi, size=width))
        shot_seed = int(rng.integers(1 << 31))

        def circuit_check(v, pc=pc, ket=ket, bra=bra, point=point, kind=kind):
            bra_m = [tkd.spectral_measurement(h) for h in bra]
            if kind == "doubled":
                q = tkd.oracle_kd(pc, [tkd.spectral_measurement(h) for h in ket],
                                  "kd_doubled", bra=bra_m)
            else:
                q = tkd.oracle_kd(pc, bra_m, "kd_right")
            return [("exact chi", abs(v[0] - _oracle_char(q, [point])[0]), DIST_TOL)]

        reqs.append(Request(
            name=name,
            call=lambda pc=pc, obs=obs, point=point, kind=kind, shot_seed=shot_seed:
                tkd.circuit_sim(pc, obs, point, kind=kind, shots=4000, seed=shot_seed),
            canon=lambda r: (r.exact, r.estimate, r.std_error),
            check=circuit_check,
            mix=_mix(f"circuit_sim({kind}, 4000 shots)", pc, 1)))

    # p50 inside char_fn+invert (~10 ms), p90 inside the doubled reconstruction
    # (~50 ms); see the dist-pass weights
    weights = {"char_fn+invert": 2, "correlators_doubled+reconstruct": 2}
    for r in reqs:
        r.weight = weights.get(r.name, 1)
    return reqs


# ---------------------------------------------------------------------------
# cli-mix: run_command in-process on generated spec files


def _pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def spec_bytes(p: tkd.MultiTimeProcess, schedules: dict[str, list[np.ndarray]]) -> bytes:
    """A version-1 process specification for ``p`` with named observable schedules."""
    channels = []
    for c in p.channels:
        if len(c.kraus) == 1:
            channels.append({"kind": "unitary", "u": _pairs(c.kraus[0])})
        else:
            channels.append({"kind": "kraus", "operators": [_pairs(k) for k in c.kraus]})
    doc = {
        "version": 1,
        "dims": list(p.dims),
        "initial_state": _pairs(p.rho0),
        "channels": channels,
        "schedules": {name: [{"observable": _pairs(h)} for h in obs]
                      for name, obs in schedules.items()},
        "options": {},
    }
    return json.dumps(doc).encode("utf-8")


def _run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tkd.cli.run_command(argv)
    if code != 0:
        raise RuntimeError(f"tkd {' '.join(argv)} exited with code {code}")
    return buf.getvalue()


def _flat(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _demo_bundle(name: str):
    fname = name.replace("-", "_") + ".json"
    raw = (importlib.resources.files("tkd") / "demos" / fname).read_bytes()
    return tkd.cli.load_spec_bytes(raw, f"demo:{name}")


def _demo_check(name: str, doc_text: str) -> list:
    doc = json.loads(doc_text)
    b = _demo_bundle(name)
    q = tkd.oracle_kd(b.process, b.schedules["default"], "kd_right")
    out = [("distribution", _dev(_flat(doc["distribution"]["values"]), q.values.reshape(-1)),
            DIST_TOL),
           ("reported table deviation", doc["max_table_deviation"], DIST_TOL)]
    for key in ("max_extended_table_deviation", "factorization_defect", "equality_gap",
                "table_gap_after_alignment", "nonclassicality_deviation"):
        if key in doc:
            out.append((key, float(doc[key]), DIST_TOL))
    return out


def _cli_mix(seed: int, spec_dir: Path | None) -> list[Request]:
    reqs = []
    files: dict[str, bytes] = {}

    pt = _process(2, 2, _rng(seed, 1))
    rng = _rng(seed, 2)
    obs_t = _observables(pt.dims, rng)
    files["tiny.json"] = spec_bytes(pt, {"default": obs_t})
    s_t = [tkd.spectral_measurement(h) for h in obs_t]
    point = tuple(float(x) for x in rng.uniform(0.0, np.pi, size=pt.n_times))

    ps = _process(2, 5, _rng(seed, 3))
    files["state.json"] = spec_bytes(ps, {"default": _observables(ps.dims, _rng(seed, 4))})

    pd = _process(3, 3, _rng(seed, 5))
    rng = _rng(seed, 6)
    ket_d, bra_d = _observables(pd.dims, rng), _observables(pd.dims, rng)
    files["doubled.json"] = spec_bytes(pd, {"default": ket_d, "alt": bra_d})

    def path(fname: str) -> str:
        return str((spec_dir or Path(".")) / fname)

    if spec_dir is not None:
        for fname, raw in files.items():
            (spec_dir / fname).write_bytes(raw)

    def add(name, argv, check, p, entries, weight=1):
        shown = " ".join(Path(a).name if a.endswith(".json") else a for a in argv)
        reqs.append(Request(name=name, call=lambda: _run_cli(argv), canon=str, check=check,
                            weight=weight, mix=_mix(f"tkd {shown}", p, entries)))

    for demo in ("xy-qubit", "replacement", "measure-replace"):
        add(f"demo {demo}", ["demo", demo], lambda t, demo=demo: _demo_check(demo, t),
            _demo_bundle(demo).process, 4)

    def validate_check(text):
        doc = json.loads(text)
        kraus = [c["kraus_count"] for c in doc["channels"]]
        defects = [c["cptp_defect"] for c in doc["channels"]]
        defects += [e["completeness_defect"] for e in doc["schedules"]["default"]]
        defects += [doc["initial_state"]["trace_defect"],
                    doc["initial_state"]["hermiticity_defect"]]
        return [("kraus counts", 0.0 if kraus == _kraus_counts(pt) else float("inf"), 0.0),
                ("reported defects", max(defects), DIST_TOL)]

    add("validate", ["validate", path("tiny.json")], validate_check, pt, 0)

    def dist_check(text, p, sched, kind, bra=None):
        doc = json.loads(text)
        want = tkd.oracle_kd(p, sched, kind, bra=bra).values.reshape(-1)
        return [("distribution", _dev(_flat(doc["distribution"]["values"]), want), DIST_TOL)]

    add("dist right", ["dist", path("tiny.json"), "--kind", "right"],
        lambda t: dist_check(t, pt, s_t, "kd_right"), pt, _outcome_entries(s_t))

    def charfn_check(text):
        c = json.loads(text)["characteristic"]
        grid = [tuple(g) for g in c["grid"]]
        want = _oracle_char(tkd.oracle_kd(pt, s_t, "kd_right"), grid)
        return [("chi", _dev(_flat(c["values"]), want), DIST_TOL),
                ("reported round trip", c["inversion_round_trip_defect"], DIST_TOL)]

    add("charfn", ["charfn", path("tiny.json")], charfn_check, pt, _outcome_entries(s_t),
        weight=2)

    def circuit_check(text):
        c = json.loads(text)["circuit"]
        want = _oracle_char(tkd.oracle_kd(pt, s_t, "kd_right"), [point])[0]
        return [("exact chi", abs(complex(*c["exact"]) - want), DIST_TOL),
                ("reported circuit defect", c["circuit_defect"], DIST_TOL)]

    add("circuit-sim", ["circuit-sim", path("tiny.json"), "--point",
                        ",".join(repr(x) for x in point), "--shots", "2000", "--seed", "7"],
        circuit_check, pt, 1)

    def witness_check(text):
        doc = json.loads(text)
        return [("nonclassicality",
                 abs(doc["nonclassicality"] - _oracle_nonclassicality(pt, s_t)), DIST_TOL)]

    add("witness", ["witness", path("tiny.json")], witness_check, pt, _outcome_entries(s_t))

    # document-heavy requests
    side = int(np.prod(ps.dims))
    for kind, oracle_kind in (("kd-right", "right"), ("pdo", "lvn")):
        def state_check(text, oracle_kind=oracle_kind):
            m = _flat(json.loads(text)["state"]["matrix"])
            return [("state", _dev(m, tkd.oracle_state(ps, oracle_kind).matrix), STATE_TOL)]

        add(f"state {kind}", ["state", path("state.json"), "--kind", kind], state_check,
            ps, side * side)

    s_k = [tkd.spectral_measurement(h) for h in ket_d]
    s_b = [tkd.spectral_measurement(h) for h in bra_d]
    add("dist doubled", ["dist", path("doubled.json"), "--kind", "doubled",
                         "--bra-schedule", "alt"],
        lambda t: dist_check(t, pd, s_k, "kd_doubled", bra=s_b), pd,
        _outcome_entries(s_k) * _outcome_entries(s_b), weight=3)
    # nine tiny requests in fourteen put p50 among them (3.5-5.6 ms) and p90
    # inside dist doubled (~170 ms, 3/14 of the requests)
    return reqs


def build(name: str, seed: int, spec_dir: Path | None = None) -> list[Request]:
    """Requests of workload ``name`` for ``seed``; cli-mix writes its spec
    files into ``spec_dir`` when one is given."""
    if name == "dist-pass":
        return _dist_pass(seed)
    if name == "state-char":
        return _state_char(seed)
    if name == "cli-mix":
        return _cli_mix(seed, spec_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def cycle(reqs: list[Request]) -> list[int]:
    """One round of the closed loop: request indices, each ``weight`` times,
    interleaved so that repeats of one kind are spread over the round."""
    slots = []
    for i, r in enumerate(reqs):
        slots += [((j + 0.5) / r.weight, i) for j in range(r.weight)]
    return [i for _, i in sorted(slots)]

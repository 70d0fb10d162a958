"""Property tests: the batched passes and χ against the brute-force oracle.

Processes mix unitary and CPTP steps (d in {2, 3}, up to three steps) and
schedules draw spectra from a small value set, so degenerate observables and
single-outcome measurements come up. Examples are derandomized, so every run
checks the same cases. Each check uses the contract tolerance of 1e-12.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import tkd
from tkd.linops import max_abs
from tkd.oracle import _direct_correlator, _direct_correlator_doubled

TOL = 1e-12
SETTINGS = settings(max_examples=40, derandomize=True, deadline=None, database=None)
# the oracle spends ~0.5 s per d=3, n=2 correlator tensor, so fewer examples here
CORRELATOR_SETTINGS = settings(SETTINGS, max_examples=20)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def processes(draw, max_steps: int = 3) -> tkd.MultiTimeProcess:
    d = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(SEEDS))
    n = draw(st.sampled_from(range(max_steps, -1, -1)))
    chain = []
    for unitary in draw(st.lists(st.booleans(), min_size=n, max_size=n)):
        chain.append(tkd.QuantumChannel([tkd.haar_unitary(d, rng)]) if unitary
                     else tkd.random_channel(d, rng))
    return tkd.MultiTimeProcess(tkd.random_density(d, rng), chain)


@st.composite
def schedules(draw, dims) -> list[tkd.ProjectiveMeasurement]:
    out = []
    for d in dims:
        spectrum = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0, 2.5]), min_size=d, max_size=d))
        u = tkd.haar_unitary(d, draw(SEEDS))
        out.append(tkd.spectral_measurement(u @ np.diag(spectrum) @ np.conj(u.T)))
    return out


def _observables(sched) -> tuple[np.ndarray, ...]:
    return tuple(m.observable() for m in sched)


def _joint_traces(p, ops: tkd.JointMeasurementOperators) -> np.ndarray:
    return np.array([np.trace(ops.ops[k] @ p.rho0) for k in sorted(ops.ops)])


@SETTINGS
@given(st.data())
def test_passes_match_oracle(data):
    p = data.draw(processes())
    ket = data.draw(schedules(p.dims))
    bra = data.draw(schedules(p.dims))

    for kind, fn in (("kd_right", tkd.kd_right), ("kd_left", tkd.kd_left)):
        want = tkd.oracle_kd(p, ket, kind).values
        assert max_abs(fn(p, ket).values - want) <= TOL
        assert max_abs(_joint_traces(p, tkd.joint_ops(p, ket, kind=kind)) - want.reshape(-1)) <= TOL
    want = tkd.oracle_kd(p, ket, "mh").values
    assert max_abs(tkd.mh_from_kd(tkd.kd_right(p, ket)).values - want) <= TOL

    want = tkd.oracle_kd(p, ket, "kd_doubled", bra=bra).values
    assert max_abs(tkd.kd_doubled(p, ket, bra).values - want) <= TOL
    joint = tkd.joint_ops(p, ket, kind="kd_doubled", bra=bra)
    assert max_abs(_joint_traces(p, joint) - want.reshape(-1)) <= TOL

    same = tkd.oracle_kd(p, ket, "kd_doubled", bra=ket).values
    side = int(np.prod(same.shape[:p.n_times]))
    assert max_abs(tkd.lvn(p, ket).values.reshape(-1) - same.reshape(side, side).diagonal()) <= TOL


@CORRELATOR_SETTINGS
@given(st.data())
def test_correlators_match_direct_oracle(data):
    p = data.draw(processes(max_steps=2))
    bases = [tkd.hs_basis(d) for d in p.dims]
    if data.draw(st.booleans()):
        bases = [tkd.rotate_basis(b, tkd.haar_unitary(b.dim, data.draw(SEEDS))) for b in bases]

    def ops(idx):
        return [bases[k].ops[i] for k, i in enumerate(idx)]

    for kind in ("right", "left", "mh", "lvn"):
        t = tkd.correlators(p, bases, kind=kind)
        for idx in np.ndindex(t.values.shape):
            want = _direct_correlator(p, ops(idx), kind)
            assert abs(t.values[idx] - (want.real if kind == "mh" else want)) <= TOL

    if p.dims[0] == 2:  # doubled grids grow as 16^(n+1) at d=2
        nt = p.n_times
        t = tkd.correlators(p, bases, kind="doubled")
        for idx in np.ndindex(t.values.shape):
            want = _direct_correlator_doubled(p, ops(idx[:nt]), ops(idx[nt:]))
            assert abs(t.values[idx] - want) <= TOL


@SETTINGS
@given(st.data())
def test_char_fn_and_circuit_match_oracle(data):
    p = data.draw(processes())
    ket = data.draw(schedules(p.dims))
    bra = data.draw(schedules(p.dims))
    cases = (
        ("right", tkd.ObservableSchedule(bra=_observables(bra)), tkd.oracle_kd(p, bra, "kd_right")),
        ("left", tkd.ObservableSchedule(ket=_observables(ket)), tkd.oracle_kd(p, ket, "kd_left")),
        ("doubled", tkd.ObservableSchedule(ket=_observables(ket), bra=_observables(bra)),
         tkd.oracle_kd(p, ket, "kd_doubled", bra=bra)),
    )
    for kind, obs, q in cases:
        width = len(q.axes)
        phases = st.lists(st.floats(-3.0, 3.0), min_size=width, max_size=width)
        points = [(0.0,) * width] + data.draw(st.lists(phases, min_size=1, max_size=4))
        default = tkd.product_grid([tkd.default_nodes(q.axis_values(i)) for i in range(width)])
        for grid in (points, default):
            want = tkd.char_from_distribution(q, grid).values
            assert max_abs(tkd.char_fn(p, obs, grid, kind=kind).values - want) <= TOL
        if p.n_steps <= 2:
            want = tkd.char_from_distribution(q, points[-1:]).values[0]
            assert abs(tkd.circuit_sim(p, obs, points[-1], kind=kind).exact - want) <= TOL

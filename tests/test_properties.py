"""Property tests: the batched passes, χ and the temporal states against the
brute-force oracle.

Processes mix unitary and CPTP steps (d in {2, 3}, up to three steps) and
schedules draw spectra from a small value set, so degenerate observables and
single-outcome measurements come up. Examples are derandomized, so every run
checks the same cases. Distributions, correlators and χ use the contract
tolerance of 1e-12, states against the oracle that of 1e-10.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import tkd
from tkd.linops import max_abs
from tkd.oracle import _direct_correlator, _direct_correlator_doubled
from test_tomography import _born_kron

TOL = 1e-12
SETTINGS = settings(max_examples=40, derandomize=True, deadline=None, database=None)
# the oracle spends ~0.5 s per d=3, n=2 correlator tensor, so fewer examples here
CORRELATOR_SETTINGS = settings(SETTINGS, max_examples=20)
# a d=3, n=2 oracle state sums 729 direct correlators (~0.12 s per kind)
STATE_SETTINGS = settings(SETTINGS, max_examples=20)
STATE_TOL = 1e-10
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
        want = tkd.char_from_distribution(q, points[-1:]).values[0]
        assert abs(tkd.circuit_sim(p, obs, points[-1], kind=kind).exact - want) <= TOL


def _jordan_expansion(p) -> np.ndarray:
    """{A_n, ...{A_1, R}...}/2^n expanded into its 2^n ordered products, with A_k
    the Jamiolkowski operator of step k on slots (t_k, t_{k-1}) and R = ρ on t_0,
    all padded to the full latest-first space."""
    dims = p.dims
    terms = [np.kron(np.eye(int(np.prod(dims[1:]))), p.rho0)]
    for k, c in enumerate(p.channels, 1):
        a = tkd.kron_chain([np.eye(int(np.prod(dims[k + 1:]))), tkd.jamiolkowski(c),
                            np.eye(int(np.prod(dims[:k - 1])))])
        terms = [a @ t for t in terms] + [t @ a for t in terms]
    return sum(terms) / 2 ** p.n_steps


@STATE_SETTINGS
@given(st.data())
def test_states_match_oracle(data):
    p = data.draw(processes(max_steps=2))
    right = tkd.kd_state_recursive(p)
    mh = tkd.mh_state(p)
    assert max_abs(right.matrix - tkd.oracle_state(p, "right").matrix) <= STATE_TOL
    left = tkd.kd_state_recursive(p, kind="kd_left").matrix
    assert max_abs(left - tkd.oracle_state(p, "left").matrix) <= STATE_TOL
    assert max_abs(mh.matrix - tkd.oracle_state(p, "mh").matrix) <= STATE_TOL

    pdo = tkd.pdo(p).matrix
    assert max_abs(pdo - _jordan_expansion(p)) <= TOL
    if p.dims[0] == 2:  # the lvn resynthesis is the pdo only for qubits
        assert max_abs(pdo - tkd.oracle_state(p, "lvn").matrix) <= STATE_TOL

    s = data.draw(schedules(p.dims))
    q = tkd.kd_right(p, s)
    qm = tkd.mh_from_kd(q)
    for idx in np.ndindex(q.values.shape):
        projs = [m.outcomes[i].projector for m, i in zip(s, idx)]
        assert abs(tkd.born_eval(right, projs) - q.values[idx]) <= TOL
        assert abs(tkd.born_eval(mh, projs) - qm.values[idx]) <= TOL


def _small_doubled(p) -> bool:
    """Doubled states are (Π d)² wide; keep them to qubits, or d=3 with one step."""
    return p.dims[0] == 2 or p.n_steps <= 1


@STATE_SETTINGS
@given(st.data())
def test_tomography_matches_the_read_off(data):
    p = data.draw(processes(max_steps=2))
    read_off = {"right": tkd.kd_state_recursive(p), "left": tkd.kd_state_recursive(p, kind="kd_left"),
                "mh": tkd.mh_state(p)}
    if p.dims[0] == 2:  # the lvn resynthesis is the pdo only for qubits
        read_off["lvn"] = tkd.pdo(p)
    if _small_doubled(p):
        read_off["doubled"] = tkd.kd_state_recursive(p, kind="kd_doubled")
    for kind, y in read_off.items():
        t = tkd.reconstruct_state(tkd.correlators(p, kind=kind))
        assert t.kind == y.kind
        assert max_abs(t.matrix - y.matrix) <= STATE_TOL


@STATE_SETTINGS
@given(st.data())
def test_born_rule_on_doubled_and_pdo_states(data):
    p = data.draw(processes(max_steps=2))
    ket = data.draw(schedules(p.dims))
    bra = data.draw(schedules(p.dims))

    def projs(sched, idx):
        return [m.outcomes[i].projector for m, i in zip(sched, idx)]

    if _small_doubled(p):
        yd = tkd.kd_state_recursive(p, kind="kd_doubled")
        q = tkd.kd_doubled(p, ket, bra).values
        seq = tkd.lvn(p, ket).values
        for i in np.ndindex(seq.shape):
            assert abs(tkd.born_eval(yd, projs(ket, i), projs(ket, i)) - seq[i]) <= TOL
            for j in np.ndindex(q.shape[p.n_times:]):
                assert abs(tkd.born_eval(yd, projs(ket, i), projs(bra, j)) - q[i + j]) <= TOL

    if p.n_times <= 2:  # the pdo and the mh distribution drift apart from three times on
        y = tkd.pdo(p)
        qm = tkd.mh_from_kd(tkd.kd_right(p, ket)).values
        for i in np.ndindex(qm.shape):
            assert abs(tkd.born_eval(y, projs(ket, i)) - qm[i]) <= TOL


@st.composite
def rect_processes(draw) -> tkd.MultiTimeProcess:
    """Two or three times with per-time dims drawn from {1, 2, 3}; each step is
    a random isometry d_in → d_out split into d_in Kraus operators."""
    dims = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=2, max_size=3))
    rng = np.random.default_rng(draw(SEEDS))
    chain = []
    for d_in, d_out in zip(dims, dims[1:]):
        g = rng.normal(size=(d_in * d_out, d_in)) + 1j * rng.normal(size=(d_in * d_out, d_in))
        chain.append(tkd.QuantumChannel(list(np.linalg.qr(g)[0].reshape(d_in, d_out, d_in))))
    return tkd.MultiTimeProcess(tkd.random_density(dims[0], rng), chain)


@STATE_SETTINGS
@given(st.data())
def test_born_eval_matches_the_kron_formula(data):
    p = data.draw(st.one_of(processes(max_steps=2), rect_processes()))
    rng = np.random.default_rng(data.draw(SEEDS))

    def ops():  # general non-Hermitian factors, one per time
        return [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in p.dims]

    for y in (tkd.kd_state_recursive(p), tkd.kd_state_recursive(p, kind="kd_left"), tkd.pdo(p)):
        f = ops()
        assert abs(tkd.born_eval(y, f) - _born_kron(y, f)) <= TOL
    if np.prod(p.dims) <= 12:  # the kron reference is (Π d)² wide on a doubled state
        yd = tkd.kd_state_recursive(p, kind="kd_doubled")
        ket, bra = ops(), ops()
        assert abs(tkd.born_eval(yd, ket, bra) - _born_kron(yd, ket, bra)) <= TOL


def _witness_reference(p, s) -> tuple[float, tuple]:
    """The documented witness as a plain loop: back-evolve with adjoint_apply,
    take the spectral norm of every pair in visiting order, and return the
    largest norm with the first pair within 1e-12·max(1, largest) of it."""
    n = p.n_steps
    found = []
    for idx in np.ndindex(*(len(m.outcomes) for m in s[1:])):
        later = np.eye(p.dims[-1])  # E_1†(Π_b1·E_2†(...E_n†(Π_bn)))
        for k in range(n, 0, -1):
            later = tkd.adjoint_apply(p.channels[k - 1], s[k].outcomes[idx[k - 1]].projector @ later)
        labels = tuple(m.outcomes[i].label for m, i in zip(s[1:], idx))
        for o in s[0].outcomes:
            c = later @ o.projector - o.projector @ later
            found.append((np.linalg.norm(c, ord=2),
                          ((tuple(range(1, n + 1)), labels), ((0,), (o.label,)))))
    if all(len(c.kraus) == 1 for c in p.channels):  # one TP Kraus operator is a unitary

        def back(op, k):
            for c in reversed(p.channels[:k]):
                op = tkd.adjoint_apply(c, op)
            return op

        for k in range(n + 1):
            for l in range(k + 1, n + 1):
                for a in s[k].outcomes:
                    for b in s[l].outcomes:
                        x, y = back(a.projector, k), back(b.projector, l)
                        found.append((np.linalg.norm(x @ y - y @ x, ord=2),
                                      (((k,), (a.label,)), ((l,), (b.label,)))))
    best = max(norm for norm, _ in found)
    return best, next(pair for norm, pair in found if norm >= best - 1e-12 * max(1.0, best))


@st.composite
def commuting_instances(draw):
    """Unitaries and observables diagonal in one shared basis (the computational
    one, or a Haar-rotated one where every commutator is rounding noise)."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(SEEDS))
    v = tkd.haar_unitary(d, rng) if draw(st.booleans()) else np.eye(d)

    def diagonal(entries):
        return v @ np.diag(entries) @ np.conj(v.T)

    chain = [tkd.QuantumChannel([diagonal(np.exp(1j * rng.uniform(0, 2 * np.pi, d)))])
             for _ in range(n)]
    values = st.lists(st.sampled_from([-1.0, 0.0, 1.0, 2.5]), min_size=d, max_size=d)
    s = [tkd.spectral_measurement(diagonal(draw(values))) for _ in range(n + 1)]
    return tkd.MultiTimeProcess(tkd.random_density(d, rng), chain), s


def _plane(i: int, j: int) -> np.ndarray:
    """A qutrit observable with eigenvalues 1, 2, 3, Hadamard-rotated in the (i, j) plane."""
    u = np.eye(3, dtype=np.complex128)
    u[np.ix_([i, j], [i, j])] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    return u @ np.diag([1.0, 2.0, 3.0]) @ np.conj(u.T)


_W3 = np.exp(2j * np.pi / 3)
# per dimension: a few unitary steps, and observables that commute or clash exactly
STRUCTURED = {
    2: ({"I": np.eye(2), "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2), "S": np.diag([1, 1j])},
        {"X": np.array([[0, 1], [1, 0]]), "Y": np.array([[0, -1j], [1j, 0]]),
         "Z": np.diag([1.0, -1.0])}),
    3: ({"I": np.eye(3), "P": np.roll(np.eye(3), 1, axis=0),
         "F": np.array([[1, 1, 1], [1, _W3, _W3 ** 2], [1, _W3 ** 2, _W3]]) / np.sqrt(3)},
        {"Z": np.diag([1.0, 2.0, 3.0]), "R01": _plane(0, 1), "R02": _plane(0, 2),
         "R12": _plane(1, 2)}),
}


@st.composite
def structured_instances(draw):
    """Qubit Clifford steps with Pauli measurements, or qutrit shift and Fourier
    steps with plane-rotated measurements: many commutator norms tie exactly,
    across time pairs too, so the visiting order decides ``worst_pair``."""
    d = draw(st.sampled_from(sorted(STRUCTURED)))
    steps, observables = STRUCTURED[d]
    n = draw(st.integers(1, 3 if d == 2 else 2))
    chain = draw(st.lists(st.sampled_from(sorted(steps)), min_size=n, max_size=n))
    obs = draw(st.lists(st.sampled_from(sorted(observables)), min_size=n + 1, max_size=n + 1))
    p = tkd.MultiTimeProcess(tkd.random_density(d, draw(SEEDS)),
                             [tkd.QuantumChannel([steps[u]]) for u in chain])
    return p, [tkd.spectral_measurement(observables[x]) for x in obs]


@settings(SETTINGS, max_examples=120)
@given(st.data())
def test_witness_matches_reference_loop(data):
    kind = data.draw(st.sampled_from(["random", "commuting", "structured"]))
    if kind == "random":
        p = data.draw(processes())
        s = data.draw(schedules(p.dims))
    else:
        p, s = data.draw(commuting_instances() if kind == "commuting" else structured_instances())
    rep = tkd.classicality_witness(p, s)
    want = float(np.sum(np.abs(tkd.oracle_kd(p, s, "kd_right").values))) - 1.0
    assert abs(rep.nonclassicality - want) <= TOL
    if p.n_steps == 0:
        assert rep.max_commutator_norm == 0.0 and rep.worst_pair is None
        return
    best, pair = _witness_reference(p, s)
    assert abs(rep.max_commutator_norm - best) <= TOL
    assert rep.worst_pair == pair


def test_witness_visiting_order_on_exact_ties():
    # every two-step qutrit chain of shift and Fourier steps, under every choice
    # of plane-rotated measurements: ties across time pairs are common here
    steps, observables = STRUCTURED[3]
    rho = tkd.random_density(3, 5)
    for chain in itertools.product("FP", repeat=2):
        p = tkd.MultiTimeProcess(rho, [tkd.QuantumChannel([steps[u]]) for u in chain])
        for obs in itertools.product(sorted(observables), repeat=3):
            s = [tkd.spectral_measurement(observables[x]) for x in obs]
            rep = tkd.classicality_witness(p, s)
            best, pair = _witness_reference(p, s)
            assert abs(rep.max_commutator_norm - best) <= TOL
            assert rep.worst_pair == pair, (chain, obs)

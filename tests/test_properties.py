"""Property tests: the batched passes, χ and the temporal states against the
brute-force oracle.

Processes mix unitary and CPTP steps (d in {2, 3}, up to three steps), or
change dimension at each step through isometries (d in {1, 2, 3}), and
schedules draw spectra from a small value set, so degenerate observables and
single-outcome measurements come up; the witness is also checked on seeded
unitary, mixed and CPTP chains of up to eight steps. Examples are derandomized, so every run
checks the same cases. Distributions, correlators and χ use the contract
tolerance of 1e-12, states against the oracle that of 1e-10. The
measure-and-prepare channel kinds and depolarizing are checked against their
defining actions on arbitrary matrices, at 1e-12.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest  # type: ignore
from hypothesis import given, settings
from hypothesis import strategies as st

import tkd
from tkd.linops import max_abs
from tkd.oracle import _direct_correlator, _direct_correlator_doubled
from conftest import born_diagonal, isometry_process, joint_traces, table_dev
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
def processes(draw, max_steps: int = 3, dims=(2, 3), min_steps: int = 0) -> tkd.MultiTimeProcess:
    d = draw(st.sampled_from(dims))
    rng = np.random.default_rng(draw(SEEDS))
    n = draw(st.sampled_from(range(max_steps, min_steps - 1, -1)))
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


@SETTINGS
@given(st.data())
def test_passes_match_oracle(data):
    p = data.draw(st.one_of(processes(), rect_processes()))
    ket = data.draw(schedules(p.dims))
    bra = data.draw(schedules(p.dims))

    for kind, fn in (("kd_right", tkd.kd_right), ("kd_left", tkd.kd_left)):
        want = tkd.oracle_kd(p, ket, kind).values
        assert max_abs(fn(p, ket).values - want) <= TOL
        assert table_dev(joint_traces(p, tkd.joint_ops(p, ket, kind=kind)), want) <= TOL
    want = tkd.oracle_kd(p, ket, "mh").values
    assert max_abs(tkd.mh_from_kd(tkd.kd_right(p, ket)).values - want) <= TOL

    want = tkd.oracle_kd(p, ket, "kd_doubled", bra=bra).values
    assert max_abs(tkd.kd_doubled(p, ket, bra).values - want) <= TOL
    joint = tkd.joint_ops(p, ket, kind="kd_doubled", bra=bra)
    assert table_dev(joint_traces(p, joint), want) <= TOL

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
    p = data.draw(st.one_of(processes(), rect_processes()))
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
        if all(c.d_in == c.d_out for c in p.channels):
            want = tkd.char_from_distribution(q, points[-1:]).values[0]
            assert abs(tkd.circuit_sim(p, obs, points[-1], kind=kind).exact - want) <= TOL
        else:  # the interferometer dilates each step into a unitary, which needs d_in = d_out
            with pytest.raises(tkd.ValidationError, match="^stinespring needs a square channel$"):
                tkd.circuit_sim(p, obs, points[-1], kind=kind)


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
    if p.dims[0] == 2:  # the lvn resynthesis is the pdo only where every time has dim 1 or 2
        assert max_abs(pdo - tkd.oracle_state(p, "lvn").matrix) <= STATE_TOL

    s = data.draw(schedules(p.dims))
    stacks = [m.projectors for m in s]
    q = tkd.kd_right(p, s)
    assert table_dev(tkd.born_eval(right, stacks), q.values) <= TOL
    assert table_dev(tkd.born_eval(mh, stacks), tkd.mh_from_kd(q).values) <= TOL


@STATE_SETTINGS
@given(st.data())
def test_tomography_matches_the_read_off(data):
    p = data.draw(st.one_of(processes(max_steps=2), rect_processes()))
    read_off = {"right": tkd.kd_state_recursive(p), "left": tkd.kd_state_recursive(p, kind="kd_left"),
                "mh": tkd.mh_state(p)}
    if max(p.dims) <= 2:  # the lvn resynthesis is the pdo only where every time has dim 1 or 2
        read_off["lvn"] = tkd.pdo(p)
    else:
        with pytest.raises(tkd.ValidationError, match="only on dims 1 and 2"):
            tkd.reconstruct_state(tkd.correlators(p, kind="lvn"))
    if np.prod(p.dims) <= 12:  # doubled states are (Π d)² wide
        read_off["doubled"] = tkd.kd_state_recursive(p, kind="kd_doubled")
    for kind, y in read_off.items():
        t = tkd.reconstruct_state(tkd.correlators(p, kind=kind))
        assert t.kind == y.kind
        assert max_abs(t.matrix - y.matrix) <= STATE_TOL


STATE_READ_OFFS = {
    "kd_right": tkd.kd_state_recursive,
    "kd_left": lambda p: tkd.kd_state_recursive(p, kind="kd_left"),
    "kd_doubled": lambda p: tkd.kd_state_recursive(p, kind="kd_doubled"),
    "mh": tkd.mh_state,
    "pdo": tkd.pdo,
}


@STATE_SETTINGS
@given(st.data())
def test_reductions_match_the_read_offs_on_rectangular_chains(data):
    """reduce_state equals the read-off of the sub-process for every kind, and
    the block traces of the doubled state give the right and left read-offs."""
    p = data.draw(rect_processes())
    kinds = [k for k in STATE_READ_OFFS if k != "kd_doubled" or np.prod(p.dims) <= 12]
    states = {kind: STATE_READ_OFFS[kind](p) for kind in kinds}
    for keep in itertools.chain.from_iterable(
            itertools.combinations(range(p.n_times), r) for r in range(1, p.n_times + 1)):
        sub = tkd.sub_process(p, keep)
        for kind, y in states.items():
            red = tkd.reduce_state(y, keep)
            assert red.kind == kind and red.dims == sub.dims
            assert max_abs(red.matrix - STATE_READ_OFFS[kind](sub).matrix) <= TOL
    if "kd_doubled" in states:
        right, left = tkd.trace_ket_block(states["kd_doubled"]), tkd.trace_bra_block(states["kd_doubled"])
        assert max_abs(right.matrix - states["kd_right"].matrix) <= TOL
        assert max_abs(left.matrix - states["kd_left"].matrix) <= TOL


# (d, steps) of the Born-rule chains: every example runs each one, since a drawn shape can be
# missed. Doubled states are (Π d)² wide, 1024 at five qubit times and 81 at two qutrit times.
BORN_SHAPES = [(2, n) for n in range(5)] + [(3, n) for n in range(2)]


@settings(STATE_SETTINGS, max_examples=3)
@given(st.data())
def test_born_rule_on_doubled_and_pdo_states(data):
    for d, steps in BORN_SHAPES:
        p = data.draw(processes(max_steps=steps, dims=(d,), min_steps=steps))
        ket, bra = data.draw(schedules(p.dims)), data.draw(schedules(p.dims))
        kp, bp = [m.projectors for m in ket], [m.projectors for m in bra]
        yd = tkd.kd_state_recursive(p, kind="kd_doubled")
        assert table_dev(tkd.born_eval(yd, kp, bp), tkd.kd_doubled(p, ket, bra).values) <= TOL
        assert table_dev(born_diagonal(yd, kp), tkd.lvn(p, ket).values) <= TOL
        if p.n_times <= 2:  # the pdo and the mh distribution drift apart from three times on
            qm = tkd.mh_from_kd(tkd.kd_right(p, ket)).values
            assert table_dev(tkd.born_eval(tkd.pdo(p), kp), qm) <= TOL


@st.composite
def rect_processes(draw, dims=(1, 2, 3)) -> tkd.MultiTimeProcess:
    """Two or three times with per-time dims drawn from ``dims``; each step is
    a random isometry d_in → d_out split into d_in Kraus operators."""
    dims = draw(st.lists(st.sampled_from(dims), min_size=2, max_size=3))
    return isometry_process(dims, np.random.default_rng(draw(SEEDS)))


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
    if all(len(c.kraus) == 1 for c in p.channels):  # one TP Kraus operator is an isometry

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
    kind = data.draw(st.sampled_from(["random", "rectangular", "commuting", "structured"]))
    if kind in ("random", "rectangular"):
        p = data.draw(processes() if kind == "random" else rect_processes())
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


@pytest.mark.parametrize("d, n", [(2, 8), (3, 5), (4, 4)])
def test_witness_matches_reference_loop_at_the_regime_edge(d, n):
    # on a unitary chain each single-time operator sums the later joint
    # operators over every other later time: these sizes sum the most terms;
    # mixed and cptp chains have no single-time pairs, so only the [M, Π_0]
    # block reaches the pruning
    for kind, seed in itertools.product(("unitary", "mixed", "cptp"), (900, 1900, 2900)):
        p = tkd.random_process(d, n, seed=seed + 10 * d + n, channel_kind=kind)
        s = tkd.random_schedule(p.dims, seed=seed + 10 * d + n + 1)
        rep = tkd.classicality_witness(p, s)
        best, pair = _witness_reference(p, s)
        assert abs(rep.max_commutator_norm - best) <= TOL
        assert rep.worst_pair == pair, (kind, seed)


@STATE_SETTINGS
@given(st.data())
def test_averaged_side_traces_of_the_doubled_state_give_the_pdo(data):
    # at each time keep the ket or the bra factor of the doubled state; the
    # average over all 2^n choices is the process's pdo (the paper's unification)
    p = data.draw(processes(dims=(2,)))
    y = tkd.kd_state_recursive(p, kind="kd_doubled")
    nt = p.n_times
    t = y.matrix.reshape(y.factor_dims * 2)
    rows, cols = list(range(2 * nt)), list(range(2 * nt, 4 * nt))
    total = 0
    for keep_bra in itertools.product((False, True), repeat=nt):
        # factor j < nt is the ket factor of time nt-1-j, factor nt + j its bra factor
        kept = [nt + j if keep_bra[nt - 1 - j] else j for j in range(nt)]
        legs = [cols[f] if f in kept else f for f in rows]  # traced: column leg = row leg
        total = total + np.einsum(t, rows + legs, kept + [cols[f] for f in kept])
    side = int(np.prod(p.dims))
    assert max_abs(total.reshape(side, side) / 2 ** nt - tkd.pdo(p).matrix) <= TOL


def _interleaved_kron(a: tkd.TemporalStateOperator, b: tkd.TemporalStateOperator) -> np.ndarray:
    """a ⊗ b with the factors of each time next to each other (a's first), the
    factor order of the tensor-product process's states."""
    n = a.n_times
    t = np.kron(a.matrix, b.matrix).reshape(a.factor_dims + b.factor_dims + a.factor_dims
                                             + b.factor_dims)
    legs = [x for j in range(n) for x in (j, n + j)]
    side = a.matrix.shape[0] * b.matrix.shape[0]
    return t.transpose(legs + [2 * n + x for x in legs]).reshape(side, side)


@STATE_SETTINGS
@given(st.integers(0, 2), SEEDS, SEEDS)
def test_kd_states_of_parallel_processes_factor(n, seed_p, seed_q):
    # the spatiotemporal product: the KD state of two processes run side by side
    # is the kron of their KD states, time by time
    p = tkd.random_process(2, n, seed=seed_p, channel_kind="mixed")
    q = tkd.random_process(2, n, seed=seed_q, channel_kind="cptp")
    pq = tkd.tensor_process(p, q)
    for kind in ("kd_right", "kd_left"):
        want = _interleaved_kron(tkd.kd_state_recursive(p, kind), tkd.kd_state_recursive(q, kind))
        assert max_abs(tkd.kd_state_recursive(pq, kind).matrix - want) <= TOL


def test_mh_and_pdo_states_of_parallel_processes_do_not_factor():
    # Jordan-product insertions do not split across the two sites
    p = tkd.random_process(2, 1, seed=71, channel_kind="mixed")
    q = tkd.random_process(2, 1, seed=72, channel_kind="cptp")
    pq = tkd.tensor_process(p, q)
    for state in (tkd.mh_state, tkd.pdo):
        assert max_abs(state(pq).matrix - _interleaved_kron(state(p), state(q))) > 1e-3


def _containers():
    """Each result container as (values, rebuild from values), on a seeded qubit pair."""
    p = tkd.random_process(2, 1, seed=81, channel_kind="mixed")
    s = tkd.random_schedule(p.dims, seed=82)
    out = {}
    for q in (tkd.kd_right(p, s), tkd.mh_from_kd(tkd.kd_right(p, s)), tkd.lvn(p, s)):
        out[f"distribution {q.kind}"] = (q.values, lambda v, q=q: tkd.QuasiDistribution(
            q.kind, q.axes, v, tol=q.tol))
    for y in (tkd.kd_state_recursive(p), tkd.pdo(p)):
        out[f"state {y.kind}"] = (y.matrix, lambda v, y=y: tkd.TemporalStateOperator(
            y.kind, y.dims, v, tol=y.tol))
    for t in (tkd.correlators(p), tkd.correlators(p, kind="mh")):
        out[f"correlators {t.kind}"] = (t.values, lambda v, t=t: tkd.CorrelatorTensor(
            t.kind, t.bases, v, tol=t.tol))
    grid = [(0.0, 0.0), (0.5, 0.0), (0.0, 1.5), (0.25, -1.0)]
    chi = tkd.char_fn(p, tkd.ObservableSchedule(bra=_observables(s)), grid)
    out["char samples"] = (chi.values, lambda v: tkd.CharSamples("right", grid, v, tol=chi.tol))
    return out


CONTAINERS = _containers()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, np.inf)],
                         ids=["nan", "inf", "-inf", "imaginary nan", "imaginary inf"])
@pytest.mark.parametrize("name", sorted(CONTAINERS))
def test_containers_refuse_non_finite_values_anywhere(name, bad):
    values, build = CONTAINERS[name]
    build(values)  # the finite original is accepted
    for idx in np.ndindex(values.shape):
        v = np.array(values, dtype=np.complex128)
        v[idx] = bad
        with pytest.raises(tkd.ValidationError):
            build(v)


@st.composite
def output_states(draw, d: int) -> np.ndarray:
    """Density matrices on C^d: full rank, or with a spectrum drawn from {0, 1, 2},
    so rank-deficient and degenerate outputs come up."""
    rng = np.random.default_rng(draw(SEEDS))
    if draw(st.booleans()):
        return tkd.random_density(d, rng)
    spectrum = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=d, max_size=d).filter(any)))
    u = tkd.haar_unitary(d, rng)
    return u @ np.diag(spectrum / spectrum.sum()) @ np.conj(u.T)


@st.composite
def instruments(draw, d: int) -> tkd.Instrument:
    """One to three branches on C^d: Lüders projectors of a degenerate observable,
    or two Kraus operators each cut from one Haar isometry."""
    rng = np.random.default_rng(draw(SEEDS))
    if draw(st.booleans()):
        m = draw(schedules([d]))[0]
        return tkd.Instrument([(o.label, [o.projector]) for o in m.outcomes])
    n = draw(st.integers(1, 3))
    g = rng.normal(size=(2 * n * d, d)) + 1j * rng.normal(size=(2 * n * d, d))
    ops = np.linalg.qr(g)[0].reshape(n, 2, d, d)
    return tkd.Instrument([(k, list(ops[k])) for k in range(n)])


def _arbitrary(d: int, rng) -> np.ndarray:
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


@SETTINGS
@given(st.data())
def test_measure_and_prepare_kinds_act_as_defined(data):
    d_in, d_out = data.draw(st.sampled_from([1, 2, 3])), data.draw(st.sampled_from([1, 2, 3]))
    x = _arbitrary(d_in, np.random.default_rng(data.draw(SEEDS)))
    omega = data.draw(output_states(d_out))
    replacement = tkd.build_channel("replacement", omega=omega, d_in=d_in)
    assert max_abs(tkd.apply_channel(replacement, x) - np.trace(x) * omega) <= TOL
    inst = data.draw(instruments(d_in))
    outputs = [data.draw(output_states(d_out)) for _ in inst.branches]
    c = tkd.build_channel("measure_replace", instrument=inst, outputs=outputs)
    want = sum(np.trace(inst.effect(k) @ x) * w for k, w in enumerate(outputs))
    assert max_abs(tkd.apply_channel(c, x) - want) <= TOL


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_depolarizing_acts_as_defined(d, p):
    c = tkd.build_channel("depolarizing", p=p, d=d)
    assert len(c.kraus) == {0.0: 1, 0.3: d * d + 1, 1.0: d * d}[p]
    if p < 1.0:  # the identity comes first
        assert max_abs(c.kraus[0] - np.sqrt(1.0 - p) * np.eye(d)) == 0.0
    x = _arbitrary(d, np.random.default_rng(d))
    want = (1.0 - p) * x + p * np.trace(x) * np.eye(d) / d
    assert max_abs(tkd.apply_channel(c, x) - want) <= TOL

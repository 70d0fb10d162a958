from __future__ import annotations

import numpy as np
import pytest  # type: ignore

import tkd
from tkd import ValidationError
from tkd.linops import max_abs
from conftest import corpus


def swap_matrix(d: int) -> np.ndarray:
    s = np.zeros((d * d, d * d))
    for k in range(d):
        for l in range(d):
            s[k * d + l, l * d + k] = 1.0
    return s


@pytest.mark.parametrize("kind", ["right", "left", "mh", "lvn"])
def test_correlator_methods_agree(kind):
    p = tkd.random_process(2, 1, seed=501, channel_kind="cptp")
    direct = tkd.correlators(p, kind=kind)
    via = tkd.oracle_correlators(p, kind)
    assert max_abs(direct.values - via.values) < 1e-10
    assert direct.kind == kind and direct.ket_axes == 0


def test_correlator_methods_agree_doubled():
    p = tkd.random_process(2, 1, seed=502, channel_kind="unitary")
    direct = tkd.correlators(p, kind="doubled")
    via = tkd.oracle_correlators(p, "doubled")
    assert max_abs(direct.values - via.values) < 1e-10
    assert direct.ket_axes == 2
    assert direct.values.shape == (4, 4, 4, 4)


def test_correlators_d3():
    p = tkd.random_process(3, 1, seed=503, channel_kind="mixed")
    direct = tkd.correlators(p, kind="right")
    via = tkd.oracle_correlators(p, "right")
    assert max_abs(direct.values - via.values) < 1e-10
    assert direct.values.shape == (9, 9)
    assert abs(direct.values[0, 0] - 1.0) < 1e-12


def test_correlator_relations():
    p = tkd.random_process(2, 2, seed=504, channel_kind="mixed")
    right = tkd.correlators(p, kind="right")
    left = tkd.correlators(p, kind="left")
    mh = tkd.correlators(p, kind="mh")
    assert max_abs(left.values - np.conj(right.values)) < 1e-12
    assert max_abs(mh.values - right.values.real) < 1e-12


def test_correlator_validation():
    b = tkd.hs_basis(2)
    vals = np.zeros((4, 4), dtype=complex)
    vals[0, 0] = 1.0
    with pytest.raises(ValidationError):
        tkd.CorrelatorTensor("weird", (b, b), vals)
    with pytest.raises(ValidationError):  # identity entry must be 1
        tkd.CorrelatorTensor("right", (b, b), np.zeros((4, 4)))
    with pytest.raises(ValidationError):  # ket block on a single-sided kind
        tkd.CorrelatorTensor("right", (b, b), vals, ket_axes=1)
    with pytest.raises(ValidationError):  # doubled needs even block split
        tkd.CorrelatorTensor("doubled", (b, b), vals, ket_axes=2)
    t = tkd.CorrelatorTensor("doubled", (b, b), vals, ket_axes=1)
    assert t.time_dims == (2,)
    p = tkd.random_process(2, 1, seed=1)
    with pytest.raises(ValidationError):
        tkd.correlators(p, bases=[b], kind="right")


@pytest.mark.parametrize("case", range(4))
def test_reconstruction_matches_recursion(case):
    p = corpus(4)[case][0]
    t = tkd.correlators(p, kind="right")
    y = tkd.reconstruct_state(t)
    fold = tkd.kd_state_recursive(p)
    assert y.kind == "kd_right" and y.dims == p.dims
    assert max_abs(y.matrix - fold.matrix) < 1e-10
    left = tkd.reconstruct_state(tkd.correlators(p, kind="left"))
    assert max_abs(left.matrix - np.conj(fold.matrix.T)) < 1e-10
    mh = tkd.reconstruct_state(tkd.correlators(p, kind="mh"))
    assert max_abs(mh.matrix - tkd.mh_state(p).matrix) < 1e-10


def test_left_state_is_dagger_of_right():
    p = tkd.random_process(3, 2, seed=505, channel_kind="mixed")
    r = tkd.kd_state_recursive(p, kind="kd_right")
    l = tkd.kd_state_recursive(p, kind="kd_left")
    assert max_abs(l.matrix - np.conj(r.matrix.T)) < 1e-14
    with pytest.raises(ValidationError):
        tkd.kd_state_recursive(p, kind="pdo")


def test_identity_two_time_state_is_swap_times_state():
    rho = tkd.random_density(2, seed=506)
    p = tkd.MultiTimeProcess(rho, [tkd.identity_channel(2)])
    y = tkd.kd_state_recursive(p)
    want = swap_matrix(2) @ np.kron(np.eye(2), rho)
    assert max_abs(y.matrix - want) < 1e-14


@pytest.mark.parametrize("case", range(4))
def test_born_eval_reproduces_distributions(case):
    p, s = corpus(4, start=6)[case]
    y = tkd.kd_state_recursive(p)
    q = tkd.kd_right(p, s)
    for idx in np.ndindex(q.values.shape):
        projs = [s[k].outcomes[i].projector for k, i in enumerate(idx)]
        assert abs(tkd.born_eval(y, projs) - q.values[idx]) < 1e-10
    m = tkd.mh_state(p)
    qm = tkd.mh_from_kd(q)
    for idx in np.ndindex(q.values.shape):
        projs = [s[k].outcomes[i].projector for k, i in enumerate(idx)]
        assert abs(tkd.born_eval(m, projs) - qm.values[idx]) < 1e-10


def test_born_eval_doubled_and_lvn():
    p, ket = corpus(1, start=1)[0]
    bra = tkd.random_schedule(p.dims, seed=66)
    t = tkd.correlators(p, kind="doubled")
    y = tkd.reconstruct_state(t)
    assert y.kind == "kd_doubled" and y.doubled
    qd = tkd.kd_doubled(p, ket, bra)
    nt = p.n_times
    for idx in np.ndindex(qd.values.shape):
        kp = [ket[k].outcomes[i].projector for k, i in enumerate(idx[:nt])]
        bp = [bra[k].outcomes[i].projector for k, i in enumerate(idx[nt:])]
        assert abs(tkd.born_eval(y, kp, bp) - qd.values[idx]) < 1e-10
    # equal projector insertions on both sides give the collapse probabilities
    ql = tkd.lvn(p, ket)
    for idx in np.ndindex(ql.values.shape):
        projs = [ket[k].outcomes[i].projector for k, i in enumerate(idx)]
        got = tkd.born_eval(y, projs, projs)
        assert abs(got - ql.values[idx]) < 1e-10


def test_born_eval_validation():
    p = tkd.random_process(2, 1, seed=2)
    y = tkd.kd_state_recursive(p)
    with pytest.raises(ValidationError):
        tkd.born_eval(y, [np.eye(2)])
    with pytest.raises(ValidationError):
        tkd.born_eval(y, [np.eye(2), np.eye(3)])
    with pytest.raises(ValidationError):
        tkd.born_eval(y, [np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)])


def test_reduce_state_single_time_is_physical_state():
    p = tkd.random_process(2, 2, seed=507, channel_kind="mixed")
    y = tkd.kd_state_recursive(p)
    for k in range(p.n_times):
        red = tkd.reduce_state(y, [k])
        assert max_abs(red.matrix - p.state_at(k)) < 1e-10


def test_reduce_state_matches_sub_process():
    p = tkd.random_process(2, 2, seed=508, channel_kind="mixed")
    y = tkd.kd_state_recursive(p)
    for keep in ([0, 1], [1, 2], [0, 2]):
        red = tkd.reduce_state(y, keep)
        sub = tkd.kd_state_recursive(tkd.sub_process(p, keep))
        assert max_abs(red.matrix - sub.matrix) < 1e-10
    with pytest.raises(ValidationError):
        tkd.reduce_state(y, [])


def test_reduce_state_doubled_tracks_marginals():
    p, ket = corpus(1)[0]
    bra = tkd.random_schedule(p.dims, seed=77)
    y = tkd.reconstruct_state(tkd.correlators(p, kind="doubled"))
    red = tkd.reduce_state(y, [p.n_times - 1])
    qd = tkd.kd_doubled(p, ket, bra)
    keep = [p.n_times - 1, 2 * p.n_times - 1]
    marg = tkd.marginalize(qd, keep)
    k = p.n_times - 1
    for i, oa in enumerate(ket[k].outcomes):
        for j, ob in enumerate(bra[k].outcomes):
            got = tkd.born_eval(red, [oa.projector], [ob.projector])
            assert abs(got - marg.values[i, j]) < 1e-10


def test_trace_blocks():
    p = tkd.random_process(2, 1, seed=509, channel_kind="cptp")
    yd = tkd.reconstruct_state(tkd.correlators(p, kind="doubled"))
    right = tkd.trace_ket_block(yd)
    left = tkd.trace_bra_block(yd)
    assert right.kind == "kd_right" and left.kind == "kd_left"
    assert max_abs(right.matrix - tkd.kd_state_recursive(p).matrix) < 1e-10
    assert max_abs(left.matrix - tkd.kd_state_recursive(p, kind="kd_left").matrix) < 1e-10
    sym = tkd.TemporalStateOperator("mh_doubled", yd.dims,
                                    (yd.matrix + np.conj(yd.matrix.T)) / 2)
    assert tkd.trace_ket_block(sym).kind == "mh"
    assert max_abs(tkd.trace_ket_block(sym).matrix - tkd.mh_state(p).matrix) < 1e-10
    with pytest.raises(ValidationError):
        tkd.trace_ket_block(right)
    with pytest.raises(ValidationError):
        tkd.trace_bra_block(left)


def test_pdo_two_time_equals_mh():
    for seed in range(3):
        p = tkd.random_process(2 + seed % 2, 1, seed=510 + seed, channel_kind="mixed")
        assert max_abs(tkd.pdo(p).matrix - tkd.mh_state(p).matrix) < 1e-12


def test_pdo_three_time_four_term_expansion():
    p = tkd.random_process(2, 2, seed=511, channel_kind="mixed")
    d = 2
    j1 = tkd.jamiolkowski(p.channels[0])
    j2 = tkd.jamiolkowski(p.channels[1])
    a = np.kron(j2, np.eye(d))          # acts on slots (t2, t1)
    b = np.kron(np.eye(d), j1)          # acts on slots (t1, t0)
    r = np.kron(np.eye(d * d), p.rho0)  # acts on slot t0
    want = (a @ b @ r + a @ r @ b + b @ r @ a + r @ b @ a) / 4
    assert max_abs(tkd.pdo(p).matrix - want) < 1e-12


def test_pdo_identity_process_maximally_mixed():
    p = tkd.MultiTimeProcess(np.eye(2) / 2, [tkd.identity_channel(2)])
    y = tkd.pdo(p)
    assert max_abs(y.matrix - swap_matrix(2) / 2) < 1e-14
    eig = np.sort(y.eigenvalues())
    assert np.allclose(eig, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_pdo_differs_from_mh_at_three_times():
    p = tkd.random_process(2, 2, seed=512, channel_kind="mixed")
    gap = float(np.linalg.norm(tkd.pdo(p).matrix - tkd.mh_state(p).matrix))
    assert gap > 1e-6


def test_lvn_reconstruction_equals_pdo_for_qubits():
    # value-weighted collapse along +/-1 observables is the Jordan product,
    # so the lvn correlator tensor resynthesizes to the pdo; qubit-only fact
    p = tkd.random_process(2, 2, seed=513, channel_kind="mixed")
    y = tkd.reconstruct_state(tkd.correlators(p, kind="lvn"))
    assert y.kind == "pdo"
    assert max_abs(y.matrix - tkd.pdo(p).matrix) < 1e-10


def test_eigenvalues_and_state_validation():
    p = tkd.random_process(2, 1, seed=514, channel_kind="mixed")
    y = tkd.kd_state_recursive(p)
    ev = y.eigenvalues()
    assert abs(ev.sum() - 1.0) < 1e-10
    m = tkd.mh_state(p)
    assert max_abs(m.eigenvalues().imag) == 0.0
    with pytest.raises(ValidationError):
        tkd.TemporalStateOperator("kd_right", (2, 2), np.eye(4))  # trace 4
    with pytest.raises(ValidationError):
        tkd.TemporalStateOperator("mh", (2, 2), y.matrix)  # not Hermitian
    with pytest.raises(ValidationError):
        tkd.TemporalStateOperator("bogus", (2, 2), np.eye(4) / 4)
    with pytest.raises(ValidationError):
        tkd.TemporalStateOperator("kd_right", (2, 3), y.matrix)


def test_star_shared_dim_validation():
    with pytest.raises(ValidationError):
        tkd.star(np.eye(4), np.eye(4), 3)

from __future__ import annotations

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest  # type: ignore

import tkd
from tkd import ValidationError
from tkd.linops import max_abs
from tkd.oracle import oracle_kd
from conftest import corpus, isometry_process, joint_traces, table_dev
from test_properties import _witness_reference

SQRT2 = np.sqrt(2.0)


def test_process_validation():
    with pytest.raises(ValidationError):
        tkd.MultiTimeProcess(np.eye(2))  # trace 2
    rho = np.eye(2) / 2
    with pytest.raises(ValidationError):  # non-TP step
        tkd.MultiTimeProcess(rho, [tkd.QuantumChannel([np.eye(2) / 2])])
    with pytest.raises(ValidationError):  # dim mismatch along the chain
        tkd.MultiTimeProcess(rho, [tkd.identity_channel(3)])
    p = tkd.MultiTimeProcess(rho, [tkd.identity_channel(2)])
    assert p.n_steps == 1 and p.n_times == 2 and p.dims == (2, 2)
    with pytest.raises(ValidationError, match="^tensor_process needs equal step counts$"):
        tkd.tensor_process(p, tkd.MultiTimeProcess(rho))
    with pytest.raises(ValidationError, match="^schedules differ in length$"):
        tkd.tensor_schedule(tkd.random_schedule(p.dims, seed=1), tkd.random_schedule([2], seed=2))
    with pytest.raises(ValidationError, match="^unknown channel_kind 'bogus'$"):
        tkd.random_process(2, 1, seed=0, channel_kind="bogus")


@pytest.mark.parametrize("rho, chain, field, message", [
    (np.eye(2), [], ("rho0",), "state trace differs from 1"),
    (np.eye(2) / 2, [tkd.identity_channel(2), tkd.QuantumChannel([np.eye(2) / 2])], ("channels", 1),
     "channel 1 is not trace preserving, defect 7.500e-01"),
    (np.eye(2) / 2, [tkd.identity_channel(3)], ("channels", 0), "channel 0 expects dim 3, chain carries 2"),
    (np.eye(2) / 2, [tkd.QuantumChannel([np.diag([1e308, 1.0])])], ("channels", 0),
     "channel 0 is not trace preserving, defect inf"),  # Σ K†K overflows, without a warning
], ids=["state", "non-TP step", "dim mismatch", "overflowing step"])
def test_process_refusal_carries_its_field(rho, chain, field, message):
    with pytest.raises(ValidationError) as e:
        tkd.MultiTimeProcess(rho, chain)
    assert e.value.field == field and str(e.value) == message


def test_state_at(pauli):
    rho = tkd.projector(tkd.basis_state(2, 0))
    p = tkd.MultiTimeProcess(rho, [tkd.build_channel("unitary", u=pauli["X"])])
    assert max_abs(p.state_at(0) - rho) == 0.0
    assert max_abs(p.state_at(1) - tkd.projector(tkd.basis_state(2, 1))) < 1e-14
    with pytest.raises(ValidationError):
        p.state_at(2)


def test_sub_process_composes_channels():
    p = tkd.random_process(2, 3, seed=3, channel_kind="mixed")
    sub = tkd.sub_process(p, [1, 3])
    assert sub.n_times == 2
    assert max_abs(sub.rho0 - p.state_at(1)) < 1e-12
    rho3 = tkd.apply_channel(sub.channels[0], sub.rho0)
    assert max_abs(rho3 - p.state_at(3)) < 1e-12
    with pytest.raises(ValidationError):
        tkd.sub_process(p, [])
    with pytest.raises(ValidationError):
        tkd.sub_process(p, [0, 5])


def test_xy_qubit_closed_form(xy_process):
    p, s = xy_process
    q = tkd.kd_right(p, s)
    # axes ascending in time, outcomes ascending in eigenvalue (-1 first)
    want = np.array([[(1 + 1j), (1 - 1j)], [(1 - 1j), (1 + 1j)]]) / 4
    assert max_abs(q.values - want) < 1e-12
    assert abs(tkd.nonclassicality(q) - (SQRT2 - 1)) < 1e-12
    assert abs(tkd.nonclassicality(q, variant="log") - np.log(SQRT2)) < 1e-12


def test_hadamard_zz_is_classical(pauli):
    h = np.array([[1, 1], [1, -1]]) / SQRT2
    p = tkd.MultiTimeProcess(tkd.projector(tkd.basis_state(2, 0)),
                             [tkd.build_channel("unitary", u=h)])
    s = [tkd.spectral_measurement(pauli["Z"])] * 2
    q = tkd.kd_right(p, s)
    want = np.array([[0.0, 0.0], [0.5, 0.5]])  # z0=+1 row splits evenly
    assert max_abs(q.values - want) < 1e-12
    assert tkd.nonclassicality(q) < 1e-12


@pytest.mark.parametrize("case", range(10))
def test_left_is_conjugate_of_right(case):
    p, s = corpus(10)[case]
    ql = tkd.kd_left(p, s)
    qr = tkd.kd_right(p, s)
    assert max_abs(ql.values - np.conj(qr.values)) < 1e-12


@pytest.mark.parametrize("case", range(6))
def test_doubled_block_sums_and_diagonal(case):
    p, ket = corpus(6)[case]
    bra = tkd.random_schedule(p.dims, seed=900 + case)
    qd = tkd.kd_doubled(p, ket, bra)
    nt = p.n_times
    assert qd.ket_axes == nt

    ket_sum = qd.values.sum(axis=tuple(range(nt)))
    assert max_abs(ket_sum - tkd.kd_right(p, bra).values) < 1e-12
    bra_sum = qd.values.sum(axis=tuple(range(nt, 2 * nt)))
    assert max_abs(bra_sum - tkd.kd_left(p, ket).values) < 1e-12

    # equal schedules on both sides: the diagonal is the collapse distribution
    qd2 = tkd.kd_doubled(p, ket, ket)
    diag = np.array([qd2.values[idx + idx] for idx in np.ndindex(tkd.kd_right(p, ket).values.shape)])
    assert max_abs(diag - tkd.lvn(p, ket).values.reshape(-1)) < 1e-12


def test_rectangular_chain():
    # qutrit at t_0, replaced by a qubit state (3 -> 2), then a qubit unitary
    omega = tkd.random_density(2, seed=81)
    u = tkd.haar_unitary(2, seed=82)
    chain = [tkd.build_channel("replacement", omega=omega, d_in=3), tkd.QuantumChannel([u])]
    p = tkd.MultiTimeProcess(tkd.random_density(3, seed=80), chain)
    assert p.dims == (3, 2, 2)
    ket = tkd.random_schedule(p.dims, seed=83)
    bra = tkd.random_schedule(p.dims, seed=84)
    nt = p.n_times

    qr, ql, qd = tkd.kd_right(p, bra), tkd.kd_left(p, ket), tkd.kd_doubled(p, ket, bra)
    assert qd.values.shape == (3, 2, 2, 3, 2, 2)
    assert max_abs(qd.values.sum(axis=tuple(range(nt))) - qr.values) < 1e-12
    assert max_abs(qd.values.sum(axis=tuple(range(nt, 2 * nt))) - ql.values) < 1e-12
    assert max_abs(tkd.kd_left(p, bra).values - np.conj(qr.values)) < 1e-12

    # the replacement factorizes Q into Tr[ρΠ_{b0}]·Tr[U(ωΠ_{b1})U†Π_{b2}]
    for b0, b1, b2 in np.ndindex(qr.values.shape):
        first = np.trace(p.rho0 @ bra[0].outcomes[b0].projector)
        later = np.trace(u @ omega @ bra[1].outcomes[b1].projector @ np.conj(u.T)
                         @ bra[2].outcomes[b2].projector)
        assert abs(qr.values[b0, b1, b2] - first * later) < 1e-12

    qsame = tkd.kd_doubled(p, ket, ket)
    side = int(np.prod(qsame.values.shape[:nt]))
    diag = qsame.values.reshape(side, side).diagonal()
    q_lvn = tkd.lvn(p, ket)
    assert max_abs(diag - q_lvn.values.reshape(-1)) < 1e-12
    for q in (qr, ql, qd, qsame, q_lvn):
        assert abs(q.total() - 1.0) < 1e-12

    # the oracle, the backward pass and the witness take the same chain
    assert max_abs(qr.values - oracle_kd(p, bra).values) < 1e-12
    assert max_abs(ql.values - oracle_kd(p, ket, "kd_left").values) < 1e-12
    assert max_abs(qd.values - oracle_kd(p, ket, "kd_doubled", bra=bra).values) < 1e-12
    assert table_dev(joint_traces(p, tkd.joint_ops(p, bra)), qr.values) < 1e-12
    assert table_dev(joint_traces(p, tkd.joint_ops(p, ket, kind="kd_doubled", bra=bra)), qd.values) < 1e-12
    rep = tkd.classicality_witness(p, bra)
    assert abs(rep.nonclassicality - tkd.nonclassicality(qr)) < 1e-12
    best, pair = _witness_reference(p, bra)
    assert abs(rep.max_commutator_norm - best) < 1e-12 and rep.worst_pair == pair


def test_lvn_is_a_probability_distribution():
    p, s = corpus(1, start=3)[0]
    q = tkd.lvn(p, s)
    assert q.kind == "lvn"
    assert max_abs(q.values.imag) < 1e-14
    assert q.values.real.min() > -1e-14
    assert abs(q.total() - 1.0) < 1e-12


def test_mh_from_kd():
    p, s = corpus(1, start=1)[0]
    q = tkd.kd_right(p, s)
    m = tkd.mh_from_kd(q)
    assert m.kind == "mh"
    assert max_abs(m.values - q.values.real) < 1e-15
    with pytest.raises(ValidationError):
        tkd.mh_from_kd(m)


def test_distribution_validation():
    ax = (tkd.Outcome(1.0, None, "a"), tkd.Outcome(-1.0, None, "b"))
    with pytest.raises(ValidationError):  # does not sum to 1
        tkd.QuasiDistribution("kd_right", (ax,), np.array([0.5, 0.4]))
    with pytest.raises(ValidationError):  # unknown kind
        tkd.QuasiDistribution("weird", (ax,), np.array([0.5, 0.5]))
    with pytest.raises(ValidationError):  # ket block on a single-sided kind
        tkd.QuasiDistribution("kd_right", (ax,), np.array([0.5, 0.5]), ket_axes=1)
    with pytest.raises(ValidationError):  # lvn must be real
        tkd.QuasiDistribution("lvn", (ax,), np.array([0.5 + 0.1j, 0.5 - 0.1j]))
    with pytest.raises(ValidationError):  # lvn must be nonnegative
        tkd.QuasiDistribution("lvn", (ax,), np.array([1.5, -0.5]))
    with pytest.raises(ValidationError, match="^values shape does not match axes$"):
        tkd.QuasiDistribution("kd_right", (ax,), np.array([0.5, 0.25, 0.25]))
    with pytest.raises(ValidationError, match="^ket_axes out of range$"):
        tkd.QuasiDistribution("kd_doubled", (ax,), np.array([0.5, 0.5]), ket_axes=2)
    q = tkd.QuasiDistribution("kd_right", (ax,), np.array([0.75, 0.25]))
    assert q.axis_labels(0) == ("a", "b")
    assert np.allclose(q.axis_values(0), [1.0, -1.0])


@pytest.mark.parametrize("case", range(5))
def test_marginal_matches_sub_process(case):
    # restriction consistency: summing axes out equals evaluating the shorter chain
    p = tkd.random_process(2, 3, seed=700 + case, channel_kind="mixed")
    s = tkd.random_schedule(p.dims, seed=800 + case)
    q = tkd.kd_right(p, s)
    for keep in ([0, 1], [0, 3], [1, 2], [2, 3], [0, 2], [1, 3]):
        got = tkd.marginalize(q, keep)
        assert got.kind == "kd_right"
        sub = tkd.kd_right(tkd.sub_process(p, keep), [s[k] for k in keep])
        assert max_abs(got.values - sub.values) < 1e-12


def test_marginalize_doubled_ket_axes():
    p, ket = corpus(1)[0]
    bra = tkd.random_schedule(p.dims, seed=44)
    qd = tkd.kd_doubled(p, ket, bra)
    nt = p.n_times
    bra_only = tkd.marginalize(qd, keep=list(range(nt, 2 * nt)))
    assert bra_only.kind == "kd_doubled" and bra_only.ket_axes == 0
    assert max_abs(bra_only.values - tkd.kd_right(p, bra).values) < 1e-12
    first_pair = tkd.marginalize(qd, keep=[0, nt])
    assert first_pair.ket_axes == 1
    with pytest.raises(ValidationError):
        tkd.marginalize(qd, keep=[])
    with pytest.raises(ValidationError, match=rf"^keep axes \[0, {2 * nt}\] out of range$"):
        tkd.marginalize(qd, keep=[0, 2 * nt])


def test_keeping_every_axis_returns_the_distribution_itself():
    p, ket = corpus(1)[0]
    qd = tkd.kd_doubled(p, ket, tkd.random_schedule(p.dims, seed=44))
    assert tkd.marginalize(qd, keep=reversed(range(2 * p.n_times))) is qd
    assert tkd.marginalize(qd, keep=[0] + list(range(2 * p.n_times))) is qd


def test_list_axes_are_held_as_a_tuple_of_tuples():
    p, s = corpus(1)[0]
    q = tkd.kd_right(p, s)
    listed = tkd.QuasiDistribution(q.kind, [list(ax) for ax in q.axes], q.values, tol=q.tol)
    assert type(listed.axes) is tuple and all(type(ax) is tuple for ax in listed.axes)
    assert listed.axes == q.axes and listed.values.tobytes() == q.values.tobytes()
    with pytest.raises(ValidationError, match="^values shape does not match axes$"):
        tkd.QuasiDistribution(q.kind, [list(ax) for ax in q.axes[1:]], q.values, tol=q.tol)


def test_coarse_grain():
    p, s = corpus(1, start=2)[0]
    q = tkd.kd_right(p, s)
    idx = list(np.ndindex(q.values.shape))
    cells = [idx[:3], idx[3:]]
    g = tkd.coarse_grain(q, cells)
    assert g.values.shape == (2,)
    assert abs(g.values[0] - sum(q.values[t] for t in idx[:3])) < 1e-14
    assert tkd.nonclassicality(g) <= tkd.nonclassicality(q) + 1e-12
    cells_once = (cell for cell in cells)  # any iterable of cells, read once
    assert tkd.coarse_grain(q, cells_once).values.tobytes() == g.values.tobytes()
    with pytest.raises(ValidationError):  # overlap
        tkd.coarse_grain(q, [idx, idx[:1]])
    with pytest.raises(ValidationError):  # not a cover
        tkd.coarse_grain(q, [idx[:3]])


def test_coarse_grain_sums_each_cell_in_sorted_order():
    p, s = corpus(1, start=4)[0]  # three qutrit times: 27 entries
    q = tkd.kd_right(p, s)
    idx = list(np.ndindex(q.values.shape))
    rng = np.random.default_rng(71)
    label = rng.integers(0, 6, len(idx))
    cells = [[idx[i] for i in rng.permutation(np.flatnonzero(label == c))] for c in range(6)]
    cells[0] += cells[0][:2]  # a repeat inside one cell counts once
    cells.append([])
    want = np.array([sum(q.values[t] for t in sorted(set(cell))) for cell in cells], dtype=complex)
    assert tkd.coarse_grain(q, cells).values.tobytes() == want.tobytes()


def test_coarse_grain_refusals():
    q = tkd.kd_right(*corpus(1, start=2)[0])  # four qubit times
    idx = list(np.ndindex(q.values.shape))
    overlap, cover = "^partition cells overlap$", "^partition does not cover the outcome grid$"
    for cells, message in [
        ([idx, idx[:1]], overlap),
        ([idx[:3], idx[:1]], overlap),  # overlap is named before a missing cover
        ([idx, idx[:1], [(2, 0, 0, 0)]], overlap),
        ([idx[:3]], cover),
        ([], cover),
        ([idx, [(2, 0, 0, 0)]], cover),  # off the grid
        ([idx, [(-1, 0, 0, 0)]], cover),
        ([idx, [(0, 0, 0)]], cover),  # of the wrong length
        ([[t[:3] for t in idx]], cover),
        ([idx[1:], [("0", "0", "0", "0")]], cover),  # not numbers
    ]:
        with pytest.raises(ValidationError, match=message):
            tkd.coarse_grain(q, cells)


@pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
def test_nonclassicality_convex_in_state(lam):
    chain = [tkd.QuantumChannel([tkd.haar_unitary(2, seed=5)])]
    s = tkd.random_schedule((2, 2), seed=6)
    r1 = tkd.random_density(2, seed=7)
    r2 = tkd.random_density(2, seed=8)
    n1 = tkd.nonclassicality(tkd.kd_right(tkd.MultiTimeProcess(r1, chain), s))
    n2 = tkd.nonclassicality(tkd.kd_right(tkd.MultiTimeProcess(r2, chain), s))
    mix = tkd.MultiTimeProcess(lam * r1 + (1 - lam) * r2, chain)
    nm = tkd.nonclassicality(tkd.kd_right(mix, s))
    assert nm <= lam * n1 + (1 - lam) * n2 + 1e-10


@pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
def test_nonclassicality_convex_in_channel(lam):
    rho = tkd.random_density(2, seed=9)
    s = tkd.random_schedule((2, 2), seed=10)
    c1 = tkd.QuantumChannel([tkd.haar_unitary(2, seed=11)])
    c2 = tkd.random_channel(2, seed=12)
    n1 = tkd.nonclassicality(tkd.kd_right(tkd.MultiTimeProcess(rho, [c1]), s))
    n2 = tkd.nonclassicality(tkd.kd_right(tkd.MultiTimeProcess(rho, [c2]), s))
    mixed = tkd.MultiTimeProcess(rho, [tkd.mix_channels(c1, c2, lam)])
    nm = tkd.nonclassicality(tkd.kd_right(mixed, s))
    assert nm <= lam * n1 + (1 - lam) * n2 + 1e-10


@pytest.mark.parametrize("case", range(5))
def test_nonclassicality_monotone_under_marginalization(case):
    p, s = corpus(5)[case]
    q = tkd.kd_right(p, s)
    full = tkd.nonclassicality(q)
    assert full >= -1e-12
    for k in range(p.n_times):
        assert tkd.nonclassicality(tkd.marginalize(q, [k])) <= full + 1e-10


def test_nonclassicality_faithful():
    for p, s in corpus(8):
        q = tkd.kd_right(p, s)
        if tkd.nonclassicality(q) <= 1e-12:
            assert q.values.real.min() > -1e-6
            assert max_abs(q.values.imag) < 1e-6


@pytest.mark.parametrize("case", range(3))
def test_nonclassicality_product_rule(case):
    p1 = tkd.random_process(2, 1 + case % 2, seed=100 + case, channel_kind="mixed")
    p2 = tkd.random_process(2, 1 + case % 2, seed=200 + case, channel_kind="unitary")
    s1 = tkd.random_schedule(p1.dims, seed=300 + case)
    s2 = tkd.random_schedule(p2.dims, seed=400 + case)
    n1 = tkd.nonclassicality(tkd.kd_right(p1, s1))
    n2 = tkd.nonclassicality(tkd.kd_right(p2, s2))
    q12 = tkd.kd_right(tkd.tensor_process(p1, p2), tkd.tensor_schedule(s1, s2))
    n12 = tkd.nonclassicality(q12)
    assert abs(n12 - (n1 * n2 + n1 + n2)) < 1e-10
    lg = tkd.nonclassicality(q12, variant="log")
    lg1 = tkd.nonclassicality(tkd.kd_right(p1, s1), variant="log")
    lg2 = tkd.nonclassicality(tkd.kd_right(p2, s2), variant="log")
    assert abs(lg - lg1 - lg2) < 1e-10


def test_nonclassicality_variant_validation(xy_process):
    p, s = xy_process
    with pytest.raises(ValidationError):
        tkd.nonclassicality(tkd.kd_right(p, s), variant="cubic")


@pytest.mark.parametrize("case", range(6))
def test_joint_ops_reproduce_distributions(case):
    p, s = corpus(6, start=4)[case]
    for kind, fn in (("kd_right", tkd.kd_right), ("kd_left", tkd.kd_left)):
        assert table_dev(joint_traces(p, tkd.joint_ops(p, s, kind=kind)), fn(p, s).values) < 1e-12


@pytest.mark.parametrize("dims, doubled", [((4,) * 8, False), ((2,) * 8, True), ((3,) * 9, False),
                                           ((4, 3) * 4, False)],
                         ids=["d4 8 times", "d2 8 times doubled", "d3 9 times", "d4-3 8 times rectangular"])
def test_edge_invariants(dims, doubled):
    # the regime edge: 65,536, 65,536, 19,683 and 20,736 entries, the last on isometry steps
    # 4 → 3 → 4 …; the doubled table (d^(2·times) entries) only where it stays that small.
    # The χ round trip waits for a conditioned grid.
    d, times = dims[0], len(dims)
    p = (tkd.random_process(d, times - 1, seed=60 + d, channel_kind="mixed") if len(set(dims)) == 1
         else isometry_process(dims, np.random.default_rng(67)))
    assert p.dims == dims
    s = tkd.random_schedule(p.dims, seed=70 + d)
    right, left = tkd.kd_right(p, s), tkd.kd_left(p, s)
    assert table_dev(left.values, right.values.conj()) <= 1e-12
    assert table_dev(tkd.mh_from_kd(right).values, right.values.real) <= 1e-12
    assert table_dev(joint_traces(p, tkd.joint_ops(p, s)), right.values) <= 1e-12
    if doubled:
        q = tkd.kd_doubled(p, s, s).values
        assert table_dev(q.sum(axis=tuple(range(times))), right.values) <= 1e-12
        assert table_dev(q.sum(axis=tuple(range(times, 2 * times))), left.values) <= 1e-12
        diagonal = q.reshape(right.values.size, -1).diagonal().reshape(right.values.shape)
        assert table_dev(tkd.lvn(p, s).values, diagonal) <= 1e-12


def test_joint_ops_refuses_operators_that_do_not_sum_to_the_identity():
    # each step √(1 + 8e-4)·U is trace preserving within 1e-3, their composition only to 2.4e-3
    u = np.sqrt(1 + 8e-4) * tkd.haar_unitary(2, seed=4)
    s = tkd.random_schedule((2,) * 4, seed=4)
    p = tkd.MultiTimeProcess(np.eye(2) / 2, [tkd.QuantumChannel([u])] * 3, tol=1e-3)
    assert all(c.defect == pytest.approx(8e-4, rel=1e-6) for c in p.channels)
    with pytest.raises(ValidationError, match="^joint operators do not sum to the identity$"):
        tkd.joint_ops(p, s)
    one = tkd.MultiTimeProcess(np.eye(2) / 2, [tkd.QuantumChannel([u])], tol=1e-3)
    assert len(tkd.joint_ops(one, s[:2]).ops.array) == 2


def test_joint_ops_doubled():
    p, ket = corpus(1, start=1)[0]
    bra = tkd.random_schedule(p.dims, seed=55)
    qd = tkd.kd_doubled(p, ket, bra)
    ops = tkd.joint_ops(p, ket, kind="kd_doubled", bra=bra)
    assert ops.ket_axes == p.n_times
    assert table_dev(joint_traces(p, ops), qd.values) < 1e-12
    with pytest.raises(ValidationError):
        tkd.joint_ops(p, ket, kind="kd_doubled")
    with pytest.raises(ValidationError):
        tkd.joint_ops(p, ket, kind="lvn")


@pytest.mark.parametrize("kind", ["kd_right", "kd_left", "mh"])
def test_one_sided_kinds_refuse_a_bra_schedule(kind):
    # a bra schedule that misfits every time of the process, and one that fits
    p, s = tkd.random_process(2, 2, seed=3), tkd.random_schedule((2, 2, 2), seed=2)
    bra = tkd.random_schedule((3, 3, 3), seed=3)
    fns = [oracle_kd] + ([tkd.joint_ops] if kind != "mh" else [])
    for fn in fns:
        with pytest.raises(ValidationError, match=f"^{kind} takes no bra schedule$"):
            fn(p, s, kind=kind, bra=bra)
        with pytest.raises(ValidationError, match=f"^{kind} takes no bra schedule$"):
            fn(p, s, kind=kind, bra=s)


@pytest.mark.parametrize("kind", ["kd_right", "kd_left", "kd_doubled"])
@pytest.mark.parametrize("seed", [3, 8])
def test_joint_ops_is_a_read_only_mapping_over_one_array(kind, seed):
    p = tkd.random_process(3, 2, seed=seed, channel_kind="mixed")
    ket, bra = tkd.random_schedule(p.dims, seed=seed + 1), tkd.random_schedule(p.dims, seed=seed + 2)
    j = tkd.joint_ops(p, ket, kind=kind, bra=bra if kind == "kd_doubled" else None)
    shape = tuple(len(ax) for ax in j.axes)
    assert j.ops.array.shape == shape + (3, 3)
    keys = list(itertools.product(*map(range, shape)))
    assert list(j.ops) == keys and len(j.ops) == len(keys) == math.prod(shape)
    assert all(k in j.ops for k in keys)
    for bad in [(0,) * (len(shape) - 1), (0,) * (len(shape) + 1), (-1,) + (0,) * (len(shape) - 1),
                (3,) + (0,) * (len(shape) - 1), (0.0,) * len(shape), (None,) + (0,) * (len(shape) - 1),
                (slice(None),) + (0,) * (len(shape) - 1), [0] * len(shape), 0]:
        assert bad not in j.ops
        with pytest.raises(KeyError):
            j.ops[bad]
    for k in keys[::5]:
        op = j.matrix(list(k))
        assert np.shares_memory(op, j.ops.array) and (op == j.ops.array[k]).all()
    with pytest.raises(ValueError):
        j.ops[keys[-1]][0, 0] = 7.0
    # the dict of views the backward pass used to hand out, bit for bit
    stacks, _, _ = tkd.quasiprob._insertions(p, kind, ket, bra if kind == "kd_doubled" else None)
    flat = tkd.quasiprob._backward(p, *stacks).reshape(-1, 3, 3)
    want = dict(zip(itertools.product(*map(range, shape)), flat))
    got = dict(j.ops)
    assert list(got) == list(want)
    assert all(got[k].tobytes() == want[k].tobytes() for k in want)


def test_joint_ops_checks_its_sum_without_copying_the_operators():
    # the doubled backward pass hands back a transposed view of its one array: the identity
    # check sums its leading axes in place rather than a contiguous copy (2.00x before)
    p = tkd.random_process(2, 6, seed=3, channel_kind="mixed")
    ket, bra = tkd.random_schedule(p.dims, seed=4), tkd.random_schedule(p.dims, seed=5)
    tkd.joint_ops(p, ket, kind="kd_doubled", bra=bra)  # shape-only caches filled outside the trace
    tracemalloc.start()
    try:
        j = tkd.joint_ops(p, ket, kind="kd_doubled", bra=bra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = j.ops.array.nbytes
    assert result == 4 ** 7 * 4 * 16
    assert peak <= 1.5 * result, peak / result


def test_witness_xy_instance(xy_process):
    p, s = xy_process
    rep = tkd.classicality_witness(p, s)
    assert abs(rep.nonclassicality - (SQRT2 - 1)) < 1e-12
    # back-evolved Y projectors against X projectors: norm 1/2 for every pair
    assert abs(rep.max_commutator_norm - 0.5) < 1e-12
    assert rep.worst_pair is not None
    (ta, la), (tb, lb) = rep.worst_pair
    assert set(ta) | set(tb) <= {0, 1}


@pytest.mark.parametrize("case", range(8))
def test_witness_implication(case):
    p, s = corpus(8, start=2)[case]
    rep = tkd.classicality_witness(p, s)
    assert rep.nonclassicality >= -1e-12
    if rep.nonclassicality > 1e-8:
        assert rep.max_commutator_norm > 1e-8


def _commuting_chain(d: int, n: int, seed: int):
    """Diagonal state, diagonal unitaries, basis measurements: every operator
    commutes with every other, exactly."""
    rng = np.random.default_rng(seed)
    probs = rng.random(d)
    rho = np.diag(probs / probs.sum()).astype(np.complex128)
    phases = [np.diag(np.exp(1j * rng.random(d))) for _ in range(n)]
    p = tkd.MultiTimeProcess(rho, [tkd.QuantumChannel([u]) for u in phases])
    s = [tkd.spectral_measurement(np.diag(rng.permutation(np.arange(1.0, d + 1)))) for _ in range(n + 1)]
    return p, s


def test_witness_commuting_instance():
    p, s = _commuting_chain(3, 2, 17)
    rep = tkd.classicality_witness(p, s)
    assert abs(rep.nonclassicality) < 1e-12
    assert rep.max_commutator_norm < 1e-12


def test_witness_on_a_commuting_chain_eigensolves_nothing(monkeypatch):
    # every commutator is exactly zero: every pair ties, the first one in
    # visiting order is the worst, and no spectral norm is needed
    p, s = _commuting_chain(4, 6, 5)
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        solved.append(a.size // (a.shape[-1] ** 2))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    rep = tkd.classicality_witness(p, s)
    assert sum(solved) == 0
    assert rep.max_commutator_norm == 0.0 and math.copysign(1.0, rep.max_commutator_norm) == 1.0
    first = tuple(m.outcomes[0].label for m in s)
    assert rep.worst_pair == ((tuple(range(1, 7)), first[1:]), ((0,), first[:1]))


@pytest.mark.parametrize("d, n, kind", [(4, 6, "unitary"), (4, 6, "mixed"), (3, 7, "unitary"),
                                        (4, 6, "commuting")])
def test_witness_peak_memory_stays_near_the_commutator_block(d, n, kind):
    # the [M_b', Π_b0] stack holds Π m_k · d² complex values: the output buffer
    # and one product table are live at a time, plus the later joint operators
    if kind == "commuting":
        p, s = _commuting_chain(d, n, 5)
    else:
        p = tkd.random_process(d, n, seed=5, channel_kind=kind)
        s = tkd.random_schedule(p.dims, seed=6)
    block = int(np.prod([len(m.outcomes) for m in s])) * d * d * 16
    tracemalloc.start()
    try:
        tkd.classicality_witness(p, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * block, peak / block


@pytest.mark.parametrize("seed", [4, 5, 6, 8])
def test_witness_ties_pick_first_pair(seed):
    # qubits: [M, Π_0] = −[M, Π_1] exactly, so both t_0 outcomes tie for the
    # largest norm and the first one in visiting order must win
    p = tkd.random_process(2, 3, seed=seed, channel_kind="cptp")
    s = tkd.random_schedule(p.dims, seed=seed + 100)
    rep = tkd.classicality_witness(p, s)
    (ta, _), (tb, lb) = rep.worst_pair
    assert ta == (1, 2, 3) and tb == (0,)
    assert lb == (s[0].outcomes[0].label,)


def test_weak_value_instance(pauli):
    pre = tkd.basis_state(2, 0)
    post = np.array([1.0, 1.0j]) / SQRT2
    assert abs(tkd.weak_value(pauli["X"], pre, post) - (-1j)) < 1e-12
    with pytest.raises(ValidationError):
        tkd.weak_value(pauli["X"], pre, tkd.basis_state(2, 1))
    for a, pre, post, message in (
            (np.eye(3), [1, 0], [1, 1], "operator (3, 3), pre-selection of 2 and post-selection of 2"),
            (np.eye(2), [1, 0], [1, 1, 0], "operator (2, 2), pre-selection of 2 and post-selection of 3")):
        with pytest.raises(ValidationError, match=re.escape(f"weak value: {message} amplitudes disagree")):
            tkd.weak_value(a, pre, post)


INPUTS_NOT_FINITE = "weak value: the operator and both states must be finite"


@pytest.mark.parametrize("a, pre, post, message", [
    (np.full((2, 2), np.nan), [1, 0], [1, 0], INPUTS_NOT_FINITE),
    (np.eye(2), [np.inf, 0], [1, 0], INPUTS_NOT_FINITE),
    (np.eye(2), [1, 0], [1, np.nan], INPUTS_NOT_FINITE),
    (np.diag([1e308, 1e308]), [1, 1], [1, 1], "weak value: ⟨post|A|pre⟩ / ⟨post|pre⟩ is not finite"),
], ids=["operator", "pre-selection", "post-selection", "overflowing quotient"])
def test_weak_value_refuses_non_finite_input(a, pre, post, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        tkd.weak_value(a, pre, post)


@pytest.mark.parametrize("seed", range(4))
def test_conditional_kd_mean_is_weak_value(seed):
    # unitary two-time process, pure initial state
    phi = tkd.random_pure_state(2, seed=seed)
    u = tkd.haar_unitary(2, seed=seed + 30)
    p = tkd.MultiTimeProcess(tkd.projector(phi), [tkd.QuantumChannel([u])])
    a = tkd.quasiprob.random_hermitian(2, seed=seed + 60)
    b = tkd.quasiprob.random_hermitian(2, seed=seed + 90)
    s = [tkd.spectral_measurement(a), tkd.spectral_measurement(b)]
    ql = tkd.kd_left(p, s)
    qr = tkd.kd_right(p, s)
    vals0 = ql.axis_values(0)
    for j, out in enumerate(s[1].outcomes):
        prob = ql.values[:, j].sum()
        if abs(prob) < 1e-6:
            continue
        # back-evolve the postselection vector to t0
        w = np.conj(u.T) @ out.projector
        vec = w[:, int(np.argmax(np.linalg.norm(w, axis=0)))]
        vec = vec / np.linalg.norm(vec)
        want = tkd.weak_value(a, phi, vec)
        left_mean = (vals0 * ql.values[:, j]).sum() / prob
        right_mean = (vals0 * qr.values[:, j]).sum() / qr.values[:, j].sum()
        assert abs(left_mean - want) < 1e-10
        assert abs(right_mean - np.conj(want)) < 1e-10


def test_extended_kd_closed_form(pauli):
    rho = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    zero = tkd.projector(tkd.basis_state(2, 0))
    one = tkd.projector(tkd.basis_state(2, 1))
    inst = tkd.Instrument([("0", [zero]), ("1", [one])])
    q = tkd.extended_kd(rho, tkd.spectral_measurement(pauli["X"]), inst)
    want = np.array([[(1 + 1j), (1 - 1j)], [(1 - 1j), (1 + 1j)]]) / 4
    assert max_abs(q.values - want) < 1e-12
    assert abs(tkd.nonclassicality(q) - (SQRT2 - 1)) < 1e-12


def test_extended_kd_marginals(pauli):
    rho = tkd.random_density(2, seed=70)
    k0 = tkd.quasiprob.random_channel(2, seed=71)
    inst = tkd.Instrument([("a", k0.kraus[:1]), ("b", k0.kraus[1:])])
    m = tkd.spectral_measurement(pauli["Z"])
    q = tkd.extended_kd(rho, m, inst)
    # branch marginal: outcome probabilities of the instrument
    for k in range(2):
        want = np.trace(sum(e @ rho @ np.conj(e.T) for e in inst.branches[k][1]))
        assert abs(q.values[:, k].sum() - want) < 1e-12
    # measurement marginal: Born probabilities at the first time
    for i, o in enumerate(m.outcomes):
        assert abs(q.values[i, :].sum() - np.trace(rho @ o.projector)) < 1e-12


@pytest.mark.parametrize("d_out", [3, 2])
def test_extended_kd_matches_branch_loop(d_out):
    # reference: Tr[Σ_e e(ρΠ_b)e†] outcome by outcome and branch by branch
    for seed in range(10):
        rng = np.random.default_rng(720 + seed)
        rho = tkd.random_density(3, rng)
        m = tkd.random_schedule([3], rng)[0]
        g = rng.normal(size=(4 * d_out, 3)) + 1j * rng.normal(size=(4 * d_out, 3))
        kraus = [k for k in np.linalg.qr(g)[0].reshape(4, d_out, 3)]
        inst = tkd.Instrument([("a", kraus[:1]), ("b", kraus[1:3]), ("c", kraus[3:])])
        q = tkd.extended_kd(rho, m, inst)
        want = [[np.trace(sum(e @ rho @ o.projector @ np.conj(e.T) for e in ops))
                 for _, ops in inst.branches] for o in m.outcomes]
        assert max_abs(q.values - np.array(want)) < 1e-14


def test_extended_kd_dim_mismatch(pauli):
    inst = tkd.Instrument([("a", [np.diag([1.0, 0, 0])]), ("b", [np.diag([0, 1.0, 1.0])])])
    with pytest.raises(ValidationError, match="instrument"):
        tkd.extended_kd(np.eye(2) / 2, tkd.spectral_measurement(pauli["Z"]), inst)
    with pytest.raises(ValidationError, match="^measurement dim does not match the state$"):
        tkd.extended_kd(np.eye(3) / 3, tkd.spectral_measurement(pauli["Z"]), inst)


def test_results_follow_the_process_tolerance():
    # a unitary scaled by 1+5e-8 is accepted at tol=1e-6; two such steps push
    # every total to 1 + 2e-7, which the result containers must accept at the
    # process tolerance, not at their 1e-10 defaults
    u = tkd.haar_unitary(2, seed=730) * (1 + 5e-8)
    ch = tkd.build_channel("unitary", u=u, tol=1e-6)
    p = tkd.MultiTimeProcess(tkd.random_density(2, seed=731), [ch, ch], tol=1e-6)
    s = tkd.random_schedule(p.dims, seed=732)
    q = tkd.kd_right(p, s)
    assert 1e-7 < abs(q.total() - 1.0) < 1e-6
    assert q.tol == 1e-6
    for d in (tkd.kd_left(p, s), tkd.lvn(p, s), tkd.mh_from_kd(q),
              tkd.kd_doubled(p, s, s), tkd.marginalize(q, [0])):
        assert d.tol == 1e-6
    for y in (tkd.kd_state_recursive(p), tkd.mh_state(p), tkd.pdo(p),
              tkd.reconstruct_state(tkd.correlators(p, kind="doubled"))):
        assert 1e-7 < abs(np.trace(y.matrix) - 1.0) < 1e-6
    obs = tkd.ObservableSchedule(bra=tuple(m.observable() for m in s))
    grid = tkd.product_grid([tkd.default_nodes([o.value for o in m.outcomes]) for m in s])
    chi = tkd.char_fn(p, obs, grid)
    assert chi.tol == 1e-6
    inv = tkd.invert_char(chi, [[o.value for o in m.outcomes] for m in s])
    assert max_abs(inv.values - q.values) < 1e-10
    tkd.joint_ops(p, s)
    with pytest.raises(ValidationError, match="sums to"):
        tkd.QuasiDistribution("kd_right", q.axes, q.values)  # default bound 1e-10


def test_witness_decides_unitarity_at_the_process_tolerance():
    # a first step unitary only to 1e-7 is accepted at tol=1e-6; the witness
    # must still check the single-time pairs of the unitary chain, whose worst
    # pair (t_1 against t_2) stays that of the unscaled chain
    us = [tkd.haar_unitary(2, seed=10 + k) for k in range(3)]
    s = tkd.random_schedule((2, 2, 2, 2), seed=501)
    rho = np.diag([1.0, 0.0])
    exact = tkd.classicality_witness(
        tkd.MultiTimeProcess(rho, [tkd.QuantumChannel([u]) for u in us], tol=1e-6), s)
    scaled = [us[0] * np.sqrt(1 - 1e-7)] + us[1:]
    rep = tkd.classicality_witness(
        tkd.MultiTimeProcess(rho, [tkd.QuantumChannel([u]) for u in scaled], tol=1e-6), s)
    assert rep.max_commutator_norm == pytest.approx(0.4863153, abs=1e-7)
    assert abs(rep.max_commutator_norm - exact.max_commutator_norm) < 1e-7
    assert [t for t, _ in rep.worst_pair] == [(1,), (2,)]
    assert rep.worst_pair == exact.worst_pair


def test_witness_refuses_what_kd_right_refuses():
    # each step scaled by 1+3e-8 passes the CPTP check at tol=1e-7, but three
    # of them push the total to 1 + 1.8e-7: the witness must reject the same
    # process and schedule that kd_right rejects, with the same message
    u = tkd.haar_unitary(2, seed=730) * (1 + 3e-8)
    ch = tkd.build_channel("unitary", u=u, tol=1e-6)
    p = tkd.MultiTimeProcess(tkd.random_density(2, seed=731), [ch] * 3, tol=1e-7)
    s = tkd.random_schedule(p.dims, seed=732)
    with pytest.raises(ValidationError, match="distribution sums to"):
        tkd.kd_right(p, s)
    with pytest.raises(ValidationError, match="distribution sums to"):
        tkd.classicality_witness(p, s)
    loose = tkd.MultiTimeProcess(p.rho0, p.channels, tol=1e-6)
    assert tkd.classicality_witness(loose, s).nonclassicality == pytest.approx(
        tkd.nonclassicality(tkd.kd_right(loose, s)), abs=1e-12)

from __future__ import annotations

import numpy as np
import pytest  # type: ignore

import tkd
from tkd import ValidationError
from tkd.linops import max_abs
from conftest import born_diagonal, corpus, isometry_process, table_dev


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
    with pytest.raises(ValidationError, match="^correlator values shape does not match bases$"):
        tkd.CorrelatorTensor("right", (b, b), vals[:, :2])
    b3 = tkd.hs_basis(3)
    mixed = np.zeros((4, 9), dtype=complex)
    mixed[0, 0] = 1.0
    with pytest.raises(ValidationError, match="^ket and bra blocks disagree on dimensions$"):
        tkd.CorrelatorTensor("doubled", (b, b3), mixed, ket_axes=1)
    imaginary = vals.copy()
    imaginary[1, 2] = 0.1j
    for kind in ("mh", "lvn"):
        with pytest.raises(ValidationError, match=f"^{kind} correlators must be real$"):
            tkd.CorrelatorTensor(kind, (b, b), imaginary)
    p = tkd.random_process(2, 1, seed=1)
    with pytest.raises(ValidationError):
        tkd.correlators(p, bases=[b], kind="right")
    with pytest.raises(ValidationError, match="^unknown correlator kind 'weird'$"):
        tkd.correlators(p, kind="weird")


@pytest.mark.parametrize("kind", tkd.tomography.CORRELATOR_KINDS)
def test_correlators_refuse_misfit_bases(kind):
    p = tkd.random_process(2, 1, seed=1)
    with pytest.raises(ValidationError, match=r"^bases\[1\] acts on dim 3, process carries 2$"):
        tkd.correlators(p, [tkd.hs_basis(2), tkd.hs_basis(3)], kind=kind)
    with pytest.raises(ValidationError, match="^bases has 3 entries for 2 times$"):
        tkd.correlators(p, [tkd.hs_basis(2)] * 3, kind=kind)


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


def _tensordot_resynthesis(t: tkd.CorrelatorTensor) -> np.ndarray:
    """reconstruct_state's matrix by the reference formula: T contracted against
    each axis's basis stack by np.tensordot, one axis at a time."""
    z = t.values
    for b in t.bases:
        z = np.tensordot(z, np.stack(b.ops), axes=([0], [0]))
    side = int(np.prod([b.dim for b in t.bases]))
    return tkd.tomography._matrix(z, t.time_dims, 1 + (t.kind == "doubled")) / side


@pytest.mark.parametrize("kind, d", [(k, d) for k in tkd.tomography.CORRELATOR_KINDS for d in (2, 3)
                                     if k != "lvn" or d == 2])  # lvn is refused beyond qubits
def test_reconstruct_state_is_the_tensordot_formula_bit_for_bit(kind, d):
    for seed in range(6):
        n = 1 + seed % (3 if d == 2 else 2)
        p = tkd.random_process(d, n, seed=530 + seed, channel_kind=("mixed", "unitary")[seed % 2])
        t = tkd.correlators(p, kind=kind)
        got = tkd.reconstruct_state(t).matrix
        want = _tensordot_resynthesis(t)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (seed, n)


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
    y, stacks, q = tkd.kd_state_recursive(p), [m.projectors for m in s], tkd.kd_right(p, s)
    table = tkd.born_eval(y, stacks)
    assert table_dev(table, q.values) < 1e-10
    assert table_dev(tkd.born_eval(tkd.mh_state(p), stacks), tkd.mh_from_kd(q).values) < 1e-10
    for idx in np.ndindex(table.shape):  # each entry is its single-tuple call
        assert abs(table[idx] - tkd.born_eval(y, [m[i] for m, i in zip(stacks, idx)])) <= 1e-15
    # a time given one operator has no axis: odd times stacked, the others at their last outcome
    part = [m if k % 2 else m[-1] for k, m in enumerate(stacks)]
    want = q.values[tuple(slice(None) if k % 2 else -1 for k in range(p.n_times))]
    assert table_dev(tkd.born_eval(y, part), want) < 1e-10


@pytest.mark.parametrize("kind", tkd.tomography.STATE_KINDS)
def test_one_tuple_calls_match_the_table_entries(kind):
    """One outcome tuple is one GEMV per time, a table one GEMM per time: the same products,
    summed in the BLAS kernels' own orders, so entries agree to rounding, not bit for bit."""
    build = {"mh": tkd.mh_state, "pdo": tkd.pdo}.get(kind, lambda p: tkd.kd_state_recursive(p, kind))
    for p, s in corpus(3, start=1 if kind == "kd_doubled" else 2):
        y, n = build(p), p.n_times

        def blocks(ops):  # a doubled state takes the schedule on its ket and its bra side
            return (ops[:n], ops[n:]) if y.doubled else (ops,)

        stacks = [m.projectors for m in s] * (1 + y.doubled)
        table = tkd.born_eval(y, *blocks(stacks))
        for idx in np.ndindex(table.shape):
            one = tkd.born_eval(y, *blocks([m[i] for m, i in zip(stacks, idx)]))
            assert isinstance(one, complex) and abs(table[idx] - one) <= 1e-15


def test_born_eval_doubled_and_lvn():
    p, ket = corpus(1, start=1)[0]
    bra = tkd.random_schedule(p.dims, seed=66)
    t = tkd.correlators(p, kind="doubled")
    y = tkd.reconstruct_state(t)
    assert y.kind == "kd_doubled" and y.doubled
    kp, bp = [m.projectors for m in ket], [m.projectors for m in bra]
    assert table_dev(tkd.born_eval(y, kp, bp), tkd.kd_doubled(p, ket, bra).values) < 1e-10
    # equal projector insertions on both sides give the collapse probabilities
    assert table_dev(born_diagonal(y, kp), tkd.lvn(p, ket).values) < 1e-10
    # only the bra side of the last time stacked; no stack at all gives a complex
    first = [m[0] for m in kp]
    got = tkd.born_eval(y, first, [m[0] for m in bp[:-1]] + bp[-1:])
    assert table_dev(got, tkd.kd_doubled(p, ket, bra).values[(0,) * (2 * p.n_times - 1)]) < 1e-10
    assert isinstance(tkd.born_eval(y, first, first), complex)


@pytest.mark.parametrize("kind,d", [(k, d) for k in tkd.tomography.CORRELATOR_KINDS for d in (2, 3)
                                    if k != "lvn" or d == 2])
def test_bloch_tomography_closes(kind, d):
    """Temporal Bloch tomography read backwards: the Born table of the reconstructed state
    against each time's (rotated) basis stack gives back the correlator tensor."""
    p = tkd.random_process(d, 4 - d, seed=530 + d, channel_kind="mixed")  # 3 qubit or 2 qutrit times
    bases = [tkd.rotate_basis(tkd.hs_basis(d), tkd.haar_unitary(d, seed=531 + k)) for k in range(5 - d)]
    t = tkd.correlators(p, bases, kind=kind)
    stacks = [b.stack for b in t.bases]
    blocks = (stacks[:t.ket_axes], stacks[t.ket_axes:]) if t.ket_axes else (stacks,)
    assert table_dev(tkd.born_eval(tkd.reconstruct_state(t), *blocks), t.values) <= 1e-12


def test_born_eval_validation():
    p = tkd.random_process(2, 1, seed=2)
    y = tkd.kd_state_recursive(p)
    with pytest.raises(ValidationError):
        tkd.born_eval(y, [np.eye(2)])
    with pytest.raises(ValidationError):
        tkd.born_eval(y, [np.eye(2), np.eye(3)])
    with pytest.raises(ValidationError):
        tkd.born_eval(y, [np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)])
    with pytest.raises(ValidationError, match="^doubled state needs bra_projectors$"):
        tkd.born_eval(tkd.kd_state_recursive(p, "kd_doubled"), [np.eye(2), np.eye(2)])
    for bad in (np.zeros((0, 2, 2)), np.zeros((1, 1, 2, 2)), np.zeros((2, 3, 3))):  # empty, 4-D, wrong d
        with pytest.raises(ValidationError, match=r"^ket operator 1 is \(.*\), time dim is 2$"):
            tkd.born_eval(y, [np.eye(2), bad])
    with pytest.raises(ValidationError, match=r"^ket operator 0 is \(3, 3\), time dim is 2$"):
        tkd.born_eval(y, [np.eye(3), np.eye(4)])  # two bad operators: the earlier time is named


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
    with pytest.raises(ValidationError, match=r"^keep_times \[0, 3\] out of range$"):
        tkd.reduce_state(y, [0, 3])


def test_reduce_state_doubled_tracks_marginals():
    p, ket = corpus(1)[0]
    bra = tkd.random_schedule(p.dims, seed=77)
    y = tkd.reconstruct_state(tkd.correlators(p, kind="doubled"))
    red = tkd.reduce_state(y, [p.n_times - 1])
    qd = tkd.kd_doubled(p, ket, bra)
    keep = [p.n_times - 1, 2 * p.n_times - 1]
    marg = tkd.marginalize(qd, keep)
    got = tkd.born_eval(red, [ket[-1].projectors], [bra[-1].projectors])
    assert table_dev(got, marg.values) < 1e-10


def test_trace_blocks():
    p = tkd.random_process(2, 1, seed=509, channel_kind="cptp")
    yd = tkd.reconstruct_state(tkd.correlators(p, kind="doubled"))
    right = tkd.trace_ket_block(yd)
    left = tkd.trace_bra_block(yd)
    assert right.kind == "kd_right" and left.kind == "kd_left"
    assert max_abs(right.matrix - tkd.kd_state_recursive(p).matrix) < 1e-10
    assert max_abs(left.matrix - tkd.kd_state_recursive(p, kind="kd_left").matrix) < 1e-10
    r = tkd.trace_ket_block(tkd.kd_state_recursive(p, kind="kd_doubled")).matrix
    assert max_abs((r + np.conj(r.T)) / 2 - tkd.mh_state(p).matrix) < 1e-10
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


def test_lvn_resynthesis_refuses_non_qubit_times():
    # beyond ±1 spectra the value-weighted collapse is not the Jordan product: the
    # resynthesis and the oracle's lvn state refuse the chain with one message
    cases = ((tkd.random_process(3, 1, seed=3, channel_kind="mixed"), 0),
             (_rect_process(518, dims=(2, 3))[0], 1), (isometry_process((1, 2, 3), np.random.default_rng(519)), 2))
    for p, k in cases:
        message = rf"^the lvn resynthesis is the pdo only on dims 1 and 2; time {k} has dim 3$"
        with pytest.raises(ValidationError, match=message):
            tkd.reconstruct_state(tkd.correlators(p, kind="lvn"))
        with pytest.raises(ValidationError, match=message):
            tkd.oracle_state(p, "lvn")


@pytest.mark.parametrize("dims", [(1, 2), (2, 1, 2), (1, 1), (3, 1), (1, 3)])
def test_tomography_on_chains_with_a_one_dimensional_time(dims):
    # hs_basis(1) is {I₁}: each kind's correlators, their resynthesis and the oracle's state
    # agree with the read-off; lvn gives the pdo where no time has dim 3
    p = isometry_process(dims, np.random.default_rng(520))
    read_off = {"right": tkd.kd_state_recursive(p), "left": tkd.kd_state_recursive(p, kind="kd_left"),
                "doubled": tkd.kd_state_recursive(p, kind="kd_doubled"), "mh": tkd.mh_state(p)}
    if max(dims) <= 2:
        read_off["lvn"] = tkd.pdo(p)
    for kind, y in read_off.items():
        t = tkd.correlators(p, kind=kind)
        assert max_abs(t.values - tkd.oracle_correlators(p, kind).values) < 1e-12
        for got in (tkd.reconstruct_state(t), tkd.oracle_state(p, kind)):
            assert got.kind == y.kind and got.dims == dims
            assert max_abs(got.matrix - y.matrix) < 1e-10


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


def _rect_process(seed, dims=(2, 3, 2)):
    """Times on ``dims`` (three on (2, 3, 2) by default), each step a random isometry."""
    rng = np.random.default_rng(seed)
    chain = []
    for d_in, d_out in zip(dims, dims[1:]):
        g = rng.normal(size=(2 * d_out, d_in)) + 1j * rng.normal(size=(2 * d_out, d_in))
        chain.append(tkd.QuantumChannel(list(np.linalg.qr(g)[0].reshape(2, d_out, d_in))))
    return tkd.MultiTimeProcess(tkd.random_density(dims[0], rng), chain), rng


def _born_kron(y, ket, bra=()):
    """Reference: Tr[Υ·kron(factors)], factors latest time first, ket block then bra."""
    factors = list(reversed(ket)) + list(reversed(bra))
    return complex(np.trace(y.matrix @ tkd.kron_chain(factors)))


@pytest.mark.parametrize("rect", [False, True])
def test_born_eval_matches_kron_formula(rect):
    if rect:
        p, rng = _rect_process(515)
    else:
        p, rng = tkd.random_process(2, 2, seed=516, channel_kind="mixed"), np.random.default_rng(517)

    def ops():
        return [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in p.dims]

    for y in (tkd.kd_state_recursive(p), tkd.mh_state(p), tkd.pdo(p)):
        for _ in range(3):
            f = ops()
            assert abs(tkd.born_eval(y, f) - _born_kron(y, f)) < 1e-12
    yd = tkd.reconstruct_state(tkd.correlators(p, kind="doubled"))
    assert yd.factor_dims == tuple(reversed(p.dims)) * 2
    for _ in range(3):
        ket, bra = ops(), ops()
        assert abs(tkd.born_eval(yd, ket, bra) - _born_kron(yd, ket, bra)) < 1e-12

"""Cache soundness: the immutable input objects hold read-only copies, the
operators they build once give the same bits as a fresh build, and each pass
hands its fresh result array to its container without a copy."""

from __future__ import annotations

import copy
import sys
from unittest import mock

import numpy as np
import pytest  # type: ignore

import tkd


def _raw(seed: int = 41, d: int = 2, n: int = 2):
    """Plain arrays for a mixed chain and two observable schedules."""
    rng = np.random.default_rng(seed)
    p = tkd.random_process(d, n, seed=rng, channel_kind="mixed")
    return {"rho": np.array(p.rho0), "kraus": [[np.array(k) for k in c.kraus] for c in p.channels],
            "ket": [tkd.random_hermitian(d, rng) for _ in range(n + 1)],
            "bra": [tkd.random_hermitian(d, rng) for _ in range(n + 1)]}


def _build(raw):
    p = tkd.MultiTimeProcess(raw["rho"], [tkd.QuantumChannel(ks) for ks in raw["kraus"]])
    ket = [tkd.spectral_measurement(h) for h in raw["ket"]]
    bra = [tkd.spectral_measurement(h) for h in raw["bra"]]
    obs = tkd.ObservableSchedule(ket=tuple(raw["ket"]), bra=tuple(raw["bra"]))
    return p, ket, bra, obs


def _grid(n_times: int, width: int) -> list[tuple[float, ...]]:
    return [tuple(0.3 * (i + 1) * (k + 1) for k in range(width)) for i in range(3)] \
        + [(0.0,) * width]


ENTRY_POINTS = {
    "kd_right": lambda p, ket, bra, obs: tkd.kd_right(p, ket).values,
    "kd_left": lambda p, ket, bra, obs: tkd.kd_left(p, ket).values,
    "kd_doubled": lambda p, ket, bra, obs: tkd.kd_doubled(p, ket, bra).values,
    "mh": lambda p, ket, bra, obs: tkd.mh_from_kd(tkd.kd_right(p, ket)).values,
    "mh_doubled": lambda p, ket, bra, obs: tkd.mh_from_kd(tkd.kd_doubled(p, ket, bra)).values,
    "lvn": lambda p, ket, bra, obs: tkd.lvn(p, ket).values,
    "joint_ops right": lambda p, ket, bra, obs: np.stack(list(tkd.joint_ops(p, ket).ops.values())),
    "joint_ops left": lambda p, ket, bra, obs: np.stack(
        list(tkd.joint_ops(p, ket, kind="kd_left").ops.values())),
    "joint_ops doubled": lambda p, ket, bra, obs: np.stack(
        list(tkd.joint_ops(p, ket, kind="kd_doubled", bra=bra).ops.values())),
    "classicality_witness": lambda p, ket, bra, obs: tkd.classicality_witness(p, ket),
    "state kd_right": lambda p, ket, bra, obs: tkd.kd_state_recursive(p).matrix,
    "state kd_left": lambda p, ket, bra, obs: tkd.kd_state_recursive(p, kind="kd_left").matrix,
    "state kd_doubled": lambda p, ket, bra, obs: tkd.kd_state_recursive(
        p, kind="kd_doubled").matrix,
    "state mh": lambda p, ket, bra, obs: tkd.mh_state(p).matrix,
    "state pdo": lambda p, ket, bra, obs: tkd.pdo(p).matrix,
    **{f"correlators {kind}": (lambda p, ket, bra, obs, kind=kind:
                               tkd.correlators(p, kind=kind).values)
       for kind in ("right", "left", "doubled", "mh", "lvn")},
    **{f"reconstruct_state {kind}": (lambda p, ket, bra, obs, kind=kind:
                                     tkd.reconstruct_state(tkd.correlators(p, kind=kind)).matrix)
       for kind in ("right", "left", "doubled", "mh", "lvn")},
    **{f"char_fn {kind}": (lambda p, ket, bra, obs, kind=kind: tkd.char_fn(
        p, obs, _grid(p.n_times, 2 * p.n_times if kind == "doubled" else p.n_times),
        kind=kind).values) for kind in ("right", "left", "doubled")},
    **{f"circuit_sim {kind}": (lambda p, ket, bra, obs, kind=kind: tkd.circuit_sim(
        p, obs, _grid(p.n_times, 2 * p.n_times if kind == "doubled" else p.n_times)[0],
        kind=kind, shots=100, seed=3)) for kind in ("right", "left", "doubled")},
}


def _same_bits(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b  # frozen result dataclasses of floats, complexes and tuples


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_cached_evaluation_is_bit_identical_to_a_fresh_one(name):
    raw = _raw()
    objs = _build(raw)
    fn = ENTRY_POINTS[name]
    first, second = fn(*objs), fn(*objs)
    fresh = fn(*_build(raw))
    assert _same_bits(second, fresh)
    assert _same_bits(first, fresh)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_a_repeated_pass_builds_no_insertion_map(name, monkeypatch):
    # no pass rebuilds an operator that depends on one input object alone: the maps of a
    # measurement, a basis, the matrix units and the identity are built once, by their owner
    objs = _build(_raw())
    calls = []
    for module in [m for n, m in sys.modules.items() if n == "tkd" or n.startswith("tkd.")]:
        if hasattr(module, "insertion_maps"):
            monkeypatch.setattr(module, "insertion_maps",
                                lambda *a, f=module.insertion_maps: calls.append(a[0]) or f(*a))
    ENTRY_POINTS[name](*objs)
    if not name.startswith(("state", "correlators", "reconstruct_state")):  # fresh measurements
        assert calls, "the first call on new measurements builds their maps"
    del calls[:]
    ENTRY_POINTS[name](*objs)
    assert calls == []


def test_held_arrays_are_read_only():
    raw = _raw()
    p, ket, bra, obs = _build(raw)
    c, m, b = p.channels[0], ket[0], tkd.hs_basis(2)
    # the matrix units and the identity own their stack, maps and rows as a measurement and a basis do
    owners = (m, b, tkd.measurements._matrix_units(2), tkd.measurements._identity(2))
    sides = ("right_maps", "left_maps", "lvn_maps", "_jordan_maps")
    derived = [x.stack for x in owners[1:]] + [getattr(x, side) for x in owners for side in sides] \
        + [x._rows(side) for x in owners for side in sides]
    sizes = tuple(len(x.outcomes) for x in ket)
    layout = [a for unitary in (False, True) for a in tkd.quasiprob._witness_layout(sizes, unitary)]
    joint = [tkd.joint_ops(p, ket).ops, tkd.joint_ops(p, ket, kind="kd_doubled", bra=bra).ops]
    for target in (c.kraus[0], m.outcomes[0].projector, m.projectors, obs.bra[0].projectors,
                   obs.ket[0].projectors, b.ops[1], p.rho0, c.superop, c.dilation[0], *derived,
                   *layout, tkd.quasiprob._vec_identity(4), *(t.array for t in joint),
                   *(v for t in joint for v in t.values())):
        with pytest.raises(ValueError):
            target[(0,) * target.ndim] = 7.0
    inst = tkd.Instrument([("a", [np.diag([1.0, 0.0])]), ("b", [np.diag([0.0, 1.0])])])
    with pytest.raises(ValueError):
        inst.branches[0][1][0][0, 0] = 7.0


KERNELS = [(tkd.quasiprob, "_sweep"), (tkd.quasiprob, "_backward"), (tkd.tomography, "_sweep")]


@pytest.mark.parametrize("name", ["kd_right", "kd_left", "lvn", "mh", "joint_ops right", "joint_ops left",
                                  "classicality_witness", "correlators right", "correlators lvn",
                                  "state kd_right", "state pdo"])
def test_cached_trace_rows_give_the_bits_of_rows_built_per_call(name, monkeypatch):
    # one-sided passes fold the final trace into the trace rows their measurement, basis
    # or dimension built once; a second evaluation on the same objects reads them from
    # that cache, and both give the bits of kernels that build the rows per call
    raw = _raw()
    objs = _build(raw)
    fn = ENTRY_POINTS[name]
    first, second = fn(*objs), fn(*objs)
    for module, kernel in KERNELS:
        monkeypatch.setattr(module, kernel, lambda p, *stacks, rows=None, f=getattr(module, kernel):
                            f(p, *stacks))
    per_call = fn(*_build(raw))
    assert _same_bits(first, per_call) and _same_bits(second, per_call)


def test_hs_basis_is_one_shared_instance():
    assert tkd.hs_basis(3) is tkd.hs_basis(3)
    assert tkd.hs_basis(2) is not tkd.hs_basis(3)


def test_mutating_the_callers_arrays_changes_no_result():
    raw = _raw()
    pristine = copy.deepcopy(raw)
    objs = _build(raw)
    ENTRY_POINTS["kd_right"](*objs)  # some operators cached before the write, most not
    for a in [raw["rho"], *raw["ket"], *raw["bra"], *(k for ks in raw["kraus"] for k in ks)]:
        a[...] = 0.0
    fresh = _build(pristine)
    for name, fn in ENTRY_POINTS.items():
        assert _same_bits(fn(*objs), fn(*fresh)), name


def test_projector_and_basis_inputs_are_copied():
    proj = np.diag([1.0, 0.0]).astype(np.complex128)
    m = tkd.ProjectiveMeasurement(2, [tkd.Outcome(1.0, proj, "up"),
                                      tkd.Outcome(-1.0, np.eye(2) - proj, "down")])
    ops = [np.array(o) for o in tkd.hs_basis(2).ops]
    basis = tkd.HSBasis(2, ops)
    proj[...] = 0.0
    ops[1][...] = 0.0
    assert m.projectors[0, 0, 0] == 1.0 and m.outcomes[0].projector[0, 0] == 1.0
    assert basis.ops[1][0, 1] == 1.0


@pytest.mark.parametrize("make", [
    lambda raw: _build(raw)[0],
    lambda raw: _build(raw)[0].channels[0],
    lambda raw: _build(raw)[1][0],
    lambda raw: _build(raw)[3],
    lambda raw: tkd.kd_right(*_build(raw)[:2]),
], ids=["MultiTimeProcess", "QuantumChannel", "ProjectiveMeasurement", "ObservableSchedule",
        "QuasiDistribution"])
def test_array_holders_compare_by_identity(make):
    raw = _raw()
    obj, copy_ = make(raw), make(raw)
    assert obj == obj and obj in [obj]
    assert obj != copy_ and obj not in [copy_]
    assert len({obj, copy_, obj}) == 2


STATE_PRODUCERS = {
    "kd_state_recursive right": lambda p: tkd.kd_state_recursive(p),
    "kd_state_recursive left": lambda p: tkd.kd_state_recursive(p, kind="kd_left"),
    "kd_state_recursive doubled": lambda p: tkd.kd_state_recursive(p, kind="kd_doubled"),
    "mh_state": tkd.mh_state,
    "pdo": tkd.pdo,
    "reconstruct_state": lambda p: tkd.reconstruct_state(tkd.correlators(p, kind="doubled")),
    "reduce_state": lambda p: tkd.reduce_state(tkd.kd_state_recursive(p), [0, 2]),
    "trace_ket_block": lambda p: tkd.trace_ket_block(tkd.kd_state_recursive(p, kind="kd_doubled")),
    "trace_bra_block": lambda p: tkd.trace_bra_block(tkd.kd_state_recursive(p, kind="kd_doubled")),
}


def _read_only_down_to_base(a) -> bool:
    """Whether ``a`` and every array it views are read-only."""
    while a is not None:
        if a.flags.writeable:
            return False
        a = a.base
    return True


@pytest.mark.parametrize("name", sorted(STATE_PRODUCERS))
def test_state_matrices_are_read_only(name):
    y = STATE_PRODUCERS[name](_build(_raw())[0])
    with pytest.raises(ValueError):
        y.matrix[0, 0] = 7.0
    assert _read_only_down_to_base(y.matrix)


def _handed_over(make, monkeypatch):
    """What ``make()`` returns, and every array a pass handed to a result container meanwhile."""
    handed = []
    for module in (tkd.quasiprob, tkd.tomography, tkd.charfunc):
        monkeypatch.setattr(module, "_hand", lambda a: handed.append(a) or tkd.linops._hand(a))
    return make(), handed


@pytest.mark.parametrize("name", sorted(set(STATE_PRODUCERS) - {"reduce_state", "trace_ket_block",
                                                                "trace_bra_block"}))
def test_state_builders_hand_over_their_matrix_without_a_copy(name, monkeypatch):
    p = _build(_raw())[0]
    y, handed = _handed_over(lambda: STATE_PRODUCERS[name](p), monkeypatch)
    assert handed and np.shares_memory(y.matrix, handed[-1])


def _witness_distribution(p, ket) -> tkd.QuasiDistribution:
    """The Q that `classicality_witness` checks as a `QuasiDistribution`."""
    with mock.patch.object(tkd.quasiprob, "nonclassicality", wraps=tkd.nonclassicality) as seen:
        tkd.classicality_witness(p, ket)
    return seen.call_args.args[0]


def _char(p, obs, kind, ragged=False):
    """χ of a kind on its outcome-value product grid, or on that grid less its last point."""
    s = {"right": obs.bra, "left": obs.ket, "doubled": obs.ket + obs.bra}[kind]
    spectra = [[o.value for o in m.outcomes] for m in s]
    grid = tkd.product_grid([tkd.default_nodes(sp) for sp in spectra])
    return tkd.char_fn(p, obs, grid[:-1] if ragged else grid, kind=kind), spectra


VALUE_BUILDERS = {
    **{kind: (lambda p, ket, bra, obs, kind=kind: getattr(tkd, kind)(p, ket))
       for kind in ("kd_right", "kd_left", "lvn")},
    "kd_doubled": lambda p, ket, bra, obs: tkd.kd_doubled(p, ket, bra),
    "marginalize": lambda p, ket, bra, obs: tkd.marginalize(tkd.kd_doubled(p, ket, bra), [1, 4]),
    "coarse_grain": lambda p, ket, bra, obs: tkd.coarse_grain(
        tkd.kd_right(p, ket), [[t] for t in np.ndindex((2,) * 3)]),
    "extended_kd": lambda p, ket, bra, obs: tkd.extended_kd(p.rho0, ket[0], tkd.Instrument(
        [("a", [np.diag([1.0, 0.0])]), ("b", [np.diag([0.0, 1.0])])])),
    "classicality_witness": lambda p, ket, bra, obs: _witness_distribution(p, ket),
    **{f"correlators {kind}": (lambda p, ket, bra, obs, kind=kind: tkd.correlators(p, kind=kind))
       for kind in ("right", "left", "doubled", "lvn")},
    **{f"char_fn {kind}": (lambda p, ket, bra, obs, kind=kind: _char(p, obs, kind)[0])
       for kind in ("right", "left", "doubled")},
    "char_fn off a product grid": lambda p, ket, bra, obs: _char(p, obs, "right", ragged=True)[0],
    "char_from_distribution": lambda p, ket, bra, obs: tkd.char_from_distribution(
        tkd.kd_doubled(p, ket, bra), [(0.5,) * 6, (0.0,) * 6]),
    **{f"invert_char {kind}": (lambda p, ket, bra, obs, kind=kind: tkd.invert_char(*_char(p, obs, kind)))
       for kind in ("right", "left", "doubled")},
}


@pytest.mark.parametrize("name", sorted(VALUE_BUILDERS))
def test_result_builders_hand_over_their_values_without_a_copy(name, monkeypatch):
    objs = _build(_raw())
    result, handed = _handed_over(lambda: VALUE_BUILDERS[name](*objs), monkeypatch)
    assert handed and np.shares_memory(result.values, handed[-1])
    assert result.values.dtype == np.complex128 and _read_only_down_to_base(result.values)


def _born_args(y, rng):
    ket = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in y.dims]
    bra = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in y.dims]
    return (ket, bra) if y.doubled else (ket,)


@pytest.mark.parametrize("kind", ["kd_right", "kd_doubled"])
def test_mutating_the_array_a_state_was_built_from_changes_no_born_eval(kind):
    p = _build(_raw())[0]
    given = np.array(tkd.kd_state_recursive(p, kind=kind).matrix)
    y, y_late = (tkd.TemporalStateOperator(kind, p.dims, given) for _ in range(2))
    fresh = tkd.TemporalStateOperator(kind, p.dims, given.copy())
    args = _born_args(y, np.random.default_rng(3))
    tkd.born_eval(y, *args)  # y builds its paired copy before the write, y_late after it
    given[...] = 0.0
    want = tkd.born_eval(fresh, *args)
    assert tkd.born_eval(y, *args) == want
    assert tkd.born_eval(y_late, *args) == want


@pytest.mark.parametrize("name", sorted(STATE_PRODUCERS))
def test_repeated_born_eval_is_bit_identical(name):
    p = _build(_raw())[0]
    y, fresh = STATE_PRODUCERS[name](p), STATE_PRODUCERS[name](p)
    args = _born_args(y, np.random.default_rng(5))
    first = tkd.born_eval(y, *args)
    assert tkd.born_eval(y, *args) == first
    assert tkd.born_eval(fresh, *args) == first

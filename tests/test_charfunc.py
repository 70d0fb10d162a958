from __future__ import annotations

import tracemalloc

import numpy as np
import pytest  # type: ignore

import tkd
from tkd import ValidationError
from tkd.linops import max_abs
from conftest import corpus


def schedule_observables(s):
    return tuple(m.observable() for m in s)


def random_points(n_axes: int, count: int, seed: int) -> list[tuple[float, ...]]:
    rng = np.random.default_rng(seed)
    pts = [tuple(float(x) for x in rng.uniform(-2.0, 2.0, n_axes)) for _ in range(count)]
    return [(0.0,) * n_axes] + pts


def test_zero_point_is_one():
    for p, s in corpus(4):
        obs = tkd.ObservableSchedule(bra=schedule_observables(s))
        samples = tkd.char_fn(p, obs, [(0.0,) * p.n_times])
        assert abs(samples.values[0] - 1.0) < 1e-12


def test_xy_closed_values(xy_process, pauli):
    # chi(u0, u1) for the |0>, X-then-Y qubit pair
    p, _ = xy_process
    obs = tkd.ObservableSchedule(bra=(pauli["X"], pauli["Y"]))
    samples = tkd.char_fn(p, obs, [(np.pi / 2, 0.0), (0.0, np.pi)])
    assert abs(samples.values[0] - 0.0) < 1e-12
    assert abs(samples.values[1] - (-1.0)) < 1e-12


@pytest.mark.parametrize("case", range(5))
def test_fourier_identity_right_left(case):
    p, s = corpus(5, start=1)[case]
    obs_ops = schedule_observables(s)
    pts = random_points(p.n_times, 7, seed=case)
    right = tkd.char_fn(p, tkd.ObservableSchedule(bra=obs_ops), pts, kind="right")
    from_q = tkd.char_from_distribution(tkd.kd_right(p, s), pts)
    assert max_abs(right.values - from_q.values) < 1e-10
    left = tkd.char_fn(p, tkd.ObservableSchedule(ket=obs_ops), pts, kind="left")
    from_ql = tkd.char_from_distribution(tkd.kd_left(p, s), pts)
    assert max_abs(left.values - from_ql.values) < 1e-10
    # conjugation symmetry: chi_left(v) = conj(chi_right(v))
    assert max_abs(left.values - np.conj(right.values)) < 1e-10


def test_fourier_identity_doubled():
    p, ket = corpus(1, start=1)[0]
    bra = tkd.random_schedule(p.dims, seed=31)
    obs = tkd.ObservableSchedule(ket=schedule_observables(ket), bra=schedule_observables(bra))
    pts = random_points(2 * p.n_times, 5, seed=9)
    direct = tkd.char_fn(p, obs, pts, kind="doubled")
    from_q = tkd.char_from_distribution(tkd.kd_doubled(p, ket, bra), pts)
    assert max_abs(direct.values - from_q.values) < 1e-10


def test_char_magnitude_bounded_by_total_weight():
    p, s = corpus(1, start=2)[0]
    q = tkd.kd_right(p, s)
    bound = 1.0 + tkd.nonclassicality(q)
    pts = random_points(p.n_times, 20, seed=5)
    samples = tkd.char_fn(p, tkd.ObservableSchedule(bra=schedule_observables(s)), pts)
    assert float(np.max(np.abs(samples.values))) <= bound + 1e-10


def test_schedule_validation():
    with pytest.raises(ValidationError):
        tkd.ObservableSchedule()
    with pytest.raises(ValidationError):
        tkd.ObservableSchedule(bra=(np.array([[0.0, 1.0], [0.0, 0.0]]),))
    with pytest.raises(ValidationError):
        tkd.ObservableSchedule(ket=(np.eye(2),), bra=(np.eye(2), np.eye(2)))
    obs = tkd.ObservableSchedule(ket=(np.eye(2), np.eye(2)))
    assert obs.n_times == 2
    p = tkd.random_process(2, 1, seed=1)
    with pytest.raises(ValidationError):  # right kind needs the bra side
        tkd.char_fn(p, obs, [(0.0, 0.0)], kind="right")
    with pytest.raises(ValidationError):
        tkd.char_fn(p, obs, [(0.0, 0.0)], kind="sideways")
    with pytest.raises(ValidationError):  # wrong arity
        tkd.char_fn(p, tkd.ObservableSchedule(bra=(np.eye(2), np.eye(2))), [(0.0,)])


def test_char_samples_validation():
    with pytest.raises(ValidationError):  # zero point must carry value 1
        tkd.CharSamples("right", [(0.0, 0.0)], np.array([0.5]))
    with pytest.raises(ValidationError):
        tkd.CharSamples("right", [(0.0,), (1.0, 2.0)], np.array([1.0, 0.5]))
    with pytest.raises(ValidationError):
        tkd.CharSamples("right", [(1.0,)], np.array([1.0, 2.0]))


def _qubit_pair():
    """A two-time qubit process with Z on both sides: two phases per point, four doubled."""
    z = np.diag([1.0, -1.0])
    return tkd.random_process(2, 1, seed=1), tkd.ObservableSchedule(ket=(z, z), bra=(z, z))


@pytest.mark.parametrize("phase", [None, 1j, 0.5 + 0j, np.array([1.0, 2.0]), [0.5], "x"],
                         ids=["none", "complex", "real complex", "array", "list", "str"])
def test_grid_phases_go_through_float(phase):
    p, obs = _qubit_pair()
    with pytest.raises((TypeError, ValueError)) as err:
        tkd.char_fn(p, obs, [(0.0, 0.0), (0.1, phase)])
    with pytest.raises((TypeError, ValueError)) as err_samples:
        tkd.CharSamples("right", [(0.0, 0.0), (0.1, phase)], np.array([1.0, 0.5]))
    want = ValueError if isinstance(phase, str) else TypeError  # float("x") is a ValueError
    assert err.type is want and err_samples.type is want
    assert not isinstance(err.value, ValidationError)


def test_grid_arity_errors():
    p, obs = _qubit_pair()
    for kind, grid, message in (
            ("right", [(0.0, 0.0, 0.0)], "right point needs 2 phases, got 3"),
            ("right", [(0.0, 0.0), (1.0,)], "right point needs 2 phases, got 1"),  # ragged
            ("left", [(1.0,), (0.0, 0.0)], "left point needs 2 phases, got 1"),
            ("doubled", [(0.0, 0.0, 0.0, 0.0), (1.0, 2.0)], "doubled point needs 4 phases, got 2")):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            tkd.char_fn(p, obs, grid, kind=kind)
    with pytest.raises(ValidationError, match="^grid points differ in arity$"):
        tkd.CharSamples("right", [(0.0, 0.0), (1.0,)], np.array([1.0, 0.5]))
    q = tkd.kd_right(p, [tkd.spectral_measurement(np.diag([1.0, -1.0]))] * 2)
    with pytest.raises(ValidationError, match="^point needs 2 phases, got 1$"):
        tkd.char_from_distribution(q, [(0.0, 0.0), (1.0,)])


@pytest.mark.parametrize("position", range(3))
def test_zero_point_anywhere_must_carry_one(position):
    grid = [(0.5, 1.0), (0.25, 0.0), (1.0, -2.0)]
    grid.insert(position, (0.0, -0.0))
    values = np.full(4, 0.5 + 0.5j)
    values[position] = 1.0
    assert tkd.CharSamples("right", grid, values).values[position] == 1.0
    values[position] = 0.5
    with pytest.raises(ValidationError, match=r"^value at the zero point is \(0\.5\+0j\), not 1$"):
        tkd.CharSamples("right", grid, values)
    values[position] = 1.0 + 1e-9
    with pytest.raises(ValidationError):
        tkd.CharSamples("right", grid, values, tol=1e-10)
    assert tkd.CharSamples("right", grid, values, tol=1e-8).grid[position] == (0.0, -0.0)


@pytest.mark.parametrize("grid", [
    [[0, 1], [2, 3]],
    ((0, 1), (2.5, 3)),
    np.array([[0, 1], [2, 3]]),
    np.array([[0.0, 1.0], [2.5, 3.0]]),
    [np.array([0.0, 1.0]), (np.float32(2.5), np.int64(3))],
], ids=["list", "tuple", "int array", "float64 array", "numpy scalars"])
def test_grids_hold_python_floats(grid):
    p, obs = _qubit_pair()
    want = [[float(x) for x in pt] for pt in grid]
    for samples in (tkd.char_fn(p, obs, grid),
                    tkd.CharSamples("right", grid, np.array([1.0, 0.5]))):
        assert isinstance(samples.grid, tuple) and all(isinstance(pt, tuple) for pt in samples.grid)
        assert [list(pt) for pt in samples.grid] == want
        assert all(type(x) is float for pt in samples.grid for x in pt)


def test_empty_grid():
    p, obs = _qubit_pair()
    for samples in (tkd.char_fn(p, obs, []), tkd.char_fn(p, obs, [], kind="doubled"),
                    tkd.CharSamples("right", [], np.array([]))):
        assert samples.grid == () and samples.values.shape == (0,)
        assert samples.values.dtype == np.complex128
    with pytest.raises(ValidationError):
        tkd.CharSamples("right", [], np.array([1.0]))


def test_default_nodes():
    nodes = tkd.default_nodes([-1.0, 1.0])
    assert np.allclose(nodes, [0.0, np.pi / 3])
    assert np.allclose(tkd.default_nodes([2.0]), [0.0])
    nodes3 = tkd.default_nodes([0.0, 1.0, 3.0])
    assert np.allclose(nodes3, [0.0, np.pi / 4, np.pi / 2])
    grid = tkd.product_grid([[0.0, 1.0], [0.0, 2.0]])
    assert grid == [(0.0, 0.0), (0.0, 2.0), (1.0, 0.0), (1.0, 2.0)]


@pytest.mark.parametrize("case", range(4))
def test_inversion_round_trip(case):
    p, s = corpus(4, start=2)[case]
    q = tkd.kd_right(p, s)
    spectra = [[o.value for o in m.outcomes] for m in s]
    grid = tkd.product_grid([tkd.default_nodes(sp) for sp in spectra])
    samples = tkd.char_fn(p, tkd.ObservableSchedule(bra=schedule_observables(s)), grid)
    back = tkd.invert_char(samples, spectra)
    assert back.kind == "kd_right"
    assert max_abs(back.values - q.values) < 1e-8


def test_inversion_round_trip_left_and_doubled():
    p, ket = corpus(1)[0]
    bra = tkd.random_schedule(p.dims, seed=41)
    spectra_k = [[o.value for o in m.outcomes] for m in ket]
    spectra_b = [[o.value for o in m.outcomes] for m in bra]

    grid = tkd.product_grid([tkd.default_nodes(sp) for sp in spectra_k])
    left = tkd.char_fn(p, tkd.ObservableSchedule(ket=schedule_observables(ket)), grid, kind="left")
    back = tkd.invert_char(left, spectra_k)
    assert back.kind == "kd_left"
    assert max_abs(back.values - tkd.kd_left(p, ket).values) < 1e-8

    spectra = spectra_k + spectra_b
    grid2 = tkd.product_grid([tkd.default_nodes(sp) for sp in spectra])
    obs = tkd.ObservableSchedule(ket=schedule_observables(ket), bra=schedule_observables(bra))
    doubled = tkd.char_fn(p, obs, grid2, kind="doubled")
    backd = tkd.invert_char(doubled, spectra)
    assert backd.kind == "kd_doubled" and backd.ket_axes == p.n_times
    assert max_abs(backd.values - tkd.kd_doubled(p, ket, bra).values) < 1e-8


def test_inversion_rejects_singular_grid(xy_process, pauli):
    # for +/-1 spectra the nodes {0, pi} collapse the transform
    p, _ = xy_process
    obs = tkd.ObservableSchedule(bra=(pauli["X"], pauli["Y"]))
    grid = tkd.product_grid([[0.0, np.pi], [0.0, np.pi / 3]])
    samples = tkd.char_fn(p, obs, grid)
    with pytest.raises(ValidationError):
        tkd.invert_char(samples, [[-1.0, 1.0], [-1.0, 1.0]])


def test_inversion_grid_shape_errors(xy_process, pauli):
    p, _ = xy_process
    obs = tkd.ObservableSchedule(bra=(pauli["X"], pauli["Y"]))
    # too few nodes on the second axis
    samples = tkd.char_fn(p, obs, [(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(ValidationError):
        tkd.invert_char(samples, [[-1.0, 1.0], [-1.0, 1.0]])
    # right node counts but not a full product
    pts = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (2.0, 1.0)]
    samples = tkd.char_fn(p, obs, pts)
    with pytest.raises(ValidationError):
        tkd.invert_char(samples, [[-1.0, 1.0], [-1.0, 1.0]])


@pytest.mark.parametrize("channel_kind", ["unitary", "cptp"])
def test_circuit_matches_direct_formula(channel_kind):
    p = tkd.random_process(2, 2, seed=601, channel_kind=channel_kind)
    s = tkd.random_schedule(p.dims, seed=602)
    ops = schedule_observables(s)
    pts = random_points(p.n_times, 10, seed=603)[1:]
    obs_r = tkd.ObservableSchedule(bra=ops)
    chi = tkd.char_fn(p, obs_r, pts)
    for pt, want in zip(pts, chi.values):
        res = tkd.circuit_sim(p, obs_r, pt)
        assert res.estimate is None and res.shots is None
        assert abs(res.exact - want) < 1e-8
    obs_l = tkd.ObservableSchedule(ket=ops)
    chil = tkd.char_fn(p, obs_l, pts, kind="left")
    for pt, want in zip(pts, chil.values):
        assert abs(tkd.circuit_sim(p, obs_l, pt, kind="left").exact - want) < 1e-8


def test_circuit_doubled_kind():
    p = tkd.random_process(2, 1, seed=604, channel_kind="cptp")
    ket = tkd.random_schedule(p.dims, seed=605)
    bra = tkd.random_schedule(p.dims, seed=606)
    obs = tkd.ObservableSchedule(ket=schedule_observables(ket), bra=schedule_observables(bra))
    pts = random_points(2 * p.n_times, 6, seed=607)[1:]
    chi = tkd.char_fn(p, obs, pts, kind="doubled")
    for pt, want in zip(pts, chi.values):
        assert abs(tkd.circuit_sim(p, obs, pt, kind="doubled").exact - want) < 1e-8


def test_circuit_accepts_what_the_process_tolerance_accepts():
    # trace preserving only to 1e-7: valid at tol 1e-6, which circuit_sim must honour
    near_tp = tkd.QuantumChannel([np.sqrt(1 - 1e-7) * np.eye(2)])
    p = tkd.MultiTimeProcess(tkd.random_density(2, seed=620), [near_tp, near_tp], tol=1e-6)
    s = tkd.random_schedule(p.dims, seed=621)
    ops = schedule_observables(s)
    obs = tkd.ObservableSchedule(ket=ops, bra=ops)
    for kind in ("right", "left", "doubled"):
        width = 2 * p.n_times if kind == "doubled" else p.n_times
        pts = random_points(width, 4, seed=622)
        chi = tkd.char_fn(p, obs, pts, kind=kind)
        for pt, want in zip(pts, chi.values):
            assert abs(tkd.circuit_sim(p, obs, pt, kind=kind).exact - want) <= 1e-12
    with pytest.raises(ValidationError):
        tkd.stinespring(near_tp)  # the default tolerance still refuses it
    assert tkd.stinespring(near_tp, tol=1e-6) is near_tp.dilation


def test_circuit_d3():
    p = tkd.random_process(3, 1, seed=608, channel_kind="cptp")
    s = tkd.random_schedule(p.dims, seed=609)
    obs = tkd.ObservableSchedule(bra=schedule_observables(s))
    pts = random_points(p.n_times, 4, seed=610)[1:]
    chi = tkd.char_fn(p, obs, pts)
    for pt, want in zip(pts, chi.values):
        assert abs(tkd.circuit_sim(p, obs, pt).exact - want) < 1e-8


def test_circuit_shots():
    p = tkd.random_process(2, 1, seed=611, channel_kind="unitary")
    s = tkd.random_schedule(p.dims, seed=612)
    obs = tkd.ObservableSchedule(bra=schedule_observables(s))
    pt = (0.9, -0.4)
    res = tkd.circuit_sim(p, obs, pt, shots=1_000_000, seed=13)
    assert res.shots == 1_000_000 and res.seed == 13
    assert res.std_error is not None and res.std_error < 0.01
    assert res.deviation <= 5.0 * res.std_error
    again = tkd.circuit_sim(p, obs, pt, shots=1_000_000, seed=13)
    assert again.estimate == res.estimate
    other = tkd.circuit_sim(p, obs, pt, shots=1_000_000, seed=14)
    assert other.estimate != res.estimate
    with pytest.raises(ValidationError):
        tkd.circuit_sim(p, obs, pt, shots=1)


def test_circuit_metadata_and_calibration():
    p = tkd.random_process(2, 1, seed=613, channel_kind="cptp")
    s = tkd.random_schedule(p.dims, seed=614)
    obs = tkd.ObservableSchedule(bra=schedule_observables(s))
    res = tkd.circuit_sim(p, obs, (0.3, 0.8))
    assert res.metadata["gate_phase_sign"] == 1
    assert res.metadata["readout_sign"] == -1
    assert res.metadata["register"][0] == 2
    assert res.metadata["env_dims"] == (2,)


@pytest.mark.parametrize("kind,obs", [
    ("right", tkd.ObservableSchedule(ket=(np.eye(2), np.eye(2)))),
    ("left", tkd.ObservableSchedule(bra=(np.eye(2), np.eye(2)))),
])
def test_missing_side_is_rejected(kind, obs):
    p = tkd.random_process(2, 1, seed=615)
    with pytest.raises(ValidationError, match="observables"):
        tkd.char_fn(p, obs, [(0.1, 0.2)], kind=kind)
    with pytest.raises(ValidationError, match="observables"):
        tkd.circuit_sim(p, obs, (0.1, 0.2), kind=kind)


def _chain(d: int, n: int, seed: int) -> tkd.MultiTimeProcess:
    """n depolarizing steps (5 Kraus operators each) at d=2, random CPTP steps at d=3."""
    rng = np.random.default_rng(seed)
    if d == 2:
        steps = [tkd.build_channel("depolarizing", p=0.3, d=2)] * n
    else:
        steps = [tkd.random_channel(d, rng, env_dim=3) for _ in range(n)]
    return tkd.MultiTimeProcess(tkd.random_density(d, rng), steps)


def _both_sides(p, seed: int) -> tkd.ObservableSchedule:
    ket = tkd.random_schedule(p.dims, seed=seed)
    bra = tkd.random_schedule(p.dims, seed=seed + 1)
    return tkd.ObservableSchedule(ket=schedule_observables(ket), bra=schedule_observables(bra))


@pytest.mark.parametrize("d,n", [(2, 4), (2, 6), (2, 8), (3, 3), (3, 4)])
def test_circuit_long_chains(d, n):
    # the live register stays ancilla ⊗ system, so long dilated chains stay cheap
    p = _chain(d, n, seed=616 + n)
    obs = _both_sides(p, seed=620 + n)
    for kind in ("right", "left", "doubled"):
        width = 2 * p.n_times if kind == "doubled" else p.n_times
        pt = random_points(width, 1, seed=n)[1]
        want = tkd.char_fn(p, obs, [pt], kind=kind).values[0]
        assert abs(tkd.circuit_sim(p, obs, pt, kind=kind).exact - want) < 1e-12


def test_circuit_metadata_names_the_full_register():
    p = _chain(2, 8, seed=630)
    obs = _both_sides(p, seed=631)
    res = tkd.circuit_sim(p, obs, (0.2,) * (2 * p.n_times), kind="doubled")
    assert res.metadata["register"] == (2, 2) + (5,) * 8
    assert res.metadata["env_dims"] == (5,) * 8


def test_circuit_memory_stays_bounded():
    # the full register at n=4 has side 2·2·5⁴ = 2500 (100 MB per complex matrix)
    p = _chain(2, 4, seed=632)
    obs = _both_sides(p, seed=633)
    tracemalloc.start()
    try:
        tkd.circuit_sim(p, obs, (0.4,) * (2 * p.n_times), kind="doubled")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000

from __future__ import annotations

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

from __future__ import annotations

import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest  # type: ignore

import tkd
from tkd import ValidationError
from tkd.linops import max_abs
from tkd.oracle import oracle_kd
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
    rect = tkd.MultiTimeProcess(np.eye(2) / 2, [tkd.build_channel("replacement", omega=np.eye(3) / 3,
                                                                  d_in=2)])
    ket, bra = tkd.random_schedule(rect.dims, seed=1), tkd.random_schedule(rect.dims, seed=2)
    obs = tkd.ObservableSchedule(ket=schedule_observables(ket), bra=schedule_observables(bra))
    for kind, q in (("right", oracle_kd(rect, bra)), ("left", oracle_kd(rect, ket, "kd_left")),
                    ("doubled", oracle_kd(rect, ket, "kd_doubled", bra=bra))):
        pts = random_points(len(q.axes), 4, seed=3)
        want = tkd.char_from_distribution(q, pts).values
        assert max_abs(tkd.char_fn(rect, obs, pts, kind=kind).values - want) <= 1e-12


SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("sides, refusal", [
    ({"ket": (np.eye(2), np.triu(np.ones((3, 3)))), "bra": (SHEAR, np.eye(2))},
     "ket observable 1: not Hermitian within 1e-09"),
    ({"bra": (SHEAR, np.zeros(3))}, "bra observable 0: not Hermitian within 1e-09"),
    ({"bra": (np.eye(2), np.zeros(3))}, "expected a matrix, got ndim=1"),
    ({"ket": (np.eye(2), np.eye(2)), "bra": (np.eye(3), SHEAR)},
     "bra observable 1: not Hermitian within 1e-09"),
], ids=["an earlier refusal in another dimension", "a refusal before a non-matrix", "a non-matrix",
        "the bra side after the ket side"])
def test_schedule_names_its_first_refusal_in_entry_order(sides, refusal):
    # the observables of one dimension are decomposed together; the refusal is the first
    # in entry order (ket side first) all the same
    with pytest.raises(ValidationError, match=f"^{re.escape(refusal)}$"):
        tkd.ObservableSchedule(**sides)


@pytest.mark.parametrize("side", ["ket", "bra"])
@pytest.mark.parametrize("entries", [
    [[1e308, 0.0], [0.0, -1.0]],
    [[0.0, 1e308], [1e308, 0.0]],
    [[0.0, 1e308j], [-1e308j, 0.0]],
], ids=["diagonal", "real off-diagonal", "imaginary off-diagonal"])
def test_observable_that_overflows_is_refused_without_a_warning(side, entries):
    # (o + o†)/2, or o − o† in the Hermiticity check, would overflow
    ops = (np.eye(2), np.array(entries))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValidationError, match=f"^{side} observable 1: an entry exceeds .* overflows$"):
            tkd.ObservableSchedule(**{side: ops})
    assert not caught


def test_observable_at_half_the_float_range_is_accepted():
    half_max = sys.float_info.max / 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        obs = tkd.ObservableSchedule(bra=(np.diag([half_max, -half_max]),) * 2)
    assert not caught
    assert [o.value for o in obs.bra[0].outcomes] == pytest.approx([-half_max, half_max], rel=1e-15)


def test_schedule_keeps_every_measurement_as_given():
    rng = np.random.default_rng(5)
    p = tkd.random_process(2, 2, seed=rng)
    hs = [tkd.random_hermitian(2, rng) for _ in range(p.n_times)]
    s = [tkd.spectral_measurement(h) for h in hs]
    obs = tkd.ObservableSchedule(bra=s)
    assert all(kept is m for kept, m in zip(obs.bra, s))
    pts = random_points(p.n_times, 6, seed=7)
    want = tkd.char_fn(p, tkd.ObservableSchedule(bra=hs), pts).values
    assert tkd.char_fn(p, obs, pts).values.tobytes() == want.tobytes()
    # descending values, equal values and Z⊗Z (values 1, −1, −1, 1) are kept as given too
    descending = tkd.ProjectiveMeasurement(2, s[0].outcomes[::-1])
    equal = tkd.ProjectiveMeasurement(2, [tkd.Outcome(0.5, o.projector, o.label) for o in s[1].outcomes])
    zz = tkd.product_measurement([tkd.spectral_measurement(np.diag([1.0, -1.0]))] * 2)
    for m in (descending, equal, zz):
        assert tkd.ObservableSchedule(bra=[m]).bra[0] is m
    given = [descending, equal, s[2]]
    chi = tkd.char_fn(p, tkd.ObservableSchedule(bra=given), pts).values
    want = tkd.char_from_distribution(tkd.kd_right(p, given), pts).values
    assert max_abs(chi - want) < 1e-12
    p4 = tkd.random_process(4, 1, seed=rng)
    pts = random_points(2, 6, seed=8)
    chi = tkd.char_fn(p4, tkd.ObservableSchedule(bra=(zz, zz)), pts).values
    assert max_abs(chi - tkd.char_from_distribution(tkd.kd_right(p4, [zz, zz]), pts).values) < 1e-12


def test_char_samples_validation():
    with pytest.raises(ValidationError):  # zero point must carry value 1
        tkd.CharSamples("right", [(0.0, 0.0)], np.array([0.5]))
    with pytest.raises(ValidationError):
        tkd.CharSamples("right", [(0.0,), (1.0, 2.0)], np.array([1.0, 0.5]))
    with pytest.raises(ValidationError):
        tkd.CharSamples("right", [(1.0,)], np.array([1.0, 2.0]))
    with pytest.raises(ValidationError, match="^unknown characteristic kind 'sideways'$"):
        tkd.CharSamples("sideways", [(0.0,)], np.array([1.0]))


def _containers():
    """Each result container as (build from an array, its held array, the value its
    checks fix), with an array it accepts; every array is 2-D, so it has a transpose."""
    axes = (tkd.spectral_measurement(np.diag([1.0, -1.0])).outcomes,) * 2
    b = tkd.hs_basis(2)
    return {
        "QuasiDistribution": (lambda v: tkd.QuasiDistribution("kd_right", axes, v),
                              lambda c: c.values, lambda c: c.total(),
                              np.array([[0.25, 0.5], [0.125, 0.125]], dtype=complex)),
        "CorrelatorTensor": (lambda v: tkd.CorrelatorTensor("right", (b, b), v),
                             lambda c: c.values, lambda c: c.values[0, 0],
                             np.eye(4, dtype=complex)),
        "TemporalStateOperator": (lambda v: tkd.TemporalStateOperator("kd_right", (2,), v),
                                  lambda c: c.matrix, lambda c: tkd.born_eval(c, [np.eye(2)]),
                                  np.diag([1.0, 0.0]).astype(complex)),
        "CharSamples": (lambda v: tkd.CharSamples("right", [(0.0,), (1.0,), (2.0,), (3.0,)], v),
                        lambda c: c.values, lambda c: c.values[0],
                        np.array([[1.0, 0.5], [0.25, 0.125]], dtype=complex)),
    }


def _caller_arrays(v):
    """Four ways a caller can hand over (views of) ``v``: each as (name, the array)."""
    owned, view, transposed = v.copy(), v.copy()[:], v.copy()
    owned.setflags(write=False)
    view.setflags(write=False)  # read-only, but its base is not
    transposed.setflags(write=False)
    return [("writeable", v.copy()), ("owned read-only", owned), ("read-only view", view),
            ("transposed view", transposed.T)]


@pytest.mark.parametrize("kind", ["QuasiDistribution", "CorrelatorTensor", "TemporalStateOperator",
                                  "CharSamples"])
def test_held_values_are_a_read_only_copy_of_a_caller_array(kind):
    build, held_of, checked, v = _containers()[kind]
    for name, a in _caller_arrays(v):
        c = build(a)
        held = held_of(c)
        first = (0,) * held.ndim
        with pytest.raises(ValueError):
            held[first] = 7.0
        assert held.dtype == np.complex128 and not np.shares_memory(held, a), name
        owner = a if a.base is None else a.base
        owner.setflags(write=True)  # an array that owns its memory can be made writeable again
        owner[(0,) * owner.ndim] = 7.0
        # the normalization (or unit trace) checked at construction must stay true
        assert held[first] == v[(0,) * v.ndim] and checked(c) == 1.0, name


def test_state_copies_a_caller_array_even_a_read_only_one():
    state = np.diag([1.0, 0.0]).astype(complex)
    state.setflags(write=False)
    for m in (state, state.T, state[:]):
        y = tkd.TemporalStateOperator("kd_right", (2,), m)
        assert not np.shares_memory(y.matrix, state) and not y.matrix.flags.writeable
    state.setflags(write=True)  # an array that owns its memory can be made writeable again
    state[0, 0] = 7.0
    assert y.matrix[0, 0] == 1.0 and tkd.born_eval(y, [np.eye(2)]) == 1.0


def test_pass_outputs_are_read_only():
    p, _ = _qubit_pair()
    z = tkd.spectral_measurement(np.diag([1.0, -1.0]))
    obs = tkd.ObservableSchedule(bra=(z.observable(),) * 2)
    grid = tkd.product_grid([[0.0, 1.0]] * 2)
    for held in (tkd.kd_right(p, [z, z]), tkd.kd_doubled(p, [z, z], [z, z]), tkd.lvn(p, [z, z]),
                 tkd.marginalize(tkd.kd_right(p, [z, z]), [0]), tkd.correlators(p, kind="doubled"),
                 tkd.invert_char(tkd.char_fn(p, obs, grid), [[-1.0, 1.0]] * 2)):
        with pytest.raises(ValueError):
            held.values[(0,) * held.values.ndim] = 7.0
        a = held.values
        while a is not None:  # it and every array it views are read-only
            assert not a.flags.writeable
            a = a.base


@pytest.mark.parametrize("build, message", [
    (lambda axes: tkd.QuasiDistribution("kd_right", axes, [1e308, 1e308]),
     "distribution sums to (inf+0j), not 1"),
    (lambda axes: tkd.QuasiDistribution("lvn", axes, [np.inf, -np.inf]),
     "distribution sums to (nan+0j), not 1"),
    (lambda axes: tkd.QuasiDistribution("kd_right", axes, [1.7e308 + 1e308j, 1.0]),
     "distribution sums to (1.7e+308+1e+308j), not 1"),
    (lambda axes: tkd.TemporalStateOperator("kd_right", (2,), np.diag([1e308, 1e308])),
     "state trace is (inf+0j), not 1"),
    (lambda axes: tkd.TemporalStateOperator("kd_right", (2,), np.diag([1.7e308 + 1e308j, 1.0])),
     "state trace is (1.7e+308+1e+308j), not 1"),
    # numpy sums 16 entries in 8 partial sums: entries 0 and 8 make +inf, 1 and 9 make −inf
    (lambda axes: tkd.TemporalStateOperator("kd_right", (2,) * 4, np.diag(
        [1e308, -1e308, 1.0] + [0.0] * 5 + [1e308, -1e308] + [0.0] * 6)),
     "state trace is (nan+0j), not 1"),
    (lambda axes: tkd.CorrelatorTensor("right", (tkd.hs_basis(2),), [1.7e308 + 1.7e308j, 1, 0, 0]),
     "identity correlator is (1.7e+308+1.7e+308j), not 1"),
], ids=["overflowing sum", "inf minus inf sum", "sum defect past the range", "overflowing trace",
        "trace defect past the range", "NaN trace", "identity correlator defect past the range"])
def test_container_checks_refuse_without_a_warning(build, message):
    axes = (tkd.spectral_measurement(np.diag([1.0, -1.0])).outcomes,)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build(axes)


HOSTILE = [np.nan, np.inf, -np.inf, 1e308, -1e308, 1e308j]
_Z = tkd.spectral_measurement(np.diag([1.0, -1.0])).outcomes


def _distribution_case(kind, at, h):
    """A 2×2 distribution of 0.25s with ``h`` at ``at``, and the refusal of its total."""
    values = np.full((2, 2), 0.25, dtype=complex)
    values[at] = h
    doubled = kind in tkd.quasiprob.DOUBLED_KINDS
    build = lambda v: tkd.QuasiDistribution(kind, (_Z, _Z), v, ket_axes=int(doubled))
    return build, values, f"distribution sums to {complex(0.75 + h)}, not 1"


def _correlator_case(kind, at, h):
    """A two-basis qubit tensor, 1 at the identity entry (0, 0) and 0 elsewhere, with ``h`` at ``at``."""
    values = np.zeros((4, 4), dtype=complex)
    values[0, 0] = 1.0
    values[at] = h
    build = lambda v: tkd.CorrelatorTensor(kind, (tkd.hs_basis(2),) * 2, v, ket_axes=int(kind == "doubled"))
    if not np.isfinite(h):
        return build, values, "correlator values must be finite"
    if at == (0, 0):
        return build, values, f"identity correlator is {complex(h)}, not 1"
    return build, values, f"{kind} correlators must be real" if kind in ("mh", "lvn") and h.imag else None


def _state_case(kind, at, h):
    """The maximally mixed state of one qubit time (two, ket and bra, when doubled) with ``h`` at ``at``."""
    d = 4 if kind == "kd_doubled" else 2
    values = np.eye(d, dtype=complex) / d
    values[at] = h
    build = lambda v: tkd.TemporalStateOperator(kind, (2,), v)
    if not np.isfinite(h):
        return build, values, "state matrix must be finite"
    if at == (0, 0):
        return build, values, f"state trace is {complex(h + (d - 1) / d)}, not 1"
    return build, values, f"{kind} state must be Hermitian" if kind in ("mh", "pdo") else None


def _char_case(kind, at, h):
    """χ on the points 0 and 0.5 with ``h`` at the zero point (at (0, 0)) or at the other (at (0, 1))."""
    values = np.array([1.0, 0.5], dtype=complex)
    values[at[1]] = h
    build = lambda v: tkd.CharSamples(kind, [(0.0,), (0.5,)], v)
    if not np.isfinite(h):
        return build, values, "χ values must be finite"
    return build, values, f"value at the zero point is {np.complex128(h)}, not 1" if at == (0, 0) else None


HOSTILE_CONTAINERS = [(case, kind) for case, kinds in [
    (_distribution_case, tkd.quasiprob.KINDS), (_correlator_case, tkd.tomography.CORRELATOR_KINDS),
    (_state_case, tkd.tomography.STATE_KINDS), (_char_case, tkd.charfunc.CHAR_KINDS)] for kind in kinds]


@pytest.mark.parametrize("case, kind", HOSTILE_CONTAINERS,
                         ids=[f"{case.__name__[1:-5]} {kind}" for case, kind in HOSTILE_CONTAINERS])
def test_containers_refuse_hostile_entries_with_their_message_and_no_warning(case, kind):
    # NaN, ±inf, ±1e308 or 1e308j at a diagonal and an off-diagonal entry, in a caller's
    # array and in one a pass handed over: each build returns, or names the check it failed
    for h in HOSTILE:
        for at in ((0, 0), (0, 1)):
            build, values, message = case(kind, at, h)
            for given in (values, tkd.linops._hand(values.copy())):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    if message is None:
                        build(given)
                    else:
                        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                            build(given)


def test_outcomes_compare_and_hash_by_value_and_label():
    a, b = (tkd.spectral_measurement(np.diag([1.0, -1.0])) for _ in range(2))
    assert a.outcomes == b.outcomes and a.outcomes[0] != a.outcomes[1]
    assert hash(a.outcomes[0]) == hash(b.outcomes[0])
    assert len({*a.outcomes, *b.outcomes}) == 2


@pytest.mark.parametrize("grid, values, spectra, message", [
    ([(0.0,), (np.nan,)], [1.0, 0.0], [[1.0, 2.0]], "grid phases must be finite"),
    ([(0.0,), (np.inf,)], [1.0, 0.0], [[1.0, 2.0]], "grid phases must be finite"),
    ([(0.0,), (-np.inf,)], [1.0, 0.0], [[1.0, 2.0]], "grid phases must be finite"),
    ([(0.0,), (1.0,)], [1.0, 0.0], [[1.0, np.inf]], "spectrum 0 holds a non-finite outcome value"),
    ([(0.0,), (1.0,)], [1.0, 0.0], [[1.0, np.nan]], "spectrum 0 holds a non-finite outcome value"),
    (np.zeros((0, 1)), [], [[]], "spectrum 0 is empty"),
], ids=["nan phase", "inf phase", "-inf phase", "inf value", "nan value", "empty"])
def test_non_finite_or_empty_inversion_input_is_refused(grid, values, spectra, message):
    with pytest.raises(tkd.ValidationError, match=f"^{re.escape(message)}$"):
        tkd.invert_char(tkd.CharSamples("right", grid, values), spectra)


_P = tkd.random_process(2, 1, seed=1)
_OBS = tkd.ObservableSchedule(bra=(tkd.random_hermitian(2, 3), tkd.random_hermitian(2, 4)))


@pytest.mark.parametrize("call, message", [
    (lambda: tkd.circuit_sim(_P, _OBS, [np.nan, 0.0]), "grid phases must be finite"),
    (lambda: tkd.circuit_sim(_P, _OBS, [np.inf, 0.0]), "grid phases must be finite"),
    (lambda: tkd.char_fn(_P, _OBS, [[np.inf, 0.0], [0.1, 0.2]]), "grid phases must be finite"),
    (lambda: tkd.char_fn(_P, _OBS, [[0.0, 0.0], [0.1, -np.inf]]), "grid phases must be finite"),
    (lambda: tkd.char_from_distribution(tkd.kd_right(_P, _OBS.bra), [[np.inf, 0.0]]),
     "grid phases must be finite"),
    (lambda: tkd.default_nodes([0.0, np.inf]), "default_nodes: the spectrum holds a non-finite outcome value"),
    (lambda: tkd.default_nodes([np.nan, 1.0]), "default_nodes: the spectrum holds a non-finite outcome value"),
], ids=["circuit nan", "circuit inf", "char_fn inf", "char_fn -inf", "from distribution inf",
        "nodes inf", "nodes nan"])
def test_non_finite_phases_are_refused_before_any_sweep_without_a_warning(call, message, monkeypatch):
    # a NaN phase once gave χ = nan+nanj and an infinite one an overflow warning from the
    # phase gates; default_nodes once spaced [0, inf] as [0, 0]
    for name in ("_sweep", "_ancilla_xy"):
        monkeypatch.setattr(tkd.charfunc, name, lambda *a, **k: pytest.fail("a sweep or gate ran"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()


def _qubit_pair():
    """A two-time qubit process with Z on both sides: two phases per point, four doubled."""
    z = np.diag([1.0, -1.0])
    return tkd.random_process(2, 1, seed=1), tkd.ObservableSchedule(ket=(z, z), bra=(z, z))


PHASES = [None, 1j, 0.5 + 0j, np.complex128(0.5), np.array([1.0, 2.0]), [0.5], "x"]


@pytest.mark.parametrize("grid", [[(0.0, 0.0), (0.1, phase)] for phase in PHASES]
                         + [np.array([[0.0, 0.0], [0.1, 0.5]], dtype=np.complex128)],
                         ids=["none", "complex", "real complex", "numpy complex", "array", "list",
                              "str", "complex array"])
def test_grid_phases_go_through_float(grid):
    p, obs = _qubit_pair()
    # recorded, not raised: a complex phase must fail on its own, not through a
    # ComplexWarning that only an error filter would turn into an exception
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises((TypeError, ValueError)) as err:
            tkd.char_fn(p, obs, grid)
        with pytest.raises((TypeError, ValueError)) as err_samples:
            tkd.CharSamples("right", grid, np.array([1.0, 0.5]))
    assert not caught
    want = ValueError if isinstance(grid[1][1], str) else TypeError  # float("x") is a ValueError
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
    s = [tkd.spectral_measurement(np.diag([1.0, -1.0]))] * 2
    q = tkd.kd_right(p, s)
    with pytest.raises(ValidationError, match="^point needs 2 phases, got 1$"):
        tkd.char_from_distribution(q, [(0.0, 0.0), (1.0,)])
    for other in (tkd.mh_from_kd(q), tkd.lvn(p, s)):
        with pytest.raises(ValidationError, match=f"^no characteristic kind for '{other.kind}'$"):
            tkd.char_from_distribution(other, [(0.0, 0.0)])


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
    kept = tkd.CharSamples("right", grid, values, tol=1e-8).grid[position]
    assert kept.tolist() == [0.0, -0.0] and np.signbit(kept).tolist() == [False, True]


@pytest.mark.parametrize("grid", [
    [[0, 1], [2, 3]],
    ((0, 1), (2.5, 3)),
    np.array([[0, 1], [2, 3]]),
    np.array([[0.0, 1.0], [2.5, 3.0]]),
    [np.array([0.0, 1.0]), (np.float32(2.5), np.int64(3))],
], ids=["list", "tuple", "int array", "float64 array", "numpy scalars"])
def test_grids_hold_python_floats(grid):
    # held as a read-only (P, w) float64 copy whose rows list back to Python floats
    p, obs = _qubit_pair()
    want = [[float(x) for x in pt] for pt in grid]
    for samples in (tkd.char_fn(p, obs, grid),
                    tkd.CharSamples("right", grid, np.array([1.0, 0.5]))):
        assert isinstance(samples.grid, np.ndarray) and samples.grid.dtype == np.float64
        assert samples.grid.shape == (2, 2) and not samples.grid.flags.writeable
        assert samples.grid.tolist() == want
        assert all(type(x) is float for pt in samples.grid.tolist() for x in pt)
        if isinstance(grid, np.ndarray):
            assert not np.shares_memory(samples.grid, grid)


def test_empty_grid():
    p, obs = _qubit_pair()
    for samples, width in ((tkd.char_fn(p, obs, []), 2), (tkd.char_fn(p, obs, [], kind="doubled"), 4),
                           (tkd.CharSamples("right", [], np.array([])), 0)):
        assert samples.grid.shape == (0, width) and samples.grid.dtype == np.float64
        assert samples.values.shape == (0,) and samples.values.dtype == np.complex128
    with pytest.raises(ValidationError):
        tkd.CharSamples("right", [], np.array([1.0]))


# seeded d=2 chains of 1-3 steps and d=3 chains of 1-2 steps, per chain kind
SWEEP_CASES = [(d, n, chain) for d, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))
               for chain in ("unitary", "cptp", "mixed")]


def _char_case(d: int, n: int, chain: str, kind: str):
    """A seeded process, the kind's ObservableSchedule and its oracle distribution."""
    seed = 700 + 10 * d + n + 100 * ("unitary", "cptp", "mixed").index(chain)
    p = tkd.random_process(d, n, seed=seed, channel_kind=chain)
    ket = tkd.random_schedule(p.dims, seed=seed + 1)
    bra = tkd.random_schedule(p.dims, seed=seed + 2)
    if kind == "right":
        return p, tkd.ObservableSchedule(bra=schedule_observables(bra)), tkd.oracle_kd(p, bra)
    if kind == "left":
        return p, tkd.ObservableSchedule(ket=schedule_observables(ket)), \
            tkd.oracle_kd(p, ket, "kd_left")
    obs = tkd.ObservableSchedule(ket=schedule_observables(ket), bra=schedule_observables(bra))
    return p, obs, tkd.oracle_kd(p, ket, "kd_doubled", bra=bra)


def _grids(q, seed: int) -> dict:
    """The default inversion grid shuffled, with a repeat, with a hole; scattered
    points; one point; no points."""
    rng = np.random.default_rng(seed)
    width = len(q.axes)
    default = tkd.product_grid([tkd.default_nodes(q.axis_values(i)) for i in range(width)])
    shuffled = [default[i] for i in rng.permutation(len(default))]
    repeated = list(shuffled)
    repeated.insert(int(rng.integers(len(default) + 1)), shuffled[int(rng.integers(len(default)))])
    scattered = [tuple(rng.uniform(-3.0, 3.0, width)) for _ in range(5)]
    return {"default shuffled": shuffled, "one point repeated": repeated,
            "one point missing": shuffled[:-1],
            "scattered": scattered, "single point": scattered[:1], "empty": []}


@pytest.mark.parametrize("kind", ["right", "left", "doubled"])
@pytest.mark.parametrize("d,n,chain", SWEEP_CASES)
def test_char_sweep_matches_oracle_on_every_grid_shape(d, n, chain, kind):
    p, obs, q = _char_case(d, n, chain, kind)
    for name, grid in _grids(q, seed=d + 10 * n).items():
        chi = tkd.char_fn(p, obs, grid, kind=kind)
        assert chi.kind == kind and len(chi.values) == len(grid), name
        want = tkd.char_from_distribution(q, grid).values
        assert max_abs(chi.values - want) <= 1e-12, name


def test_product_grid_takes_one_sweep_and_other_grids_one_per_point(monkeypatch):
    from tkd import charfunc
    p, obs, q = _char_case(2, 2, "mixed", "doubled")
    grids = _grids(q, seed=3)
    calls = []
    sweep = charfunc._sweep
    monkeypatch.setattr(charfunc, "_sweep", lambda *a: calls.append(1) or sweep(*a))
    for name, want in (("default shuffled", 1), ("one point repeated", 1),
                       ("one point missing", len(grids["one point missing"])),
                       ("scattered", 5), ("single point", 1)):
        calls.clear()
        tkd.char_fn(p, obs, grids[name], kind="doubled")
        assert len(calls) == want, name


@pytest.mark.parametrize("order", ["C order", "shuffled"])
@pytest.mark.parametrize("kind", ["right", "left", "doubled"])
def test_stored_grid_analysis_inverts_to_the_bits_of_a_fresh_one(kind, order, monkeypatch):
    from tkd import charfunc
    p, obs, q = _char_case(2, 2, "mixed", kind)
    spectra = [q.axis_values(i) for i in range(len(q.axes))]
    grid = tkd.product_grid([tkd.default_nodes(sp) for sp in spectra])
    if order == "shuffled":
        grid = grid[np.random.default_rng(5).permutation(len(grid))]
    calls = []
    nodes = charfunc._grid_nodes
    monkeypatch.setattr(charfunc, "_grid_nodes", lambda x: calls.append(1) or nodes(x))
    chi = tkd.char_fn(p, obs, grid, kind=kind)
    stored = tkd.invert_char(chi, spectra)
    assert len(calls) == 1  # char_fn's analysis, reused by the inversion
    calls.clear()
    hand = tkd.CharSamples(kind, chi.grid, chi.values, tol=chi.tol)
    fresh = tkd.invert_char(hand, spectra)
    assert tkd.invert_char(hand, spectra).values.tobytes() == fresh.values.tobytes()
    assert len(calls) == 1  # analysed on first use, once
    assert stored.values.shape == fresh.values.shape
    assert stored.values.tobytes() == fresh.values.tobytes()


def test_stored_grid_analysis_holds_no_view_of_the_callers_grid():
    p, obs = _qubit_pair()
    grid = np.zeros((1, 2))
    chi = tkd.char_fn(p, obs, grid)
    grid[0] = 1.0  # a node at 1 would turn χ(0) = 1 into a phase the inversion refuses
    assert max_abs(tkd.invert_char(chi, [[5.0], [5.0]]).values - 1.0) <= 1e-12


def test_default_nodes():
    nodes = tkd.default_nodes([-1.0, 1.0])
    assert np.allclose(nodes, [0.0, np.pi / 3])
    assert np.allclose(tkd.default_nodes([2.0]), [0.0])
    with pytest.raises(ValidationError, match="^default_nodes: the spectrum is empty$"):
        tkd.default_nodes([])
    nodes3 = tkd.default_nodes([0.0, 1.0, 3.0])
    assert np.allclose(nodes3, [0.0, np.pi / 4, np.pi / 2])
    grid = tkd.product_grid([[0.0, 1.0], [0.0, 2.0]])
    assert grid.dtype == np.float64 and not grid.flags.writeable
    assert grid.tolist() == [[0.0, 0.0], [0.0, 2.0], [1.0, 0.0], [1.0, 2.0]]


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


def test_inversion_round_trip_at_the_regime_edge():
    # d=2 with 8 times, doubled: 16 axes, 65,536 default grid points
    p = tkd.random_process(2, 7, seed=800, channel_kind="mixed")
    ket = tkd.random_schedule(p.dims, seed=810)
    bra = tkd.random_schedule(p.dims, seed=820)
    obs = tkd.ObservableSchedule(ket=schedule_observables(ket), bra=schedule_observables(bra))
    spectra = [[o.value for o in m.outcomes] for m in ket + bra]
    grid = tkd.product_grid([tkd.default_nodes(sp) for sp in spectra])
    back = tkd.invert_char(tkd.char_fn(p, obs, grid, kind="doubled"), spectra)
    assert back.values.shape == (2,) * 16 and back.ket_axes == 8
    assert max_abs(back.values - tkd.kd_doubled(p, ket, bra).values) <= 1e-12


def test_inversion_rejects_singular_grid(xy_process, pauli):
    # for +/-1 spectra the nodes {0, pi} collapse the transform
    p, _ = xy_process
    obs = tkd.ObservableSchedule(bra=(pauli["X"], pauli["Y"]))
    grid = tkd.product_grid([[0.0, np.pi], [0.0, np.pi / 3]])
    samples = tkd.char_fn(p, obs, grid)
    with pytest.raises(ValidationError, match=r"^axis 0 transform is ill-conditioned, cond \S+$"):
        tkd.invert_char(samples, [[-1.0, 1.0], [-1.0, 1.0]])
    # two ill-conditioned axes: the first is named, though the second is worse (cond 1.6e16)
    p3 = tkd.random_process(2, 2, seed=31)
    obs3 = tkd.ObservableSchedule(bra=(pauli["Z"],) * 3)
    grid = tkd.product_grid([[0.0, np.pi / 3], [0.0, np.pi - 1e-8], [0.0, np.pi]])
    with pytest.raises(ValidationError, match=r"^axis 1 transform is ill-conditioned, cond 2\.000e\+08$"):
        tkd.invert_char(tkd.char_fn(p3, obs3, grid), [[-1.0, 1.0]] * 3)


def test_inversion_grid_shape_errors(xy_process, pauli):
    p, _ = xy_process
    obs = tkd.ObservableSchedule(bra=(pauli["X"], pauli["Y"]))
    # char_fn's own output is still held to the spectra count
    samples = tkd.char_fn(p, obs, tkd.product_grid([[0.0, np.pi / 3]] * 2))
    for spectra in ([[-1.0, 1.0]], [[-1.0, 1.0]] * 3):
        with pytest.raises(ValidationError,
                           match=f"^grid points carry 2 phases for {len(spectra)} spectra$"):
            tkd.invert_char(samples, spectra)
    # too few nodes on the second axis
    samples = tkd.char_fn(p, obs, [(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(ValidationError):
        tkd.invert_char(samples, [[-1.0, 1.0], [-1.0, 1.0]])
    # right node counts but not a full product
    pts = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (2.0, 1.0)]
    samples = tkd.char_fn(p, obs, pts)
    with pytest.raises(ValidationError):
        tkd.invert_char(samples, [[-1.0, 1.0], [-1.0, 1.0]])
    # right node counts and point count, but (0, 1) twice and (1, 1) missing
    pts = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.0, 1.0)]
    samples = tkd.char_fn(p, obs, pts)
    with pytest.raises(ValidationError, match="^grid is not a full per-axis product$"):
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


@pytest.mark.parametrize("shots", [1, 0, -3])
def test_too_few_shots_are_refused_before_the_simulator_runs(shots, monkeypatch):
    def never(*args):
        raise AssertionError("the interferometer ran")

    monkeypatch.setattr(tkd.charfunc, "_ancilla_xy", never)
    p = tkd.random_process(2, 1, seed=611, channel_kind="cptp")
    obs = tkd.ObservableSchedule(bra=(Z2, Z2))
    with pytest.raises(ValidationError, match="^need at least 2 shots, one per readout basis$"):
        tkd.circuit_sim(p, obs, (0.9, -0.4), shots=shots, seed=13)


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


Z2, Z3 = np.diag([1.0, -1.0]), np.diag([1.0, 0.0, -1.0])


@pytest.mark.parametrize("kind,obs,message", [
    ("right", tkd.ObservableSchedule(bra=(Z2,) * 3), "schedule has 3 entries for 2 times"),
    ("left", tkd.ObservableSchedule(ket=(Z2,) * 3), "schedule has 3 entries for 2 times"),
    ("doubled", tkd.ObservableSchedule(ket=(Z2,) * 3, bra=(Z2,) * 3),
     "ket schedule has 3 entries for 2 times"),
    ("right", tkd.ObservableSchedule(bra=(Z2, Z3)), r"schedule\[1\] acts on dim 3, process carries 2"),
    ("left", tkd.ObservableSchedule(ket=(Z3, Z2)), r"schedule\[0\] acts on dim 3, process carries 2"),
    ("doubled", tkd.ObservableSchedule(ket=(Z2, Z2), bra=(Z3, Z2)),
     r"bra schedule\[0\] acts on dim 3, process carries 2"),
], ids=["right count", "left count", "doubled count", "right dim", "left dim", "doubled dim"])
def test_schedule_misfits_are_refused(kind, obs, message):
    # χ checks its observables as the kind's KD distribution checks its schedules
    p = tkd.random_process(2, 1, seed=640)
    point = (0.1,) * (2 * p.n_times if kind == "doubled" else p.n_times)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        tkd.char_fn(p, obs, [point], kind=kind)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        tkd.circuit_sim(p, obs, point, kind=kind)


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

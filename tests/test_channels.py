from __future__ import annotations

import numpy as np
import pytest  # type: ignore

import tkd
from tkd import ValidationError
from tkd.linops import max_abs


def rect_channel(d_in: int, d_out: int, seed: int) -> tkd.QuantumChannel:
    """Rectangular CPTP map from a Haar isometry, for dimension-change tests."""
    rng = np.random.default_rng(seed)
    env = d_in
    g = rng.normal(size=(d_out * env, d_in)) + 1j * rng.normal(size=(d_out * env, d_in))
    v, _ = np.linalg.qr(g)
    return tkd.QuantumChannel([v[x::env, :] for x in range(env)])


def test_channel_shape_validation():
    with pytest.raises(ValidationError):
        tkd.QuantumChannel([])
    with pytest.raises(ValidationError):
        tkd.QuantumChannel([np.eye(2), np.eye(3)])
    c = tkd.QuantumChannel([np.zeros((3, 2))])
    assert (c.d_in, c.d_out) == (2, 3)


@pytest.mark.parametrize("build", [
    lambda: tkd.build_channel("kraus", operators=[np.zeros((0, 2))]),
    lambda: tkd.build_channel("unitary", u=np.zeros((0, 0))),
    lambda: tkd.stinespring(tkd.QuantumChannel([np.zeros((0, 0))])),
], ids=["kraus", "unitary", "stinespring"])
def test_kraus_operators_with_a_zero_dimension_are_refused(build):
    with pytest.raises(ValidationError, match=r"^Kraus operators have a zero dimension, shape \(0, "):
        build()


HUGE = np.diag([1e308, 1.0])  # K†K overflows to inf


def test_validate_cptp_defect():
    # single Kraus I/2: sum is I/4, worst entry 0.75 away from I
    rep = tkd.validate_cptp(tkd.QuantumChannel([np.eye(2) / 2]))
    assert not rep.trace_preserving
    assert abs(rep.defect - 0.75) < 1e-12
    rep = tkd.validate_cptp(tkd.identity_channel(3))
    assert rep.trace_preserving and rep.defect == 0.0
    rep = tkd.validate_cptp(tkd.QuantumChannel([HUGE]))  # Σ K†K overflows, without a warning
    assert not rep.trace_preserving and rep.defect == np.inf


def test_channel_defect_is_computed_once(monkeypatch):
    # Σ K†K − I does not depend on the tolerance: building a unitary channel, a process
    # over it and validating it at two tolerances form it once
    sums = []
    effect = tkd.channels._effect
    monkeypatch.setattr(tkd.channels, "_effect", lambda kraus: sums.append(kraus) or effect(kraus))
    c = tkd.build_channel("unitary", u=tkd.quasiprob.haar_unitary(2, seed=3))
    tkd.MultiTimeProcess(np.eye(2) / 2, [c, c])
    assert tkd.validate_cptp(c, 1e-9).trace_preserving and tkd.validate_cptp(c, 1e-30).defect == c.defect
    assert len(sums) == 1 and c.defect < 1e-15


@pytest.mark.parametrize("seed", range(5))
def test_apply_adjoint_duality(seed):
    rng = np.random.default_rng(seed)
    c = rect_channel(3, 2, seed)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    lhs = np.trace(tkd.apply_channel(c, x) @ y)
    rhs = np.trace(x @ tkd.adjoint_apply(c, y))
    assert abs(lhs - rhs) < 1e-12


def test_adjoint_unital_for_tp():
    c = tkd.quasiprob.random_channel(3, seed=11)
    assert max_abs(tkd.adjoint_apply(c, np.eye(3)) - np.eye(3)) < 1e-12


def test_apply_shape_errors():
    c = tkd.identity_channel(2)
    with pytest.raises(ValidationError):
        tkd.apply_channel(c, np.eye(3))
    with pytest.raises(ValidationError):
        tkd.adjoint_apply(c, np.eye(3))


HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


@pytest.mark.parametrize("u", [np.eye(2), HADAMARD], ids=["identity", "hadamard"])
@pytest.mark.parametrize("at", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1e308, -1e308])
def test_apply_passes_non_finite_input_through_without_a_warning(u, at, entry):
    # RuntimeWarnings are errors in tier-1: a warning fails the call
    c = tkd.QuantumChannel([u])
    x = np.eye(2, dtype=np.complex128)
    x[at] = entry
    with np.errstate(over="ignore", invalid="ignore"):
        want = {tkd.apply_channel: u @ x @ u.T, tkd.adjoint_apply: u.T @ x @ u}
    for apply, out in want.items():
        np.testing.assert_array_equal(apply(c, x), out)


def test_compose_matches_sequential():
    a = rect_channel(2, 3, seed=1)
    b = rect_channel(3, 2, seed=2)
    rho = tkd.quasiprob.random_density(2, seed=3)
    direct = tkd.apply_channel(b, tkd.apply_channel(a, rho))
    composed = tkd.apply_channel(tkd.compose(b, a), rho)
    assert max_abs(direct - composed) < 1e-12
    with pytest.raises(ValidationError):
        tkd.compose(a, a)  # 2->3 does not chain with itself


def test_mix_channels_is_convex_combination():
    a = tkd.quasiprob.random_channel(2, seed=4)
    b = tkd.quasiprob.random_channel(2, seed=5)
    rho = tkd.quasiprob.random_density(2, seed=6)
    lam = 0.3
    mixed = tkd.apply_channel(tkd.mix_channels(a, b, lam), rho)
    want = lam * tkd.apply_channel(a, rho) + (1 - lam) * tkd.apply_channel(b, rho)
    assert max_abs(mixed - want) < 1e-12
    assert tkd.validate_cptp(tkd.mix_channels(a, b, 0.0)).trace_preserving
    with pytest.raises(ValidationError):
        tkd.mix_channels(a, b, 1.5)
    with pytest.raises(ValidationError, match="^cannot mix channels of different shape$"):
        tkd.mix_channels(a, tkd.identity_channel(3), 0.5)


def test_tensor_channels():
    a = tkd.quasiprob.random_channel(2, seed=7)
    b = tkd.quasiprob.random_channel(3, seed=8)
    ra = tkd.quasiprob.random_density(2, seed=9)
    rb = tkd.quasiprob.random_density(3, seed=10)
    got = tkd.apply_channel(tkd.tensor_channels(a, b), np.kron(ra, rb))
    want = np.kron(tkd.apply_channel(a, ra), tkd.apply_channel(b, rb))
    assert max_abs(got - want) < 1e-12


def test_jamiolkowski_identity_is_swap():
    j = tkd.jamiolkowski(tkd.identity_channel(2))
    swap = np.zeros((4, 4))
    for k in range(2):
        for l in range(2):
            swap[k * 2 + l, l * 2 + k] = 1.0
    assert (j == swap).all()


@pytest.mark.parametrize("d_in, d_out", [(1, 3), (2, 2), (3, 2), (2, 4)])
def test_jamiolkowski_matches_its_definition(d_in, d_out):
    c = rect_channel(d_in, d_out, 10 * d_in + d_out)
    want = sum(np.kron(tkd.apply_channel(c, np.outer(np.eye(d_in)[k], np.eye(d_in)[l])),
                       np.outer(np.eye(d_in)[l], np.eye(d_in)[k]))
               for k in range(d_in) for l in range(d_in))
    j = tkd.jamiolkowski(c)
    assert max_abs(j - want) < 1e-15 and j.flags.writeable


def test_jamiolkowski_of_an_overflowing_kraus_operator_warns_nothing():
    j = tkd.jamiolkowski(tkd.QuantumChannel([np.diag([1e308, 1.0])]))
    assert j[0, 0] == np.inf and j[3, 3] == 1.0


@pytest.mark.parametrize("seed", range(3))
def test_jamiolkowski_properties(seed):
    c = rect_channel(3, 2, seed + 40)
    j = tkd.jamiolkowski(c)
    assert max_abs(j - np.conj(j.T)) < 1e-12
    # tracing the output slot leaves I on the input slot (trace preservation)
    from tkd.linops import partial_trace
    assert max_abs(partial_trace(j, [c.d_out, c.d_in], keep=[1]) - np.eye(c.d_in)) < 1e-10
    # linear in the channel
    a = rect_channel(3, 2, seed + 80)
    jm = tkd.jamiolkowski(tkd.mix_channels(c, a, 0.25))
    assert max_abs(jm - 0.25 * j - 0.75 * tkd.jamiolkowski(a)) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_stinespring_round_trip(seed):
    d = 2 if seed % 2 else 3
    c = tkd.quasiprob.random_channel(d, seed=seed + 60, env_dim=2)
    u, r, env = tkd.stinespring(c)
    assert r == len(c.kraus)
    assert max_abs(np.conj(u.T) @ u - np.eye(d * r)) < 1e-10
    rho = tkd.quasiprob.random_density(d, seed=seed)
    big = u @ np.kron(rho, env) @ np.conj(u.T)
    from tkd.linops import partial_trace
    back = partial_trace(big, [d, r], keep=[0])
    assert max_abs(back - tkd.apply_channel(c, rho)) < 1e-10


def test_stinespring_rejects_non_tp():
    with pytest.raises(ValidationError):
        tkd.stinespring(tkd.QuantumChannel([np.eye(2) / 2]))
    with pytest.raises(ValidationError):
        tkd.stinespring(tkd.QuantumChannel([np.zeros((3, 2))]))
    with pytest.raises(ValidationError, match="^stinespring needs a square channel$"):
        tkd.stinespring(rect_channel(2, 3, seed=1))  # trace preserving
    with pytest.raises(ValidationError, match="^stinespring needs a trace-preserving channel, defect inf$"):
        tkd.stinespring(tkd.QuantumChannel([HUGE]))


def test_stinespring_deterministic():
    c = tkd.quasiprob.random_channel(2, seed=77, env_dim=3)
    u1, _, _ = tkd.stinespring(c)
    u2, _, _ = tkd.stinespring(c)
    assert max_abs(u1 - u2) == 0.0


def test_build_unitary_channel(pauli):
    c = tkd.build_channel("unitary", u=pauli["X"])
    assert len(c.kraus) == 1
    with pytest.raises(ValidationError):
        tkd.build_channel("unitary", u=np.ones((2, 2)))
    with pytest.raises(ValidationError, match="^build_channel: u is not unitary within tol$"):
        tkd.build_channel("unitary", u=np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        tkd.build_channel("bogus")


def test_replacement_channel_forgets_input():
    omega = tkd.quasiprob.random_density(2, seed=13)
    c = tkd.build_channel("replacement", omega=omega, d_in=3)
    assert tkd.validate_cptp(c).trace_preserving
    for seed in range(3):
        rho = tkd.quasiprob.random_density(3, seed=seed + 500)
        assert max_abs(tkd.apply_channel(c, rho) - omega) < 1e-10
    for d_in in (0, -2):
        with pytest.raises(ValidationError, match=f"d_in {d_in} is not positive"):
            tkd.build_channel("replacement", omega=omega, d_in=d_in)


def test_replacement_lists_kraus_effect_basis_major():
    # x ↦ ω·Tr(x) is measure-and-prepare with the one effect I on d_in: its
    # Kraus operators √λ_i |w_i⟩⟨j| run over the input basis j first
    omega = tkd.quasiprob.random_density(2, seed=14)
    lams, ws = np.linalg.eigh(omega)
    c = tkd.build_channel("replacement", omega=omega, d_in=3)
    want = [np.sqrt(lam) * np.outer(w, tkd.basis_state(3, j))
            for j in range(3) for lam, w in zip(lams, ws.T)]
    assert len(c.kraus) == 6
    assert max(max_abs(k - w) for k, w in zip(c.kraus, want)) < 1e-12
    inst = tkd.Instrument([("all", [np.eye(2)])])
    square = tkd.build_channel("replacement", omega=omega)
    same = tkd.build_channel("measure_replace", instrument=inst, outputs=[omega])
    assert all(np.array_equal(a, b) for a, b in zip(square.kraus, same.kraus, strict=True))


NEAR_HERMITIAN = np.array([[0.5, 0.2 + 1e-10j], [0.2, 0.5]])  # Hermitian within 1e-9
Z_INSTRUMENT = tkd.Instrument([("0", [np.diag([1.0, 0.0])]), ("1", [np.diag([0.0, 1.0])])])


@pytest.mark.parametrize("kind, params", [
    ("replacement", {"omega": NEAR_HERMITIAN}),
    ("measure_replace", {"instrument": Z_INSTRUMENT, "outputs": [NEAR_HERMITIAN, NEAR_HERMITIAN]}),
])
def test_output_that_check_density_accepts_builds(kind, params):
    c = tkd.build_channel(kind, **params)
    assert len(c.kraus) == 4 and tkd.validate_cptp(c).defect < 1e-15
    assert max_abs(tkd.apply_channel(c, np.eye(2) / 2) - NEAR_HERMITIAN) < 1e-9


def test_build_kraus_channel():
    ops = tkd.quasiprob.random_channel(3, seed=15, env_dim=2).kraus
    c = tkd.build_channel("kraus", operators=ops)
    assert all(np.array_equal(a, b) for a, b in zip(c.kraus, ops, strict=True))


@pytest.mark.parametrize("kind,params,missing", [
    ("kraus", {}, "operators"),
    ("unitary", {}, "u"),
    ("replacement", {"d_in": 2}, "omega"),
    ("measure_replace", {"outputs": []}, "instrument"),
    ("measure_replace", {"instrument": None}, "outputs"),
    ("depolarizing", {"p": 0.1}, "d"),
    ("depolarizing", {"d": 2}, "p"),
])
def test_build_channel_names_a_missing_parameter(kind, params, missing):
    with pytest.raises(ValidationError, match=f"kind '{kind}' needs '{missing}'"):
        tkd.build_channel(kind, **params)


TWICE = np.diag([2.0, 0.0])  # trace 2


@pytest.mark.parametrize("kind, params, field, message", [
    ("replacement", {"omega": TWICE}, ("omega",), "state trace differs from 1"),
    ("measure_replace", {"instrument": Z_INSTRUMENT, "outputs": [np.eye(2) / 2, TWICE]}, ("outputs", 1),
     "state trace differs from 1"),
    ("unitary", {"u": np.ones((2, 2))}, ("u",), "build_channel: u is not unitary within tol"),
    ("depolarizing", {"p": 1.5, "d": 2}, ("p",), "depolarizing strength 1.5 outside [0, 1]"),
    ("unitary", {"u": HUGE}, ("u",), "build_channel: u is not unitary within tol"),  # U†U overflows
])
def test_build_channel_refusal_carries_its_field(kind, params, field, message):
    with pytest.raises(ValidationError) as e:
        tkd.build_channel(kind, **params)
    assert e.value.field == field and str(e.value) == message


def test_refusal_of_no_one_input_carries_no_field():
    with pytest.raises(ValidationError) as e:
        tkd.build_channel("bogus")
    assert e.value.field == () and str(e.value) == "unknown channel kind 'bogus'"


def test_measure_replace_channel(pauli):
    zero = tkd.projector(tkd.basis_state(2, 0))
    one = tkd.projector(tkd.basis_state(2, 1))
    inst = tkd.Instrument([("0", [zero]), ("1", [one])])
    c = tkd.build_channel("measure_replace", instrument=inst, outputs=[zero, one])
    assert tkd.validate_cptp(c).trace_preserving
    rho = tkd.quasiprob.random_density(2, seed=21)
    want = rho[0, 0] * zero + rho[1, 1] * one
    assert max_abs(tkd.apply_channel(c, rho) - want) < 1e-10
    with pytest.raises(ValidationError):
        tkd.build_channel("measure_replace", instrument=inst, outputs=[zero])


def test_instrument_validation():
    half = np.eye(2) / np.sqrt(2)
    tkd.Instrument([("a", [half]), ("b", [half])])
    with pytest.raises(ValidationError):
        tkd.Instrument([("a", [half])])
    with pytest.raises(ValidationError):
        tkd.Instrument([])
    with pytest.raises(ValidationError):
        tkd.Instrument([("a", [])])


def test_instrument_effects_sum_to_identity():
    inst = tkd.Instrument([("a", [np.eye(2) / np.sqrt(2)]), ("b", [np.eye(2) / np.sqrt(2)])])
    assert max_abs(inst.effect(0) + inst.effect(1) - np.eye(2)) < 1e-12


def test_depolarizing_channel():
    c = tkd.build_channel("depolarizing", p=0.3, d=2)
    assert tkd.validate_cptp(c).trace_preserving
    rho = tkd.quasiprob.random_density(2, seed=31)
    want = 0.7 * rho + 0.3 * np.eye(2) / 2
    assert max_abs(tkd.apply_channel(c, rho) - want) < 1e-12
    assert max_abs(tkd.apply_channel(tkd.build_channel("depolarizing", p=1.0, d=3),
                                     tkd.quasiprob.random_density(3, seed=32))
                   - np.eye(3) / 3) < 1e-12
    with pytest.raises(ValidationError):
        tkd.build_channel("depolarizing", p=-0.1, d=2)
    for d in (0, -2):
        with pytest.raises(ValidationError, match=f"d {d} is not positive"):
            tkd.build_channel("depolarizing", p=0.1, d=d)


def test_check_density():
    with pytest.raises(ValidationError):
        tkd.check_density(np.eye(2))
    with pytest.raises(ValidationError):
        tkd.check_density(np.array([[1.5, 0], [0, -0.5]]))
    with pytest.raises(ValidationError):
        tkd.check_density(np.array([[0.5, 1j], [0.5j, 0.5]]))
    tkd.check_density(np.eye(2) / 2)

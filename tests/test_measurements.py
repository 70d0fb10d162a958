from __future__ import annotations

import itertools
import re
import tracemalloc

import numpy as np
import pytest  # type: ignore

import tkd
from tkd import ValidationError
from tkd.linops import HALF_RANGE, max_abs


def test_spectral_measurement_reconstructs_observable(pauli):
    for name in ("X", "Y", "Z"):
        m = tkd.spectral_measurement(pauli[name])
        assert m.dim == 2
        assert [o.value for o in m.outcomes] == [-1.0, 1.0]
        assert max_abs(m.observable() - pauli[name]) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_spectral_measurement_random(seed):
    d = 3
    a = tkd.quasiprob.random_hermitian(d, seed=seed)
    m = tkd.spectral_measurement(a)
    total = sum(o.projector for o in m.outcomes)
    assert max_abs(total - np.eye(d)) < 1e-10
    assert max_abs(m.observable() - a) < 1e-10
    vals = [o.value for o in m.outcomes]
    assert vals == sorted(vals)


def test_spectral_measurement_refuses_an_entry_past_the_half_range():
    # the rule ObservableSchedule and the CLI apply: the largest admitted entry is HALF_RANGE
    refusal = (f"observable: an entry exceeds {HALF_RANGE:.6e} in its real or imaginary part, "
               "so (h + h†)/2 overflows")
    for h in (np.diag([1e308, 0.5]), np.diag([0.5, -1e308]), np.array([[0.0, 1e308j], [-1e308j, 0.0]])):
        with pytest.raises(ValidationError, match=f"^{re.escape(refusal)}$"):
            tkd.spectral_measurement(h)
    edge = tkd.spectral_measurement(np.diag([HALF_RANGE, 0.5]))
    assert [o.value for o in edge.outcomes] == [0.5, pytest.approx(HALF_RANGE, rel=1e-15)]
    # a merged group at the edge, whose eigenvalue sum overflows for three members, is
    # reported at the value of its members (eigh's, as for two, whose sum does not overflow)
    two, three = (tkd.spectral_measurement(np.diag([HALF_RANGE] * k)) for k in (2, 3))
    assert [o.value for o in three.outcomes] == [o.value for o in two.outcomes] \
        == [pytest.approx(HALF_RANGE, rel=1e-15)]
    assert [v for v, _ in tkd.hermitian_eig(np.diag([-HALF_RANGE] * 3))] \
        == [-three.outcomes[0].value]


def test_a_merged_group_is_reported_at_np_mean_of_its_eigenvalues():
    # the reference: one eigh per observable, np.mean of each run of equal eigenvalues
    rng = np.random.default_rng(11)
    for i in range(60):
        d = 2 + i % 3
        u = tkd.haar_unitary(d, rng)
        h = u @ np.diag(rng.integers(-1, 2, size=d) * rng.choice([1.0, 1e-3, 1e150])) @ u.conj().T
        h = (h + h.conj().T) / 2
        vals = np.linalg.eigh(h)[0]
        edges = [0, *(np.flatnonzero(np.diff(vals) > 1e-8 * max(1.0, abs(vals).max())) + 1), d]
        m = tkd.spectral_measurement(h, tol=1e-8 * max(1.0, abs(vals).max()))
        assert [o.value for o in m.outcomes] == [float(np.mean(vals[a:b])) for a, b in zip(edges, edges[1:])]


def test_spectral_measurement_merges_degeneracy():
    a = np.diag([1.0, 1.0, -2.0]).astype(np.complex128)
    m = tkd.spectral_measurement(a)
    assert len(m.outcomes) == 2
    ranks = sorted(round(np.trace(o.projector).real) for o in m.outcomes)
    assert ranks == [1, 2]


ZERO = tkd.projector(tkd.basis_state(2, 0))
ONE = tkd.projector(tkd.basis_state(2, 1))
HALF = np.eye(2) * 0.5  # Hermitian, not idempotent
SHEARED = np.array([[1.0, 1.0], [0.0, 0.0]])  # idempotent, not Hermitian
NAN = np.array([[1.0, np.nan], [0.0, 0.0]])
BIG = np.array([[0.0, 1e308], [1e308, 0.0]])  # Hermitian; its square overflows
# d=3, tol 0.4: Σ − I is 1/3 at most, so completeness passes; of the pairs
# (x, y), (x, z), (y, z) only the last overlaps, by 5/9
X3 = tkd.projector(np.array([1.0, 1.0, 1.0]) / np.sqrt(3))
Y3 = np.eye(3) - tkd.projector(np.array([1.0, 2.0, 1.0]) / np.sqrt(6))
Z3 = tkd.projector(np.array([1.0, -2.0, -1.0]) / np.sqrt(6))
O = tkd.Outcome
# (dim, outcomes, tol, refusal): with several faults the first failing outcome is named (its
# shape checked before it is checked as a projector), then completeness, then the first
# overlapping pair in itertools.combinations order
REFUSALS = [
    (2, [], 1e-9, "^measurement needs at least one outcome$"),
    (2, [O(1.0, ZERO, "a"), O(-1.0, ONE, "a")], 1e-9, r"^outcome labels are not distinct: \['a', 'a'\]$"),
    (2, [O(1.0, ZERO, "a")], 1e-9, "^projectors do not sum to the identity$"),
    (2, [O(1.0, HALF, "a"), O(-1.0, HALF, "b")], 1e-9, "^outcome 'a': not a Hermitian projector$"),
    (2, [O(1.0, np.eye(3), "a")], 1e-9, "^projector shape does not match measurement dim$"),
    (2, [O(1.0, None, "a")], 1e-9, "^expected a matrix, got ndim=0$"),
    (2, [O(1.0, NAN, "a"), O(-1.0, ONE, "b")], 1e-9, "^outcome 'a': not a Hermitian projector$"),
    (2, [O(1.0, HALF, "a"), O(-1.0, np.eye(3), "b")], 1e-9, "^outcome 'a': not a Hermitian projector$"),
    (2, [O(1.0, np.eye(3), "a"), O(-1.0, HALF, "b")], 1e-9,
     "^projector shape does not match measurement dim$"),
    (2, [O(1.0, ZERO, "a"), O(0.0, ONE, "b"), O(-1.0, np.eye(3), "c")], 1e-9,
     "^projector shape does not match measurement dim$"),
    (2, [O(1.0, SHEARED, "a"), O(0.0, ONE, "b"), O(-1.0, HALF, "c")], 1e-9,
     "^outcome 'a': not a Hermitian projector$"),
    (2, [O(1.0, ZERO, "a"), O(0.0, SHEARED, "b"), O(-1.0, HALF, "c")], 1e-9,
     "^outcome 'b': not a Hermitian projector$"),
    (2, [O(1.0, ZERO, "a"), O(-1.0, HALF, "b")], 1e-9, "^outcome 'b': not a Hermitian projector$"),
    (2, [O(1.0, ZERO, "a"), O(-1.0, NAN.T, "b")], 1e-9, "^outcome 'b': not a Hermitian projector$"),
    (2, [O(1.0, BIG, "a"), O(-1.0, np.eye(2) - BIG, "b")], 1e-9, "^outcome 'a': not a Hermitian projector$"),
    (3, [O(1.0, X3, "x"), O(0.0, Y3, "y"), O(-1.0, Z3, "z")], 0.4, "^projectors 'y' and 'z' overlap$"),
    (3, [O(1.0, Z3, "z"), O(0.0, Y3, "y"), O(-1.0, X3, "x")], 0.4, "^projectors 'z' and 'y' overlap$"),
    (3, [O(1.0, Y3, "y"), O(0.0, X3, "x"), O(-1.0, Z3, "z")], 0.4, "^projectors 'y' and 'z' overlap$"),
]


def test_projective_measurement_validation():
    for dim, outcomes, tol, refusal in REFUSALS:
        with pytest.raises(ValidationError, match=refusal):
            tkd.ProjectiveMeasurement(dim, outcomes, tol=tol)
    ok = tkd.ProjectiveMeasurement(2, [tkd.Outcome(1.0, ZERO, "a"), tkd.Outcome(-1.0, ONE, "b")])
    assert max_abs(ok.observable() - np.diag([1.0, -1.0])) < 1e-15
    loose = tkd.ProjectiveMeasurement(3, [O(1.0, X3, "x"), O(0.0, Y3, "y"), O(-1.0, Z3, "z")], tol=0.6)
    assert loose.projectors.shape == (3, 3, 3)


@pytest.mark.parametrize("block", [1, 12, 128])
def test_projective_measurement_checks_every_slice_of_its_stack(monkeypatch, block):
    # a stack larger than the block is checked slice by slice: a fault in any
    # slice must still be caught, and named as the first failing check
    monkeypatch.setattr(tkd.measurements, "_BLOCK", block)
    for dim, outcomes, tol, refusal in REFUSALS:
        with pytest.raises(ValidationError, match=refusal):
            tkd.ProjectiveMeasurement(dim, outcomes, tol=tol)
    pauli_z = [tkd.spectral_measurement(np.diag([1.0, -1.0]))] * 3
    outcomes = list(tkd.product_measurement(pauli_z).outcomes)
    assert len(tkd.ProjectiveMeasurement(8, outcomes).projectors) == 8
    outcomes[6] = O(outcomes[6].value, outcomes[6].projector * 0.5, outcomes[6].label)
    with pytest.raises(ValidationError, match=r"^outcome \(1.0, 1.0, -1.0\): not a Hermitian projector$"):
        tkd.ProjectiveMeasurement(8, outcomes)


def test_product_measurement_checks_its_stack_in_bounded_memory():
    # 64 rank-1 outcomes on d=64: the stack is 4 MB, a table of all pairs would be 268 MB
    locals_ = [tkd.spectral_measurement(tkd.quasiprob.random_hermitian(4, seed=s)) for s in range(3)]
    stack = 64 * 64 * 64 * 16
    tracemalloc.start()
    try:
        m = tkd.product_measurement(locals_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.projectors.shape == (64, 64, 64)
    assert peak <= 3 * stack, peak / stack


def test_product_measurement_holds_its_fresh_stack_without_a_copy():
    # the stack it builds is handed to the measurement: its peak is that stack and the
    # checks' slices of _BLOCK entries, not a second stack
    locals_ = [tkd.spectral_measurement(tkd.quasiprob.random_hermitian(4, seed=s)) for s in range(3)]
    stack = 64 * 64 * 64 * 16
    tracemalloc.start()
    try:
        m = tkd.product_measurement(locals_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(m.outcomes) == 64
    assert peak <= 1.3 * stack, peak / stack


def _batch_observables(rng, d: int) -> list[np.ndarray]:
    """Random, degenerate and diagonal observables (with and without repeats) of dimension d."""
    u = tkd.quasiprob.haar_unitary(d, seed=rng)
    repeated = np.repeat(rng.normal(size=2), [d - 1, 1])
    obs = [tkd.quasiprob.random_hermitian(d, seed=rng), u @ np.diag(repeated) @ np.conj(u.T),
           np.diag(repeated), np.diag(rng.permutation(np.arange(d) - 1.0)), np.diag(np.full(d, 0.5))]
    return [(h + np.conj(h.T)) / 2 for h in rng.permutation(np.array(obs, dtype=np.complex128))]


@pytest.mark.parametrize("seed", range(6))
def test_a_batch_decomposes_each_observable_as_a_batch_of_one(seed):
    rng = np.random.default_rng(seed)
    for d in (2, 3, 4):
        obs = _batch_observables(rng, d)
        batch = tkd.measurements._spectral(np.stack(obs), ["x"] * len(obs), 1e-9)
        for h, m in zip(obs, batch):
            for one in (tkd.measurements._spectral(h[None], ["x"], 1e-9)[0], tkd.spectral_measurement(h)):
                assert [(o.value, o.label) for o in m.outcomes] == [(o.value, o.label) for o in one.outcomes]
                assert m.projectors.tobytes() == one.projectors.tobytes()
            assert all(np.shares_memory(o.projector, m.projectors) for o in m.outcomes)
        assert {len(m.outcomes) for m in batch} == ({1, 2} if d == 2 else {1, 2, d})


def test_product_measurement_holds_its_stack_once():
    # the outcomes' projectors are views of the stack, so the measurement holds about one stack
    locals_ = [tkd.spectral_measurement(tkd.quasiprob.random_hermitian(4, seed=s)) for s in range(3)]
    stack = 64 * 64 * 64 * 16
    tracemalloc.start()
    try:
        m = tkd.product_measurement(locals_)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert m.projectors.nbytes == stack
    assert held <= 1.1 * stack, held / stack


@pytest.mark.parametrize("seed", range(40))
def test_product_measurement_matches_kron_chain_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    dims = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 4)))]
    locals_ = [tkd.spectral_measurement(tkd.quasiprob.random_hermitian(d, seed=rng)) for d in dims]
    joint = tkd.product_measurement(locals_)
    combos = list(itertools.product(*[m.outcomes for m in locals_]))
    assert len(joint.outcomes) == len(combos)
    for o, combo in zip(joint.outcomes, combos):
        assert o.label == tuple(c.label for c in combo)
        assert o.value == float(np.prod([c.value for c in combo]))
        assert o.projector.tobytes() == tkd.kron_chain([c.projector for c in combo]).tobytes()


def test_outcomes_and_basis_ops_are_views_of_the_one_stack():
    proj = np.diag([1.0, 0.0]).astype(np.complex128)
    given = [tkd.Outcome(1.0, proj, "up"), tkd.Outcome(-1.0, np.eye(2) - proj, "down")]
    assert given[0].projector is proj  # an Outcome is a record: it copies nothing
    hand = tkd.ProjectiveMeasurement(2, given)
    spectral = tkd.spectral_measurement(tkd.quasiprob.random_hermitian(3, seed=1))
    product = tkd.product_measurement([spectral, hand])
    for m in (hand, spectral, product):
        assert not np.shares_memory(m.projectors, proj)
        for i, o in enumerate(m.outcomes):
            assert np.shares_memory(o.projector, m.projectors)
            assert o.projector.tobytes() == m.projectors[i].tobytes()
    for b in (tkd.hs_basis(3), tkd.rotate_basis(tkd.hs_basis(3), tkd.quasiprob.haar_unitary(3, seed=2))):
        assert b.stack.shape == (9, 3, 3)
        for i, op in enumerate(b.ops):
            assert np.shares_memory(op, b.stack) and op.tobytes() == b.stack[i].tobytes()


def test_product_measurement(pauli):
    mz = tkd.spectral_measurement(pauli["Z"])
    mx = tkd.spectral_measurement(pauli["X"])
    joint = tkd.product_measurement([mz, mx])
    assert joint.dim == 4
    assert len(joint.outcomes) == 4
    labels = {o.label for o in joint.outcomes}
    assert labels == {(a, b) for a in (-1.0, 1.0) for b in (-1.0, 1.0)}
    # values multiply across sites even when they collide
    assert sorted(o.value for o in joint.outcomes) == [-1.0, -1.0, 1.0, 1.0]
    o = next(o for o in joint.outcomes if o.label == (1.0, -1.0))
    want = np.kron(mz.outcomes[1].projector, mx.outcomes[0].projector)
    assert max_abs(o.projector - want) < 1e-12
    with pytest.raises(ValidationError, match="^product of zero measurements$"):
        tkd.product_measurement([])


def test_product_measurement_checks_at_the_given_tolerance():
    # qubit projectors 6e-7 off Hermitian, accepted at tol=1e-6; so are their products, when
    # built at that tolerance, and at the default of 1e-9 the first product is refused
    skew = np.array([[1.0, 6e-7], [0.0, 0.0]])
    loose = tkd.ProjectiveMeasurement(2, [O(1.0, skew, "u"), O(-1.0, np.eye(2) - skew, "d")], tol=1e-6)
    joint = tkd.product_measurement([loose, loose], tol=1e-6)
    assert [o.label for o in joint.outcomes] == [("u", "u"), ("u", "d"), ("d", "u"), ("d", "d")]
    assert max_abs(joint.projectors[0] - np.kron(skew, skew)) == 0.0
    assert [m.dim for m in tkd.tensor_schedule([loose] * 2, [loose] * 2, tol=1e-6)] == [4, 4]
    for build in (lambda: tkd.product_measurement([loose, loose]),
                  lambda: tkd.tensor_schedule([loose], [loose])):
        with pytest.raises(ValidationError, match=r"^outcome \('u', 'u'\): not a Hermitian projector$"):
            build()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hs_basis_gram(d):
    basis = tkd.hs_basis(d)
    assert len(basis.ops) == d * d
    assert max_abs(basis.ops[0] - np.eye(d)) == 0.0
    gram = np.array([[np.trace(a @ b) for b in basis.ops] for a in basis.ops])
    assert max_abs(gram - d * np.eye(d * d)) < 1e-10
    for op in basis.ops[1:]:
        assert abs(np.trace(op)) < 1e-12
        assert max_abs(op - np.conj(op.T)) < 1e-12


def test_hs_basis_d2_is_pauli(pauli):
    basis = tkd.hs_basis(2)
    for got, name in zip(basis.ops, ("I", "X", "Y", "Z")):
        assert max_abs(got - pauli[name]) < 1e-14


def test_hs_basis_expansion():
    # any matrix expands as X = (1/d) Σ Tr(X σμ) σμ
    d = 3
    basis = tkd.hs_basis(d)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    back = sum(np.trace(x @ op) * op for op in basis.ops) / d
    assert max_abs(back - x) < 1e-12


def test_hs_basis_of_dimension_one_is_the_identity():
    basis = tkd.hs_basis(1)
    assert len(basis.ops) == 1 and basis.ops[0].shape == (1, 1) and basis.ops[0][0, 0] == 1.0
    for d in (0, -1):
        with pytest.raises(ValidationError, match="^hs_basis needs d >= 1$"):
            tkd.hs_basis(d)


def test_rotate_basis():
    basis = tkd.hs_basis(3)
    u = tkd.quasiprob.haar_unitary(3, seed=9)
    rot = tkd.rotate_basis(basis, u)
    gram = np.array([[np.trace(a @ b) for b in rot.ops] for a in rot.ops])
    assert max_abs(gram - 3 * np.eye(9)) < 1e-10
    with pytest.raises(ValidationError):
        tkd.rotate_basis(basis, np.ones((3, 3)))
    nan = np.array(u)
    nan[0, 0] = np.nan
    with pytest.raises(ValidationError, match="^rotate_basis needs a unitary$"):
        tkd.rotate_basis(basis, nan)
    with pytest.raises(ValidationError, match="^rotate_basis needs a unitary$"):
        tkd.rotate_basis(basis, np.diag([1e308, 1.0, 1.0]))  # U†U overflows, without a warning
    with pytest.raises(ValidationError, match=r"^rotate_basis: u has shape \(2, 2\), expected \(3, 3\)$"):
        tkd.rotate_basis(basis, np.eye(2))


def test_hs_basis_validation():
    with pytest.raises(ValidationError):
        tkd.HSBasis(2, [np.eye(2)] * 3)
    ops = tkd.hs_basis(2).ops
    with pytest.raises(ValidationError):  # identity not first
        tkd.HSBasis(2, [ops[1], ops[0], ops[2], ops[3]])
    with pytest.raises(ValidationError):  # broken normalization
        tkd.HSBasis(2, [ops[0], 2.0 * ops[1], ops[2], ops[3]])
    nan = np.array(ops[1])
    nan[0, 1] = np.nan
    for bad, message in ((1j * ops[1], "is not Hermitian"), (nan, "is not Hermitian"),
                         (ops[1] + ops[0], "is not traceless"),
                         (np.eye(3), r"has shape \(3, 3\), expected \(2, 2\)")):
        with pytest.raises(ValidationError, match=f"^basis op 1 {message}$"):
            tkd.HSBasis(2, [ops[0], bad, ops[2], ops[3]])
    with pytest.raises(ValidationError, match="^basis is not orthogonal"):  # its Gram GEMM overflows
        tkd.HSBasis(2, [ops[0], ops[1] * 1e308, ops[2], ops[3]])


def test_hs_basis_checks_tracelessness_at_its_tol():
    # σ_3 = Z + εI has trace 2ε; Tr(σ_0σ_3) = 2ε too, so the Gram check alone would name it as
    # not orthogonal
    i, x, y, z = tkd.hs_basis(2).ops
    assert tkd.HSBasis(2, [i, x, y, z + 2.5e-10 * i], tol=1e-9).stack.shape == (4, 2, 2)
    with pytest.raises(ValidationError, match="^basis op 3 is not traceless$"):
        tkd.HSBasis(2, [i, x, y, z + 2.5e-11 * i], tol=1e-11)


def test_rotate_basis_checks_and_builds_at_the_basis_tol():
    # u is unitary only to 2e-6: inside a basis kept at 1e-3, past the default 1e-9
    loose = tkd.HSBasis(2, tkd.hs_basis(2).ops, tol=1e-3)
    assert loose.tol == 1e-3 and tkd.hs_basis(2).tol == 1e-9
    u = np.sqrt(1 + 2e-6) * np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert 1.9e-6 < max_abs(u.conj().T @ u - np.eye(2)) < 2.1e-6
    rot = tkd.rotate_basis(loose, u)
    assert rot.tol == 1e-3
    assert max_abs(rot.stack[1] - u @ loose.ops[1] @ u.conj().T) == 0.0
    assert rot.lvn_maps.shape == (4, 4, 4)
    with pytest.raises(ValidationError, match="^rotate_basis needs a unitary$"):
        tkd.rotate_basis(tkd.hs_basis(2), u)


def test_hs_basis_builds_its_lvn_maps_at_its_tol():
    # each traceless op 1e-6 off Hermitian (+5e-7·iZ, anti-Hermitian and traceless): a basis at
    # 1e-5 decomposes the Hermitian parts, which are the Paulis to 5e-7
    i, x, y, z = tkd.hs_basis(2).ops
    skew = [i, *(o + 5e-7j * z for o in (x, y, z))]
    assert max_abs(skew[1] - skew[1].conj().T) == pytest.approx(1e-6)
    loose = tkd.HSBasis(2, skew, tol=1e-5)
    assert max_abs(loose.lvn_maps - tkd.hs_basis(2).lvn_maps) < 1e-6
    with pytest.raises(ValidationError, match="^basis op 1 is not Hermitian$"):
        tkd.HSBasis(2, skew)

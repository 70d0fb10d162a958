from __future__ import annotations

import re
import warnings

import numpy as np
import pytest  # type: ignore

import tkd
from tkd import linops
from tkd.linops import ValidationError


def test_as_matrix_rejects_non_matrix():
    with pytest.raises(ValidationError):
        linops.as_matrix(np.zeros(4))
    with pytest.raises(ValidationError):
        linops.as_matrix(np.zeros((2, 2, 2)))


_Z = tkd.spectral_measurement(np.diag([1.0, -1.0])).outcomes
# every array entry point meets a caller's entries in as_matrix, _kept or their one conversion first
ARRAY_ENTRY_POINTS = {
    "as_matrix": linops.as_matrix,
    "_kept": linops._kept,
    "QuantumChannel": lambda m: tkd.QuantumChannel([m]),
    "MultiTimeProcess": lambda m: tkd.MultiTimeProcess(m),
    "partial_trace": lambda m: tkd.partial_trace(m, (2,), [0]),
    "spectral_measurement": tkd.spectral_measurement,
    "ProjectiveMeasurement": lambda m: tkd.ProjectiveMeasurement(
        2, [tkd.Outcome(1.0, m, "a"), tkd.Outcome(0.0, np.eye(2), "b")]),
    "weak_value": lambda m: tkd.weak_value(np.eye(2), m[0], [1, 0]),
    "QuasiDistribution": lambda m: tkd.QuasiDistribution("kd_right", (_Z, _Z), m),
    "CorrelatorTensor": lambda m: tkd.CorrelatorTensor("right", (tkd.hs_basis(2),), m[0] + m[1]),
    "CharSamples": lambda m: tkd.CharSamples("right", [(0.0,), (0.5,), (1.0,), (1.5,)], m[0] + m[1]),
    "TemporalStateOperator": lambda m: tkd.TemporalStateOperator("kd_right", (2,), m),
}


@pytest.mark.parametrize("entry", sorted(ARRAY_ENTRY_POINTS))
@pytest.mark.parametrize("bad", ["x", b"x", np.str_("1+"), "1", b"1", np.str_("1")],
                         ids=["str", "bytes", "numpy str", "numeric str", "numeric bytes", "numeric numpy str"])
def test_a_non_numeric_entry_is_a_type_error(entry, bad):
    # numpy's own refusal is a bare ValueError ("complex() arg is a malformed string"),
    # and a string that spells a number, such as "1", numpy reads as that number
    with pytest.raises(TypeError, match=f"^{re.escape(f'expected a numeric entry, got {bad!r}')}$"):
        ARRAY_ENTRY_POINTS[entry]([[1, bad], [0, 0]])


def test_a_numeric_array_converts_as_it_is():
    c = np.eye(2, dtype=np.complex128)
    assert linops.as_matrix(c) is c  # held as it is, not copied
    for a in (np.eye(2), np.eye(2, dtype=int), np.array([[1, 0], [0, 1]], dtype=object), [[1, 0j], [0, 1.0]]):
        assert np.array_equal(linops.as_matrix(a), c)


def test_a_ragged_input_keeps_numpy_s_value_error():
    # a shape fault, not an entry's
    for convert in (linops.as_matrix, linops._kept):
        with pytest.raises(ValueError, match="inhomogeneous"):
            convert([[1, 0], [0]])


# the public constructors and functions that take a matrix, each fed one hostile 2×2 input
MATRIX_ENTRY_POINTS = {
    "QuantumChannel": lambda m: tkd.QuantumChannel([m]),
    "apply_channel": lambda m: tkd.apply_channel(tkd.identity_channel(2), m),
    "adjoint_apply": lambda m: tkd.adjoint_apply(tkd.identity_channel(2), m),
    "build_channel": lambda m: tkd.build_channel("unitary", u=m),
    "Instrument": lambda m: tkd.Instrument([("a", [m])]),
    "check_density": tkd.check_density,
    "MultiTimeProcess": tkd.MultiTimeProcess,
    "partial_trace": lambda m: tkd.partial_trace(m, (2,), [0]),
    "kron": lambda m: tkd.kron(m, np.eye(2)),
    "embed_operator": lambda m: tkd.embed_operator(m, [1], (2, 2)),
    "hermitian_eig": tkd.hermitian_eig,
    "spectral_measurement": tkd.spectral_measurement,
    "ProjectiveMeasurement": lambda m: tkd.ProjectiveMeasurement(
        2, [tkd.Outcome(1.0, m, "a"), tkd.Outcome(0.0, np.eye(2), "b")]),
    "HSBasis": lambda m: tkd.HSBasis(2, [m, *tkd.hs_basis(2).ops[1:]]),
    "rotate_basis": lambda m: tkd.rotate_basis(tkd.hs_basis(2), m),
    "weak_value": lambda m: tkd.weak_value(m, [1, 0], [0.6, 0.8]),
}
HOSTILE_VALUES = [np.nan, np.inf, -np.inf, 1e308, -1e308, 1e308j, "x", None]


def _hostile_inputs():
    """(id, matrix) of the hostile inputs: each value at both diagonal and at both off-diagonal
    entries of a seeded random state, then four malformed shapes."""
    base = tkd.random_density(2, seed=8).astype(object)
    for v in HOSTILE_VALUES:
        for where, idx in (("diagonal", ([0, 1], [0, 1])), ("off-diagonal", ([0, 1], [1, 0]))):
            m = base.copy()
            m[idx] = v
            yield f"{v!r} {where}", m if isinstance(v, str) or v is None else m.astype(complex)
    yield from [("vector", np.ones(2)), ("3-d", np.ones((2, 2, 2))), ("2x3", np.ones((2, 3))),
                ("empty", np.zeros((0, 0)))]


HOSTILE_INPUTS = dict(_hostile_inputs())


@pytest.mark.parametrize("name", sorted(HOSTILE_INPUTS))
@pytest.mark.parametrize("entry", sorted(MATRIX_ENTRY_POINTS))
def test_hostile_matrices_are_refused_or_returned_without_a_warning(entry, name):
    # warnings as errors: an overflow or invalid-value warning escapes as a RuntimeWarning
    m = HOSTILE_INPUTS[name]
    # a str or None entry is not numeric: every entry point refuses it with a TypeError (numpy
    # would read None as NaN). Any other input is refused by the checks, or returned
    bad = [v for v in m.ravel().tolist() if v is None or isinstance(v, str)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if bad:
            with pytest.raises(TypeError, match=f"^expected a numeric entry, got {re.escape(repr(bad[0]))}$"):
                MATRIX_ENTRY_POINTS[entry](m)
            return
        try:
            MATRIX_ENTRY_POINTS[entry](m)
        except ValidationError:
            pass


def test_dagger_and_hermitian(pauli):
    assert linops.is_hermitian(pauli["Y"], 0.0)
    a = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
    assert not linops.is_hermitian(a, 1e-12)
    assert linops.max_abs(linops.dagger(linops.dagger(a)) - a) == 0.0


def test_max_abs_empty():
    assert linops.max_abs(np.zeros((0, 0))) == 0.0


def test_kron_chain_matches_pairwise(pauli):
    chain = linops.kron_chain([pauli["X"], pauli["Y"], pauli["Z"]])
    assert np.allclose(chain, np.kron(pauli["X"], np.kron(pauli["Y"], pauli["Z"])))
    with pytest.raises(ValidationError):
        linops.kron_chain([])
    inf = linops.kron_chain([np.diag([np.inf, 1.0]), np.eye(2), np.eye(2)])  # inf·0 is NaN, silently
    assert not np.isfinite(inf[0, 0]) and np.isnan(inf[0, 1]) and inf[7, 7] == 1.0


def test_kron_chain_single_factor_is_copy():
    src = np.zeros((2, 2), dtype=np.complex128)
    out = linops.kron_chain([src])
    out[0, 0] = 9.0
    assert src[0, 0] == 0.0


def test_check_profile():
    m = np.eye(6)
    assert linops.check_profile(m, [2, 3]) == (2, 3)
    with pytest.raises(ValidationError):
        linops.check_profile(m, [2, 2])
    with pytest.raises(ValidationError):
        linops.check_profile(np.zeros((2, 3)), [2, 3])
    with pytest.raises(ValidationError):
        linops.check_profile(m, [6, 0])


@pytest.mark.parametrize("seed", range(4))
def test_partial_trace_against_loops(seed):
    rng = np.random.default_rng(seed)
    dims = (2, 3, 2)
    side = int(np.prod(dims))
    m = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    got = linops.partial_trace(m, dims, keep=[0, 2])
    t = m.reshape(dims + dims)
    # reference: contract the middle factor by explicit summation
    want = np.zeros((4, 4), dtype=np.complex128)
    for i in range(2):
        for k in range(2):
            for ip in range(2):
                for kp in range(2):
                    acc = 0.0 + 0.0j
                    for j in range(3):
                        acc += t[i, j, k, ip, j, kp]
                    want[i * 2 + k, ip * 2 + kp] = acc
    assert linops.max_abs(got - want) < 1e-13


def test_partial_trace_keep_all_and_none():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert np.allclose(linops.partial_trace(m, [2, 3], keep=[0, 1]), m)
    tot = linops.partial_trace(m, [2, 3], keep=[])
    assert tot.shape == (1, 1)
    assert abs(tot[0, 0] - np.trace(m)) < 1e-13


def test_partial_trace_passes_non_finite_results_through_without_a_warning():
    assert (linops.partial_trace(np.full((4, 4), 1e308), [2, 2], [0]) == np.inf).all()
    nan = linops.partial_trace(np.diag([np.inf, -np.inf, 1.0, 1.0]), [2, 2], [0])
    assert np.isnan(nan[0, 0]) and nan[1, 1] == 2.0


def test_partial_trace_factorized_input(pauli):
    m = np.kron(pauli["X"], pauli["Z"] + 2 * np.eye(2))
    out = linops.partial_trace(m, [2, 2], keep=[0])
    assert np.allclose(out, pauli["X"] * np.trace(pauli["Z"] + 2 * np.eye(2)))
    with pytest.raises(ValidationError):
        linops.partial_trace(m, [2, 2], keep=[2])


def test_hermitian_eig_clusters_degeneracy():
    h = np.diag([1.0, 1.0 + 1e-10, 3.0]).astype(np.complex128)
    groups = linops.hermitian_eig(h, tol=1e-8)
    assert len(groups) == 2
    assert abs(groups[0][0] - (1.0 + 5e-11)) < 1e-12
    assert groups[0][1].shape == (3, 2)
    assert groups[1][1].shape == (3, 1)
    # ascending order, orthonormal blocks, projectors resolve the identity
    assert groups[0][0] < groups[1][0]
    total = sum(v @ np.conj(v.T) for _, v in groups)
    assert linops.max_abs(total - np.eye(3)) < 1e-12


def test_hermitian_eig_splits_an_overflowing_gap_without_a_warning():
    # the eigenvalues ±1e308 pass the Hermitian check; their gap overflows to inf, past tol
    h = np.array([[0.0, 1e308], [1e308, 0.0]], dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        groups = linops.hermitian_eig(h)
    assert [v for v, _ in groups] == pytest.approx([-1e308, 1e308], rel=1e-15)
    assert [v.shape for _, v in groups] == [(2, 1), (2, 1)]


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        linops.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


# each entry point whose Hermiticity check meets the matrix first, and its refusal;
# spectral_measurement meets these matrices first with the half-range rule, as the
# observable schedule of χ does
HERMITICITY_CHECKS = {
    "check_density": (tkd.check_density, "state is not Hermitian within tol"),
    "MultiTimeProcess": (lambda m: tkd.MultiTimeProcess(m, []), "state is not Hermitian within tol"),
    "replacement": (lambda m: tkd.build_channel("replacement", omega=m),
                    "state is not Hermitian within tol"),
    "hermitian_eig": (tkd.hermitian_eig, "hermitian_eig: input is not Hermitian within tol"),
    "spectral_measurement": (tkd.spectral_measurement,
                             f"observable: an entry exceeds {linops.HALF_RANGE:.6e} in its real "
                             "or imaginary part, so (h + h†)/2 overflows"),
}


@pytest.mark.parametrize("entry", sorted(HERMITICITY_CHECKS))
@pytest.mark.parametrize("matrix", [np.diag([1, 1e308j]), np.diag([np.inf, 0.5])],
                         ids=["overflowing defect", "NaN defect"])
def test_hermiticity_check_refuses_a_non_finite_defect_without_a_warning(entry, matrix):
    call, message = HERMITICITY_CHECKS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call(matrix)


def test_embed_operator_adjacent_and_split(pauli):
    dims = (2, 3, 2)
    x = pauli["X"]
    # single site in the middle of the chain
    got = linops.embed_operator(np.eye(3) * 2.0, [1], dims)
    assert np.allclose(got, np.kron(np.eye(2), np.kron(np.eye(3) * 2.0, np.eye(2))))
    # non-adjacent pair (0, 2), operator factored in site order
    op = np.kron(x, pauli["Z"])
    got = linops.embed_operator(op, [0, 2], dims)
    want = np.einsum("ab,cd,ef->acebdf", x, np.eye(3), pauli["Z"]).reshape(12, 12)
    assert linops.max_abs(got - want) < 1e-13


def test_embed_operator_reversed_site_order(pauli):
    # sites (1, 0): first factor of op lives on site 1
    op = np.kron(pauli["X"], pauli["Z"])
    got = linops.embed_operator(op, [1, 0], (2, 2))
    assert np.allclose(got, np.kron(pauli["Z"], pauli["X"]))


def test_embed_operator_errors():
    with pytest.raises(ValidationError):
        linops.embed_operator(np.eye(2), [0, 0], (2, 2))
    with pytest.raises(ValidationError):
        linops.embed_operator(np.eye(2), [3], (2, 2))
    with pytest.raises(ValidationError):
        linops.embed_operator(np.eye(3), [0], (2, 2))


def test_basis_state_and_projector():
    v = linops.basis_state(3, 1)
    assert v.dtype == np.complex128
    assert np.allclose(v, [0, 1, 0])
    pj = linops.projector((linops.basis_state(2, 0) + 1j * linops.basis_state(2, 1)) / np.sqrt(2))
    assert linops.is_hermitian(pj, 1e-15)
    assert linops.max_abs(pj @ pj - pj) < 1e-15
    assert abs(np.trace(pj) - 1.0) < 1e-15

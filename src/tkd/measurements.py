"""Projective measurements, observable spectra, and Hilbert-Schmidt bases.

An observable A = Σ_a a·Π_a becomes a `ProjectiveMeasurement` through its
clustered spectral decomposition, so degenerate observables yield fewer
outcomes than the dimension. Outcomes are identified by a hashable `label`
(the eigenvalue for spectral measurements, a per-site tuple for product
measurements); labels are what downstream distribution axes index by.

Measurements and bases copy the operators they are given once, into one
read-only (m, d, d) stack that they check as a stack: a `ProjectiveMeasurement`
keeps it as `projectors`, its outcomes' projectors being views of its rows, and
an `HSBasis` as `stack`, its `ops` being those views. Each builds its right,
left and lvn insertion maps once, on first use, so correlator tomography
rebuilds none of them per call. `hs_basis(d)` returns one shared basis per d.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Hashable, Sequence

import numpy as np

from .linops import (
    ValidationError,
    as_matrix,
    check_half_range,
    dagger,
    hermitian_eig,
    insertion_maps,
    is_hermitian,
    max_abs,
    readonly,
)


@dataclass(frozen=True)
class Outcome:
    """One measurement branch: a real value, its projector, and a label.

    A plain record that checks and copies nothing. `projector` is None for
    synthetic outcomes (coarse-grained cells) that only exist inside
    distribution axes. Outcomes compare and hash by value and label.
    """

    value: float
    projector: np.ndarray | None = field(compare=False)
    label: Hashable

    def __repr__(self):  # keep array noise out of test failure output
        return f"Outcome(value={self.value!r}, label={self.label!r})"


_BLOCK = 1 << 14  # complex entries (256 kB) per stack-wide step of the checks: its temporaries stay in cache


def _slices(stack: np.ndarray):
    """Consecutive slices of an (m, d, d) stack, each of about _BLOCK entries or one matrix."""
    step = max(1, _BLOCK // max(1, stack[0].size))
    return (stack[s:s + step] for s in range(0, len(stack), step))


def _defects(stack: np.ndarray, dim: int):
    """Arrays whose entries hold every defect of a stack of projectors as a measurement:
    the deviation of their sum from the identity; per slice, their deviations from
    Hermiticity and idempotence; each projector's products with all later ones, slice by
    slice, so no table of all pairs is ever formed."""
    yield stack.sum(axis=0) - np.eye(dim)
    for c in _slices(stack):
        yield np.concatenate((c - c.conj().transpose(0, 2, 1), c @ c - c))
    for a in range(len(stack) - 1):
        for c in _slices(stack[a + 1:]):
            yield stack[a] @ c


def _check_in_order(dim: int, outcomes: tuple[Outcome, ...], mats: list[np.ndarray], tol: float):
    """The checks one outcome or pair at a time, raising the first that fails: each outcome's
    shape, then whether it is a Hermitian projector, in outcome order; then the sum; then
    each pair in itertools.combinations order."""
    for o, p in zip(outcomes, mats):
        if p.shape != (dim, dim):
            as_matrix(p)  # refuses a missing projector as not a matrix
            raise ValidationError("projector shape does not match measurement dim")
        if not (is_hermitian(p, tol) and max_abs(p @ p - p) <= tol):
            raise ValidationError(f"outcome {o.label!r}: not a Hermitian projector")
    if not max_abs(sum(mats) - np.eye(dim)) <= tol:
        raise ValidationError("projectors do not sum to the identity")
    for (a, pa), (b, pb) in itertools.combinations(zip(outcomes, mats), 2):
        if not max_abs(pa @ pb) <= tol:
            raise ValidationError(f"projectors {a.label!r} and {b.label!r} overlap")


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """Outcomes whose projectors are Hermitian, idempotent, mutually orthogonal
    and sum to the identity, each within ``tol``; ``projectors`` is their
    read-only (m, d, d) stack in outcome order, a copy of the projectors given,
    and each outcome's projector is a view of its row."""

    dim: int
    outcomes: tuple[Outcome, ...]
    projectors: np.ndarray = field(repr=False)

    def __init__(self, dim: int, outcomes: Sequence[Outcome], tol: float = 1e-9):
        outcomes = tuple(outcomes)
        if not outcomes:
            raise ValidationError("measurement needs at least one outcome")
        labels = [o.label for o in outcomes]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"outcome labels are not distinct: {labels}")
        mats = [np.asarray(o.projector, dtype=np.complex128) for o in outcomes]
        stack = np.array(mats) if all(p.shape == (dim, dim) for p in mats) else None
        # every check at once over the stack; only when one fails are they run in order, to name it
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN defect fails, silently
            if stack is None or not all(max_abs(x) <= tol for x in _defects(stack, dim)):
                _check_in_order(dim, outcomes, mats, tol)
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "projectors", readonly(stack))  # first, so that its rows are read-only
        object.__setattr__(self, "outcomes", tuple(Outcome(o.value, row, o.label)
                                                   for o, row in zip(outcomes, stack)))

    def observable(self) -> np.ndarray:
        """Σ value·projector."""
        return sum(o.value * o.projector for o in self.outcomes)

    @cached_property
    def right_maps(self) -> np.ndarray:
        """Bra-side insertions x ↦ xΠ_b as an (m, d², d²) stack (see `insertion_maps`)."""
        return readonly(insertion_maps("right", self.projectors))

    @cached_property
    def left_maps(self) -> np.ndarray:
        """Ket-side insertions x ↦ Π_b x."""
        return readonly(insertion_maps("left", self.projectors))

    @cached_property
    def lvn_maps(self) -> np.ndarray:
        """Collapse insertions x ↦ Π_b x Π_b."""
        return readonly(insertion_maps("lvn", self.projectors))


def spectral_measurement(observable: np.ndarray, tol: float = 1e-8) -> ProjectiveMeasurement:
    """Measurement of a Hermitian observable; eigenvalues within tol merge.
    An entry past the half range is refused, as `check_half_range` states."""
    observable = as_matrix(observable)
    check_half_range(observable, "observable")
    groups = hermitian_eig(observable, tol)
    outcomes = []
    for val, vecs in groups:
        p = vecs @ dagger(vecs)
        outcomes.append(Outcome(value=val, projector=(p + dagger(p)) / 2, label=val))
    return ProjectiveMeasurement(observable.shape[0], outcomes)


def product_measurement(locals_: Sequence[ProjectiveMeasurement],
                        tol: float = 1e-9) -> ProjectiveMeasurement:
    """Joint local measurement on ⊗ sites, checked at ``tol``.

    Outcome values multiply across sites (so they may collide, e.g. Z⊗Z);
    labels are the per-site label tuples, which stay distinct. Each site is one
    broadcast product into the projector stack, entry for entry what `np.kron` forms.
    """
    if not locals_:
        raise ValidationError("product of zero measurements")
    stack = locals_[0].projectors
    for m in locals_[1:]:
        n, d = len(stack) * len(m.projectors), stack.shape[1] * m.dim
        stack = (stack[:, None, :, None, :, None] * m.projectors[None, :, None, :, None, :]).reshape(n, d, d)
    outcomes = [Outcome(float(np.prod([o.value for o in c])), proj, tuple(o.label for o in c))
                for c, proj in zip(itertools.product(*[m.outcomes for m in locals_]), stack)]
    return ProjectiveMeasurement(stack.shape[1], outcomes, tol=tol)


@dataclass(frozen=True, eq=False)
class HSBasis:
    """Hermitian operator basis: ops[0] = I, the rest traceless, Tr(σμσν) = d·δμν, each within
    ``tol``; ``stack`` is a read-only (d², d, d) copy of the ops given, and ``ops`` its row views."""

    dim: int
    ops: tuple[np.ndarray, ...]
    stack: np.ndarray = field(repr=False)

    def __init__(self, dim: int, ops: Sequence[np.ndarray], tol: float = 1e-9):
        mats = [as_matrix(o) for o in ops]
        d = int(dim)
        if len(mats) != d * d:
            raise ValidationError(f"need {d * d} basis operators, got {len(mats)}")
        for i, o in enumerate(mats):
            if o.shape != (d, d):
                raise ValidationError(f"basis op {i} has shape {o.shape}, expected {(d, d)}")
        stack = readonly(np.array(mats))
        if not max_abs(stack[0] - np.eye(d)) <= tol:
            raise ValidationError("ops[0] must be the identity")
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN defect fails, silently
            hermitian = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2)) <= tol
            traceless = np.abs(np.trace(stack, axis1=1, axis2=2)) <= tol
            # Tr(ab) = vec(a)·vec(bᵀ): the whole Gram matrix as one GEMM
            gram = stack.reshape(d * d, -1) @ stack.transpose(0, 2, 1).reshape(d * d, -1).T
        traceless[0] = True
        i = int(np.argmin(hermitian & traceless))  # the first failing op, if any
        if not (hermitian[i] and traceless[i]):
            raise ValidationError(f"basis op {i} is not {'traceless' if hermitian[i] else 'Hermitian'}")
        if not max_abs(gram - d * np.eye(d * d)) <= tol:
            raise ValidationError("basis is not orthogonal with Tr(σμσν) = d δμν")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "ops", tuple(stack))
        object.__setattr__(self, "stack", stack)

    @cached_property
    def right_maps(self) -> np.ndarray:
        """Bra-side insertions x ↦ xσ as a (d², d², d²) stack (see `insertion_maps`)."""
        return readonly(insertion_maps("right", self.stack))

    @cached_property
    def left_maps(self) -> np.ndarray:
        """Ket-side insertions x ↦ σx."""
        return readonly(insertion_maps("left", self.stack))

    @cached_property
    def lvn_maps(self) -> np.ndarray:
        """Value-weighted collapses x ↦ Σ_a a·Π_a x Π_a over the spectral
        projectors of each σ, one map per basis element (not per outcome, as
        `ProjectiveMeasurement.lvn_maps` has it)."""
        meas = [spectral_measurement(op) for op in self.ops]
        return readonly(np.stack([np.tensordot([o.value for o in m.outcomes], m.lvn_maps, 1)
                                  for m in meas]))


@cache
def hs_basis(d: int) -> HSBasis:
    """Generalized Pauli basis: identity, then the Gell-Mann family scaled to
    Tr(σμσν) = d·δμν. Built once per d; every call returns the same
    (read-only) instance.

    Canonical order: I; symmetric pairs (j,k), j<k lexicographic; antisymmetric
    pairs in the same order; diagonal ladder l = 1..d−1. For d = 2 this is
    exactly {I, X, Y, Z}.
    """
    if d < 2:
        raise ValidationError("hs_basis needs d >= 2")
    s = np.sqrt(d / 2.0)  # rescales Tr(λ²) = 2 to = d
    ops: list[np.ndarray] = [np.eye(d, dtype=np.complex128)]
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[j, k] = m[k, j] = 1.0
            ops.append(s * m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            ops.append(s * m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=np.complex128)
        m[:l, :l] = np.eye(l)
        m[l, l] = -l
        ops.append(s * np.sqrt(2.0 / (l * (l + 1))) * m)
    return HSBasis(d, ops)


def rotate_basis(basis: HSBasis, u: np.ndarray) -> HSBasis:
    """Conjugate every basis element by a unitary; orthogonality is preserved."""
    u = as_matrix(u)
    if u.shape != (basis.dim, basis.dim):
        raise ValidationError(f"rotate_basis: u has shape {u.shape}, expected {(basis.dim, basis.dim)}")
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN defect fails, silently
        unitary = max_abs(dagger(u) @ u - np.eye(basis.dim)) <= 1e-9
    if not unitary:
        raise ValidationError("rotate_basis needs a unitary")
    return HSBasis(basis.dim, [u @ o @ dagger(u) for o in basis.ops])

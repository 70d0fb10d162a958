"""Projective measurements, observable spectra, and Hilbert-Schmidt bases.

An observable A = Σ_a a·Π_a becomes a `ProjectiveMeasurement` through its
clustered spectral decomposition, so degenerate observables yield fewer
outcomes than the dimension. Outcomes are identified by a hashable `label`
(the eigenvalue for spectral measurements, a per-site tuple for product
measurements); labels are what downstream distribution axes index by.

Outcomes and bases hold read-only copies of the operators they are given. A
`ProjectiveMeasurement` stacks its outcome projectors when it is constructed,
checks them as that one stack and keeps it as `projectors`; it builds its
right, left and lvn insertion maps once, on first use. An `HSBasis` likewise
builds its op stack and its right, left and lvn maps once, on first use, so
correlator tomography rebuilds none of them per call. `hs_basis(d)` returns
one shared basis per dimension.
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
    frozen_matrix,
    hermitian_eig,
    insertion_maps,
    is_hermitian,
    kron_chain,
    max_abs,
    readonly,
)


@dataclass(frozen=True)
class Outcome:
    """One measurement branch: a real value, its projector, and a label.

    `projector` is None for synthetic outcomes (coarse-grained cells) that
    only exist inside distribution axes.
    """

    value: float
    projector: np.ndarray | None
    label: Hashable

    def __post_init__(self):
        if self.projector is not None:
            object.__setattr__(self, "projector", frozen_matrix(self.projector))

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
    read-only (m, d, d) stack in outcome order."""

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
        if stack is None or not all(max_abs(x) <= tol for x in _defects(stack, dim)):
            _check_in_order(dim, outcomes, mats, tol)
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "projectors", readonly(stack))

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
    labels are the per-site label tuples, which stay distinct.
    """
    if not locals_:
        raise ValidationError("product of zero measurements")
    dim = int(np.prod([m.dim for m in locals_]))
    outcomes = []
    for combo in itertools.product(*[m.outcomes for m in locals_]):
        value = float(np.prod([o.value for o in combo]))
        proj = kron_chain([o.projector for o in combo])
        outcomes.append(Outcome(value=value, projector=proj, label=tuple(o.label for o in combo)))
    return ProjectiveMeasurement(dim, outcomes, tol=tol)


@dataclass(frozen=True, eq=False)
class HSBasis:
    """Hermitian operator basis: ops[0] = I, the rest traceless, Tr(σμσν) = d·δμν."""

    dim: int
    ops: tuple[np.ndarray, ...]

    def __init__(self, dim: int, ops: Sequence[np.ndarray], tol: float = 1e-9):
        ops = tuple(frozen_matrix(o) for o in ops)
        d = int(dim)
        if len(ops) != d * d:
            raise ValidationError(f"need {d * d} basis operators, got {len(ops)}")
        for i, o in enumerate(ops):
            if o.shape != (d, d):
                raise ValidationError(f"basis op {i} has shape {o.shape}, expected {(d, d)}")
        if not max_abs(ops[0] - np.eye(d)) <= tol:
            raise ValidationError("ops[0] must be the identity")
        for i, o in enumerate(ops):
            if not is_hermitian(o, tol):
                raise ValidationError(f"basis op {i} is not Hermitian")
            if i and not abs(np.trace(o)) <= 1e-10:
                raise ValidationError(f"basis op {i} is not traceless")
        gram = np.array([[np.trace(a @ b) for b in ops] for a in ops])
        if not max_abs(gram - d * np.eye(d * d)) <= tol:
            raise ValidationError("basis is not orthogonal with Tr(σμσν) = d δμν")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "ops", ops)

    @cached_property
    def stack(self) -> np.ndarray:
        """The ops as one read-only (d², d, d) stack, in basis order."""
        return readonly(np.stack(self.ops))

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
    if not max_abs(dagger(u) @ u - np.eye(basis.dim)) <= 1e-9:
        raise ValidationError("rotate_basis needs a unitary")
    return HSBasis(basis.dim, [u @ o @ dagger(u) for o in basis.ops])

"""Projective measurements, observable spectra, and Hilbert-Schmidt bases.

An observable A = Σ_a a·Π_a becomes a `ProjectiveMeasurement` through its
clustered spectral decomposition, so degenerate observables yield fewer
outcomes than the dimension. Outcomes are identified by a hashable `label`
(the eigenvalue for spectral measurements, a per-site tuple for product
measurements); labels are what downstream distribution axes index by.

Observables of one dimension are decomposed as one (n, d, d) stack
(`_spectral`): one pass of checks, one batched ``eigh``, one product for the
rank-1 projectors of them all and one check of the projector stack, so a
spec's observables cost about what one of them does. `spectral_measurement`
is that routine for a stack of one.

A measurement and a basis hold their operators as one read-only (m, d, d)
stack, checked as a stack: a `ProjectiveMeasurement` keeps it as
`projectors`, its outcomes' projectors being views of its rows, and an
`HSBasis` as `stack`, its `ops` being those views. The constructors copy the
operators they are given into that stack; a stack that `_spectral` or
`product_measurement` has just built is handed over (`linops._hand`) and held
without a copy. A measurement checks its stack in one place (`_hold`), whichever
way it is built. One mixin (`_Insertions`) builds the right, left, lvn and
Jordan insertion maps of any owner's stack once, on first use, and the trace
rows of each (`_rows`), so no pass rebuilds any of them per call; a
basis overrides only its lvn maps. The owners are the measurements, the bases,
and the matrix units and the identity of each dimension (`_Operators`).
`hs_basis(d)` returns one shared basis per d.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Hashable, Sequence

import numpy as np

from .linops import (
    HALF_RANGE,
    ValidationError,
    _clusters,
    _complex128,
    _hand,
    _kept,
    _trace_rows,
    as_matrix,
    check_half_range,
    dagger,
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


def _defects(stack: np.ndarray, sizes: Sequence[int]):
    """Arrays whose entries hold every defect of a stack of projectors as one measurement per
    segment, its consecutive runs of ``sizes`` rows: the deviation of each segment's sum
    from the identity; per slice, the deviations from Hermiticity and idempotence; the
    product of each projector with the one k rows on in its segment, for each k, slice by
    slice, so no table of all pairs is ever formed."""
    starts = [0, *itertools.accumulate(sizes[:-1])]
    yield np.add.reduceat(stack, starts) - np.eye(stack.shape[-1])
    for c in _slices(stack):
        yield c - c.conj().transpose(0, 2, 1)
        yield c @ c - c
    segment = np.repeat(np.arange(len(sizes)), sizes) if len(sizes) > 1 else None
    step = max(1, _BLOCK // max(1, stack[0].size))
    for k in range(1, max(sizes)):
        same = None if segment is None else segment[k:] == segment[:-k]
        for s in range(0, len(stack) - k, step):
            e = min(s + step, len(stack) - k)
            pair = stack[s:e] @ stack[s + k:e + k]
            yield pair if same is None else pair[same[s:e]]


def _check_in_order(dim: int, labels: Sequence[Hashable], mats: Sequence[np.ndarray], tol: float):
    """The checks one outcome or pair at a time, raising the first that fails: each outcome's
    shape, then whether it is a Hermitian projector, in outcome order; then the sum; then
    each pair in itertools.combinations order."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN defect fails, silently
        for label, p in zip(labels, mats):
            if p.shape != (dim, dim):
                as_matrix(p)  # refuses a missing projector as not a matrix
                raise ValidationError("projector shape does not match measurement dim")
            if not (is_hermitian(p, tol) and max_abs(p @ p - p) <= tol):
                raise ValidationError(f"outcome {label!r}: not a Hermitian projector")
        if not max_abs(sum(mats) - np.eye(dim)) <= tol:
            raise ValidationError("projectors do not sum to the identity")
        for (a, pa), (b, pb) in itertools.combinations(zip(labels, mats), 2):
            if not max_abs(pa @ pb) <= tol:
                raise ValidationError(f"projectors {a!r} and {b!r} overlap")


def _passes(stack: np.ndarray, sizes: Sequence[int], tol: float) -> bool:
    """Whether every segment of ``stack`` (see `_defects`) is a measurement within ``tol``."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN defect fails, silently
        return all(max_abs(x) <= tol for x in _defects(stack, sizes))


class _Insertions:
    """The right, left, lvn and Jordan insertion maps of an owner's read-only (m, d, d) stack of
    operators a_i, the field ``_stack_field`` names (a measurement's `projectors`, a basis's
    or an `_Operators`'s `stack`), and the trace rows (`linops._trace_rows`) of each: each
    built once, on first use, read-only. A sweep whose last maps they are folds its final
    trace into the rows."""

    _stack_field: str

    @cached_property
    def right_maps(self) -> np.ndarray:
        """Bra-side insertions x ↦ x·a_i as an (m, d², d²) stack (see `insertion_maps`)."""
        return readonly(insertion_maps("right", getattr(self, self._stack_field)))

    @cached_property
    def left_maps(self) -> np.ndarray:
        """Ket-side insertions x ↦ a_i·x."""
        return readonly(insertion_maps("left", getattr(self, self._stack_field)))

    @cached_property
    def lvn_maps(self) -> np.ndarray:
        """Collapse insertions x ↦ a_i·x·a_i."""
        return readonly(insertion_maps("lvn", getattr(self, self._stack_field)))

    @cached_property
    def _jordan_maps(self) -> np.ndarray:
        """Jordan insertions x ↦ (a_i·x + x·a_i)/2, the mean of the right and left maps."""
        return readonly((self.right_maps + self.left_maps) / 2)

    def _rows(self, maps: str) -> np.ndarray:
        """The trace rows of the map stack the attribute ``maps`` holds, built once for each."""
        built = self.__dict__.setdefault("_built_rows", {})
        if maps not in built:
            built[maps] = readonly(_trace_rows(getattr(self, maps)))
        return built[maps]


class _Operators(_Insertions):
    """An unchecked read-only (m, d, d) ``stack`` that depends on its ``dim`` alone, as the owner
    of its maps and rows: the matrix units a temporal state inserts (`_matrix_units`) and the
    witness's identity at t_0 (`_identity`), one shared owner of each per dimension."""

    _stack_field = "stack"

    def __init__(self, stack: np.ndarray):
        self.stack, self.dim = readonly(stack), stack.shape[-1]


@cache
def _matrix_units(d: int) -> _Operators:
    """The d² units E_cr = |c⟩⟨r|: each of their map stacks holds 16·d⁶ bytes, 65 kB at d = 4."""
    return _Operators(np.eye(d * d, dtype=np.complex128).reshape(d * d, d, d).transpose(0, 2, 1))


@cache
def _identity(d: int) -> _Operators:
    return _Operators(np.eye(d, dtype=np.complex128)[None])


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement(_Insertions):
    """Outcomes whose projectors are Hermitian, idempotent, mutually orthogonal
    and sum to the identity, each within ``tol``; ``projectors`` is their
    read-only (m, d, d) stack in outcome order, a copy of the projectors given,
    and each outcome's projector is a view of its row."""

    dim: int
    outcomes: tuple[Outcome, ...]
    projectors: np.ndarray = field(repr=False)
    _stack_field = "projectors"

    def __init__(self, dim: int, outcomes: Sequence[Outcome], tol: float = 1e-9):
        outcomes = tuple(outcomes)
        if not outcomes:
            raise ValidationError("measurement needs at least one outcome")
        labels = [o.label for o in outcomes]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"outcome labels are not distinct: {labels}")
        mats = [_complex128(np.asarray, o.projector) for o in outcomes]
        if any(p.shape != (dim, dim) for p in mats):  # no stack: the first fault in outcome order
            _check_in_order(dim, labels, mats, tol)
        self._hold(_hand(np.array(mats)), [o.value for o in outcomes], labels, tol)

    @classmethod
    def _of(cls, stack: np.ndarray, values: Sequence[float], labels: Sequence[Hashable],
            tol: float | None) -> ProjectiveMeasurement:
        """The measurement whose outcome i has ``values[i]``, ``labels[i]`` (distinct, which
        the caller ensures) and row i of ``stack`` as its projector (see `_hold`)."""
        m = object.__new__(cls)
        m._hold(stack, values, labels, tol)
        return m

    def _hold(self, stack: np.ndarray, values, labels, tol: float | None):
        """Check ``stack`` at ``tol`` and hold it as ``projectors``, and the outcomes its rows
        are. A stack a pass handed over (`linops._hand`) is held without a copy, any other
        copied (`linops._kept`). Every check runs at once over the stack; only when one
        fails are they run in order, to name it. For ``tol`` None nothing is checked: only
        a caller that has just checked the stack, as `_spectral` does, passes None."""
        stack = _kept(stack)
        if tol is not None and not _passes(stack, [len(stack)], tol):
            _check_in_order(stack.shape[-1], labels, stack, tol)
        object.__setattr__(self, "dim", stack.shape[-1])
        object.__setattr__(self, "projectors", stack)
        object.__setattr__(self, "outcomes", tuple(map(Outcome, values, stack, labels)))

    def observable(self) -> np.ndarray:
        """Σ value·projector."""
        return sum(o.value * o.projector for o in self.outcomes)


def _spectral(h: np.ndarray, wheres: Sequence[str], tol: float) -> list[ProjectiveMeasurement]:
    """The spectral measurement of each observable of the (n, d, d) stack ``h``, all at once,
    with its Hermiticity and projector checks and its merge at ``tol``.

    An observable with an entry past the half range (`check_half_range`), or not Hermitian,
    is refused, the first in stack order, in a message that begins with its entry of
    ``wheres``. The Hermitian parts (h + h†)/2, h itself bit for bit when exactly Hermitian,
    are decomposed by one batched ``eigh``; eigenvalues merge as `linops._clusters` groups
    them, each group's value being its outcome's value and label. The rank-1 projectors are
    one batched product of column by row and a merged group has its own V·V†, so they are
    the projectors of one decomposition at a time, bit for bit. They are checked as one
    stack, and each measurement holds its rows of it.
    """
    n, d = len(h), h.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN defect fails, silently
        # |h_ij| bounds both parts: the whole stack passes at once, or is checked matrix by matrix
        if not (h.shape[1] == d and max_abs(h) <= HALF_RANGE
                and max_abs(h - h.conj().transpose(0, 2, 1)) <= tol):
            for where, o in zip(wheres, h):  # the first refused in stack order, as each is checked alone
                check_half_range(o, where)
                if not is_hermitian(o, tol):
                    raise ValidationError(f"{where}: not Hermitian within {tol}")
    if not d:
        raise ValidationError("measurement needs at least one outcome")
    vals, vecs = np.linalg.eigh((h + h.conj().transpose(0, 2, 1)) / 2)
    groups = _clusters(vals, tol)
    cols = vecs.transpose(0, 2, 1).reshape(n * d, d)
    stack = cols[:, :, None] @ cols.conj()[:, None, :]  # the rank-1 projector of every eigenvector
    if sum(map(len, groups)) < n * d:  # a merged group's V·V† takes the place of its vectors' projectors
        stack = np.array([stack[i * d + a] if b == a + 1 else vecs[i][:, a:b] @ dagger(vecs[i][:, a:b])
                          for i, g in enumerate(groups) for _, a, b in g])
    stack = (stack + stack.conj().transpose(0, 2, 1)) / 2
    sizes = [len(g) for g in groups]
    checked = None if _passes(stack, sizes, tol) else tol  # else each is checked, and the first fault named
    stack, out = _hand(stack), []
    for s, g in zip(itertools.accumulate([0, *sizes]), groups):
        values = [v for v, _, _ in g]
        out.append(ProjectiveMeasurement._of(stack[s:s + len(g)], values, values, checked))
    return out


def spectral_measurement(observable: np.ndarray, tol: float = 1e-8) -> ProjectiveMeasurement:
    """Measurement of an observable Hermitian within ``tol``, `_spectral` of a stack of one:
    eigenvalues within ``tol`` merge, and its projectors are checked at ``tol``. An entry past
    the half range is refused, as `check_half_range` states."""
    return _spectral(as_matrix(observable)[None], ["observable"], tol)[0]


def product_measurement(locals_: Sequence[ProjectiveMeasurement],
                        tol: float = 1e-9) -> ProjectiveMeasurement:
    """Joint local measurement on ⊗ sites, checked at ``tol``.

    Outcome values multiply across sites (so they may collide, e.g. Z⊗Z);
    labels are the per-site label tuples, which stay distinct. Each site is one
    broadcast product into the projector stack, entry for entry what `np.kron` forms;
    the measurement holds that stack without a copy.
    """
    if not locals_:
        raise ValidationError("product of zero measurements")
    stack = locals_[0].projectors
    for m in locals_[1:]:
        n, d = len(stack) * len(m.projectors), stack.shape[1] * m.dim
        stack = (stack[:, None, :, None, :, None] * m.projectors[None, :, None, :, None, :]).reshape(n, d, d)
    combos = list(itertools.product(*[m.outcomes for m in locals_]))
    return ProjectiveMeasurement._of(_hand(stack) if len(locals_) > 1 else stack,
                                     [float(np.prod([o.value for o in c])) for c in combos],
                                     [tuple(o.label for o in c) for c in combos], tol)


@dataclass(frozen=True, eq=False)
class HSBasis(_Insertions):
    """Hermitian operator basis: ops[0] = I, the rest traceless, Tr(σμσν) = d·δμν, each within
    ``tol``, which it keeps for its `lvn_maps` and `rotate_basis`; ``stack`` is a read-only
    (d², d, d) copy of the ops given, and ``ops`` its row views."""

    dim: int
    ops: tuple[np.ndarray, ...]
    stack: np.ndarray = field(repr=False)
    tol: float
    _stack_field = "stack"

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
        object.__setattr__(self, "tol", tol)

    @cached_property
    def lvn_maps(self) -> np.ndarray:
        """Value-weighted collapses x ↦ Σ_a a·Π_a x Π_a over the spectral projectors of each σ
        at ``tol``, one map per basis element (not per outcome, as `ProjectiveMeasurement` has)."""
        meas = _spectral(self.stack, ["observable"] * len(self.stack), self.tol)
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
    """Conjugate every element by u, unitary within the basis's ``tol``, into a basis at that tol."""
    u = as_matrix(u)
    if u.shape != (basis.dim, basis.dim):
        raise ValidationError(f"rotate_basis: u has shape {u.shape}, expected {(basis.dim, basis.dim)}")
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN defect fails, silently
        unitary = max_abs(dagger(u) @ u - np.eye(basis.dim)) <= basis.tol
    if not unitary:
        raise ValidationError("rotate_basis needs a unitary")
    return HSBasis(basis.dim, [u @ o @ dagger(u) for o in basis.ops], basis.tol)

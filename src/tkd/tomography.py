"""Correlator tensors and temporal state operators.

A multi-time process can be packed into a single operator on the tensor
product of its time slots. Each is read off the forward sweep of
``tkd.quasiprob`` with matrix units E_ab = |a⟩⟨b| inserted at every time:
x ↦ xE gives the Kirkwood-Dirac state, its Hermitian part the Margenau-Hill
state, x ↦ (Ex + xE)/2 the pseudo-density operator, and x ↦ ExE' the doubled
Kirkwood-Dirac state. All of them are unit-trace; traces against products of
time-local operators reproduce the corresponding distribution or correlator.
Correlator tomography (``reconstruct_state``) rebuilds them as a cross-check.

Factor ordering inside a state matrix is latest time first; doubled states
carry the full ket block of factors first, then the bra block. Time indices
exposed through the API stay ascending.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .linops import (ValidationError, as_matrix, dagger, frozen_matrix, insertion_maps, max_abs,
                     partial_trace, readonly)
from .measurements import HSBasis, hs_basis, spectral_measurement
from .quasiprob import MultiTimeProcess, _ket_bra_order, _sweep

CORRELATOR_KINDS = ("right", "left", "doubled", "mh", "lvn")
STATE_KINDS = ("kd_right", "kd_left", "kd_doubled", "mh", "pdo")
HERMITIAN_STATE_KINDS = ("mh", "pdo")


@dataclass(frozen=True, eq=False)
class CorrelatorTensor:
    """Expectation tensor T over Hilbert-Schmidt basis choices, one axis per
    time slot (doubled kinds: ket block then bra block). ``tol`` bounds the
    identity entry's distance from 1; mh and lvn imaginary parts are held to
    tol/100."""

    kind: str
    bases: tuple[HSBasis, ...]
    values: np.ndarray
    ket_axes: int = 0
    tol: float = 1e-10

    def __post_init__(self):
        if self.kind not in CORRELATOR_KINDS:
            raise ValidationError(f"unknown correlator kind {self.kind!r}")
        object.__setattr__(self, "bases", tuple(self.bases))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.complex128))
        shape = tuple(len(b.ops) for b in self.bases)
        if self.values.shape != shape:
            raise ValidationError("correlator values shape does not match bases")
        if self.kind == "doubled":
            if self.ket_axes * 2 != len(self.bases):
                raise ValidationError("doubled correlators need equal ket and bra blocks")
            for a, b in zip(self.bases[: self.ket_axes], self.bases[self.ket_axes:]):
                if a.dim != b.dim:
                    raise ValidationError("ket and bra blocks disagree on dimensions")
        elif self.ket_axes:
            raise ValidationError(f"{self.kind} carries no ket block")
        top = complex(self.values[(0,) * len(shape)])
        if abs(top - 1.0) > self.tol:
            raise ValidationError(f"identity correlator is {top}, not 1")
        if self.kind in ("mh", "lvn"):
            if float(np.max(np.abs(self.values.imag))) > self.tol / 100:
                raise ValidationError(f"{self.kind} correlators must be real")

    @property
    def time_dims(self) -> tuple[int, ...]:
        block = self.bases[: self.ket_axes] if self.ket_axes else self.bases
        return tuple(b.dim for b in block)


@dataclass(frozen=True, eq=False)
class TemporalStateOperator:
    """Unit-trace operator over the time slots; ``dims`` is ascending by time
    while matrix factors run latest-first (doubled: ket block, then bra).
    ``tol`` bounds the trace defect and, for Hermitian kinds, the
    Hermiticity defect. ``matrix`` is a read-only copy of the array given."""

    kind: str
    dims: tuple[int, ...]
    matrix: np.ndarray
    tol: float = 1e-10

    def __post_init__(self):
        if self.kind not in STATE_KINDS:
            raise ValidationError(f"unknown state kind {self.kind!r}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        m = frozen_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        d = int(np.prod(self.dims))
        if self.doubled:
            d *= d
        if m.shape != (d, d):
            raise ValidationError(f"state matrix is {m.shape}, dims imply {(d, d)}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > self.tol:
            raise ValidationError(f"state trace is {tr}, not 1")
        if self.kind in HERMITIAN_STATE_KINDS and max_abs(m - dagger(m)) > self.tol:
            raise ValidationError(f"{self.kind} state must be Hermitian")

    @property
    def doubled(self) -> bool:
        return self.kind == "kd_doubled"

    @property
    def n_times(self) -> int:
        return len(self.dims)

    @property
    def factor_dims(self) -> tuple[int, ...]:
        """Per-factor dims in matrix order (latest time first)."""
        rev = tuple(reversed(self.dims))
        return rev + rev if self.doubled else rev

    @cached_property
    def _paired(self) -> np.ndarray:
        """Υ[r…, c…] as one C-contiguous copy with axes (c_0, r_0, c_1, r_1, …)
        in matrix factor order, so factor k's legs form one d_k² axis pair."""
        m = len(self.factor_dims)
        t = self.matrix.reshape(self.factor_dims * 2)
        return readonly(np.ascontiguousarray(t.transpose([a for k in range(m) for a in (m + k, k)])))

    def eigenvalues(self) -> np.ndarray:
        if self.kind in HERMITIAN_STATE_KINDS:
            return np.linalg.eigvalsh(self.matrix)
        return np.sort_complex(np.linalg.eigvals(self.matrix))


def _bases_for(p: MultiTimeProcess, bases) -> tuple[HSBasis, ...]:
    if bases is None:
        return tuple(hs_basis(d) for d in p.dims)
    bases = tuple(bases)
    if len(bases) != p.n_times:
        raise ValidationError(f"{len(bases)} bases for {p.n_times} times")
    for k, (b, d) in enumerate(zip(bases, p.dims)):
        if b.dim != d:
            raise ValidationError(f"basis {k} acts on dim {b.dim}, process carries {d}")
    return bases


def correlators(p: MultiTimeProcess, bases: Sequence[HSBasis] | None = None,
                kind: str = "right") -> CorrelatorTensor:
    """Basis-observable expectation tensor of a process.

    Runs the forward sweep of ``tkd.quasiprob`` with basis elements σ in place
    of projectors: x ↦ xσ (right, mh), σx (left), σ_i x σ_j for every pair
    (doubled, ket block then bra block), and the value-weighted collapse
    Σ_a a·Π_a x Π_a over the spectral projectors of σ (lvn); mh keeps the real
    part of right. ``tkd.oracle.oracle_correlators`` recomputes the same tensor
    from value-weighted sums of distributions.
    """
    if kind not in CORRELATOR_KINDS:
        raise ValidationError(f"unknown correlator kind {kind!r}")
    bases = _bases_for(p, bases)
    if kind == "lvn":  # value-weighted collapse Σ_a a·Π_a x Π_a
        meas = [[spectral_measurement(op) for op in b.ops] for b in bases]
        maps = [np.stack([np.tensordot([o.value for o in m.outcomes], m.lvn_maps, 1) for m in row])
                for row in meas]
    else:
        maps = [insertion_maps("right" if kind == "mh" else kind, np.stack(b.ops)) for b in bases]
    values = _sweep(p, maps)
    if kind == "doubled":
        values = _ket_bra_order(values, [(len(b.ops),) * 2 for b in bases])
        return CorrelatorTensor("doubled", bases + bases, values, ket_axes=p.n_times, tol=p.tol)
    values = values.reshape(tuple(len(b.ops) for b in bases))
    if kind == "mh":
        values = values.real.astype(np.complex128)
    return CorrelatorTensor(kind, bases, values, tol=p.tol)


_STATE_FROM_CORRELATOR = {
    "right": "kd_right",
    "left": "kd_left",
    "doubled": "kd_doubled",
    "mh": "mh",
    "lvn": "pdo",
}


def reconstruct_state(t: CorrelatorTensor) -> TemporalStateOperator:
    """Bloch-style resynthesis Υ = (1/Π_k d_k) Σ T ⊗σ (doubled: 1/Π_k d_k²).

    The prefactor carries one power of d per tensor axis, which is what makes
    traces against basis products return the stored correlators.
    """
    axes = len(t.bases)
    stacks = [np.stack(b.ops) for b in t.bases]
    letters = iter(string.ascii_lowercase + string.ascii_uppercase)
    mu = [next(letters) for _ in range(axes)]
    ij = [(next(letters), next(letters)) for _ in range(axes)]
    if t.ket_axes:
        order = list(range(t.ket_axes - 1, -1, -1)) + list(range(axes - 1, t.ket_axes - 1, -1))
    else:
        order = list(range(axes - 1, -1, -1))
    rows = "".join(ij[a][0] for a in order)
    cols = "".join(ij[a][1] for a in order)
    sub = ",".join(["".join(mu)] + [mu[a] + ij[a][0] + ij[a][1] for a in range(axes)])
    mat = np.einsum(sub + "->" + rows + cols, t.values, *stacks, optimize=True)
    side = int(np.prod([b.dim for b in t.bases]))
    mat = mat.reshape(side, side) / side
    return TemporalStateOperator(_STATE_FROM_CORRELATOR[t.kind], t.time_dims, mat, tol=t.tol)


def _state(p: MultiTimeProcess, side: str) -> np.ndarray:
    """Read a state off the forward sweep with matrix units E_ab = |a⟩⟨b|
    inserted at every time: x ↦ xE (right), (Ex + xE)/2 (jordan), or ExE' for
    every pair (doubled). Tr[Υ·⊗E] = Υ[b, a] (doubled: Υ[b…, b'…; a…, a'…]), so
    one transpose takes each time's unit indices (a, b) or (a, b, a', b') to b
    (then b') on the rows and a (then a') on the columns, latest time first."""
    by_dim = {}
    for d in set(p.dims):
        units = np.eye(d * d, dtype=np.complex128).reshape(d * d, d, d)
        m = insertion_maps("doubled" if side == "doubled" else "right", units)
        by_dim[d] = (m + insertion_maps("left", units)) / 2 if side == "jordan" else m
    maps = [by_dim[d] for d in p.dims]
    legs = (1, 3, 0, 2) if side == "doubled" else (1, 0)
    order = [len(legs) * k + j for j in legs for k in range(p.n_times - 1, -1, -1)]
    side_dim = int(np.prod(p.dims)) ** (len(legs) // 2)
    values = _sweep(p, maps).reshape([d for d in p.dims for _ in legs])
    return values.transpose(order).reshape(side_dim, side_dim)


def kd_state_recursive(p: MultiTimeProcess, kind: str = "kd_right") -> TemporalStateOperator:
    """The right read-off of the sweep (x ↦ xE), kd_left its dagger, kd_doubled x ↦ ExE'."""
    if kind not in ("kd_right", "kd_left", "kd_doubled"):
        raise ValidationError(f"kd_state_recursive builds kd_right/kd_left/kd_doubled, not {kind!r}")
    y = _state(p, "doubled" if kind == "kd_doubled" else "right")
    return TemporalStateOperator(kind, p.dims, dagger(y) if kind == "kd_left" else y, tol=p.tol)


def mh_state(p: MultiTimeProcess) -> TemporalStateOperator:
    y = kd_state_recursive(p).matrix
    return TemporalStateOperator("mh", p.dims, (y + dagger(y)) / 2, tol=p.tol)


def pdo(p: MultiTimeProcess) -> TemporalStateOperator:
    """The Jordan read-off of the sweep (x ↦ (Ex + xE)/2).

    Coincides with the Margenau-Hill state at two times; from three times on
    the nesting order matters and the two drift apart.
    """
    return TemporalStateOperator("pdo", p.dims, _state(p, "jordan"), tol=p.tol)


def _factors_for(y: TemporalStateOperator, ops: Sequence[np.ndarray], side: str) -> list[np.ndarray]:
    ops = [as_matrix(o) for o in ops]
    if len(ops) != y.n_times:
        raise ValidationError(f"{len(ops)} {side} operators for {y.n_times} times")
    for k, (o, d) in enumerate(zip(ops, y.dims)):
        if o.shape != (d, d):
            raise ValidationError(f"{side} operator {k} is {o.shape}, time dim is {d}")
    return list(reversed(ops))


def born_eval(y: TemporalStateOperator, projectors: Sequence[np.ndarray],
              bra_projectors: Sequence[np.ndarray] | None = None) -> complex:
    """Tr[Υ·(⊗ factors)] with one operator per time (ascending order in the
    arguments). Doubled states take separate ket and bra operator lists.

    Each factor F[c, r], flattened, is contracted in turn with its (c, r) leg
    pair of the state's paired copy, one vector-matrix product per factor; the
    D×D product is never formed. The paired copy is built on the first call
    and kept on the state, so a state that is evaluated holds its matrix twice."""
    factors = _factors_for(y, projectors, "ket")
    if y.doubled:
        if bra_projectors is None:
            raise ValidationError("doubled state needs bra_projectors")
        factors = factors + _factors_for(y, bra_projectors, "bra")
    elif bra_projectors is not None:
        raise ValidationError(f"{y.kind} state takes a single operator list")
    z = y._paired
    for f in factors:
        z = f.reshape(-1) @ z.reshape(f.size, -1)
    return complex(z[0])


def reduce_state(y: TemporalStateOperator, keep_times: Sequence[int]) -> TemporalStateOperator:
    """Partial-trace out entire time slots (doubled: ket and bra leg jointly)."""
    times = sorted(set(int(t) for t in keep_times))
    if not times:
        raise ValidationError("reduce_state needs at least one kept time")
    nt = y.n_times
    if times[0] < 0 or times[-1] >= nt:
        raise ValidationError(f"keep_times {times} out of range")
    pos = [nt - 1 - k for k in times]
    if y.doubled:
        pos = pos + [nt + q for q in pos]
    mat = partial_trace(y.matrix, list(y.factor_dims), sorted(pos))
    new_dims = tuple(y.dims[k] for k in times)
    return TemporalStateOperator(y.kind, new_dims, mat, tol=y.tol)


def trace_ket_block(y: TemporalStateOperator) -> TemporalStateOperator:
    """Trace a doubled state over its ket block; bra labels survive, so the
    result is the right-handed single-block state."""
    if not y.doubled:
        raise ValidationError(f"{y.kind} has no ket block")
    nt = y.n_times
    mat = partial_trace(y.matrix, list(y.factor_dims), list(range(nt, 2 * nt)))
    return TemporalStateOperator("kd_right", y.dims, mat, tol=y.tol)


def trace_bra_block(y: TemporalStateOperator) -> TemporalStateOperator:
    if not y.doubled:
        raise ValidationError(f"{y.kind} has no bra block")
    nt = y.n_times
    mat = partial_trace(y.matrix, list(y.factor_dims), list(range(nt)))
    return TemporalStateOperator("kd_left", y.dims, mat, tol=y.tol)

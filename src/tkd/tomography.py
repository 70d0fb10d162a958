"""Correlator tensors and temporal state operators.

A multi-time process can be packed into a single operator on the tensor
product of its time slots. Each is read off the forward sweep of
``tkd.quasiprob`` with matrix units E_ab = |a⟩⟨b| inserted at every time:
x ↦ xE gives the Kirkwood-Dirac state, its Hermitian part the Margenau-Hill
state, x ↦ (Ex + xE)/2 the pseudo-density operator, and x ↦ ExE' the doubled
KD state. All are unit-trace; their traces against products of time-local
operators (``born_eval``: one outcome tuple, or a whole table from stacks)
reproduce the corresponding distribution or correlator.
Correlator tomography (``reconstruct_state``) rebuilds them as a cross-check;
the lvn tensor rebuilds the pdo only on qubits and is refused at any other dim.

Both take their insertions from the resolver of ``tkd.quasiprob``, whose owners
build each map and trace row once: each `HSBasis`, and the matrix units of each
dimension (one shared owner per dimension, `measurements._matrix_units`).

Factor ordering inside a state matrix is latest time first; doubled states
carry the full ket block of factors first, then the bra block. Time indices
exposed through the API stay ascending. That layout is written once in
``_matrix`` (read-off, resynthesis) and once in ``_reduced`` (partial traces).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .linops import ValidationError, _hand, _kept, as_matrix, dagger, is_hermitian, partial_trace, readonly
from .measurements import HSBasis, _matrix_units, hs_basis
from .quasiprob import MultiTimeProcess, _insertions, _sweep

CORRELATOR_KINDS = ("right", "left", "doubled", "mh", "lvn")
_CORRELATOR_PASS = dict(zip(CORRELATOR_KINDS, ("kd_right", "kd_left", "kd_doubled", "kd_right", "lvn")))
STATE_KINDS = ("kd_right", "kd_left", "kd_doubled", "mh", "pdo")
HERMITIAN_STATE_KINDS = ("mh", "pdo")


@dataclass(frozen=True, eq=False)
class CorrelatorTensor:
    """Expectation tensor T over Hilbert-Schmidt basis choices, one axis per
    time slot (doubled kinds: ket block then bra block). ``tol`` bounds the
    identity entry's distance from 1; mh and lvn imaginary parts are held to
    tol/100. Non-finite values are refused. ``values`` is read-only, held as
    ``QuasiDistribution`` holds its values: the array `correlators` built as it is."""

    kind: str
    bases: tuple[HSBasis, ...]
    values: np.ndarray
    ket_axes: int = 0
    tol: float = 1e-10

    def __post_init__(self):
        if self.kind not in CORRELATOR_KINDS:
            raise ValidationError(f"unknown correlator kind {self.kind!r}")
        object.__setattr__(self, "bases", tuple(self.bases))
        object.__setattr__(self, "values", _kept(self.values))
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
        if not np.isfinite(self.values).all():
            raise ValidationError("correlator values must be finite")
        top = complex(self.values[(0,) * len(shape)])
        if math.hypot(top.real - 1.0, top.imag) > self.tol:  # |top − 1|, inf past the float range
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
    Hermiticity defect. ``matrix`` must be finite. It is held read-only, as
    ``QuasiDistribution`` holds its values: the matrix a state builder built
    as it is, any array from a caller (read-only or not) as a copy."""

    kind: str
    dims: tuple[int, ...]
    matrix: np.ndarray
    tol: float = 1e-10

    def __post_init__(self):
        if self.kind not in STATE_KINDS:
            raise ValidationError(f"unknown state kind {self.kind!r}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        m = as_matrix(_kept(self.matrix))
        object.__setattr__(self, "matrix", m)
        d = math.prod(self.dims)
        if self.doubled:
            d *= d
        if m.shape != (d, d):
            raise ValidationError(f"state matrix is {m.shape}, dims imply {(d, d)}")
        if not np.isfinite(m).all():
            raise ValidationError("state matrix must be finite")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing or NaN trace is refused, silently
            tr = np.trace(m)
            if not abs(tr - 1.0) <= self.tol:
                raise ValidationError(f"state trace is {complex(tr)}, not 1")
        if self.kind in HERMITIAN_STATE_KINDS and not is_hermitian(m, self.tol):
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


def correlators(p: MultiTimeProcess, bases: Sequence[HSBasis] | None = None,
                kind: str = "right") -> CorrelatorTensor:
    """Basis-observable expectation tensor of a process.

    Runs the forward sweep of ``tkd.quasiprob`` with basis elements σ in place
    of projectors: x ↦ xσ (right, mh), σx (left), σ_i x σ_j for every pair
    (doubled, ket block then bra block), and the value-weighted collapse
    Σ_a a·Π_a x Π_a over the spectral projectors of σ (lvn); mh keeps the real
    part of right. The maps are the bases' own (``right_maps``, ...), built
    once per basis. ``tkd.oracle.oracle_correlators`` recomputes the same
    tensor from value-weighted sums of distributions.
    """
    if kind not in CORRELATOR_KINDS:
        raise ValidationError(f"unknown correlator kind {kind!r}")
    bases = tuple(hs_basis(d) for d in p.dims) if bases is None else tuple(bases)
    stacks, rows, owners = _insertions(p, _CORRELATOR_PASS[kind], bases, bases, name="bases")
    values = _sweep(p, *stacks, rows=rows)
    values = values.real if kind == "mh" else _hand(values)
    return CorrelatorTensor(kind, owners, values, ket_axes=len(owners) - p.n_times, tol=p.tol)


def _matrix(t: np.ndarray, dims: Sequence[int], blocks: int) -> np.ndarray:
    """The D×D matrix of a tensor with one (row, column) leg pair per (block,
    time), ascending. Rows and columns each run over the ket block, then the
    bra block (doubled), latest time first. The result views one fresh copy,
    so a builder can hand it to its state."""
    nt = len(dims)
    t = t.reshape([d for _ in range(blocks) for d in dims for _ in "rc"])
    order = [2 * (b * nt + k) + leg for leg in (0, 1) for b in range(blocks) for k in reversed(range(nt))]
    side = math.prod(dims) ** blocks
    return t.transpose(order).copy().reshape(side, side)


def reconstruct_state(t: CorrelatorTensor) -> TemporalStateOperator:
    """Bloch-style resynthesis Υ = (1/Π_k d_k) Σ T ⊗σ (doubled: 1/Π_k d_k²),
    contracting T one axis at a time against that axis's basis stack: one
    GEMM per axis, with the (m, rest) view of T as a transposed operand, so
    no axis is copied into place. The rows keep the rest in order, so the
    last GEMM leaves the (d₀, d₀, d₁, d₁, …) layout `np.tensordot` gives.

    The prefactor carries one power of d per tensor axis, which is what makes
    traces against basis products return the stored correlators. The lvn
    tensor resynthesizes to the pdo only when every time is a qubit (only a
    ±1 spectrum makes the value-weighted collapse a Jordan product), so a
    tensor with any other dim is refused.
    """
    if t.kind == "lvn":
        for k, d in enumerate(t.time_dims):
            if d != 2:
                raise ValidationError(f"the lvn resynthesis is the pdo only on qubits; "
                                      f"time {k} has dim {d}")
    z = t.values
    for b, m in zip(t.bases, t.values.shape):
        z = z.reshape(m, -1).T @ b.stack.reshape(m, -1)
    side = math.prod(b.dim for b in t.bases)
    mat = _matrix(z, t.time_dims, 1 + (t.kind == "doubled")) / side
    kind = {"mh": "mh", "lvn": "pdo"}.get(t.kind, "kd_" + t.kind)
    return TemporalStateOperator(kind, t.time_dims, _hand(mat), tol=t.tol)


def _state(p: MultiTimeProcess, kind: str) -> np.ndarray:
    """Read a state off the forward sweep with matrix units E_cr = |c⟩⟨r| inserted at every
    time on the sides of ``kind``: x ↦ xE (kd_right), (Ex + xE)/2 (pdo), or ExE' (kd_doubled:
    E ket side, E' bra side). Tr[Υ·⊗E] = Υ[r…, c…], so unit (r, c) of each time gives that
    time's (row, column) leg pair. The units of each dimension are one shared owner
    (`measurements._matrix_units`) of their maps and trace rows, each built once per process."""
    units = [_matrix_units(d) for d in p.dims]
    stacks, rows, _ = _insertions(p, kind, units, units)
    return _matrix(_sweep(p, *stacks, rows=rows), p.dims, len(stacks))


def kd_state_recursive(p: MultiTimeProcess, kind: str = "kd_right") -> TemporalStateOperator:
    """The right read-off of the sweep (x ↦ xE), kd_left its dagger, kd_doubled x ↦ ExE'."""
    if kind not in ("kd_right", "kd_left", "kd_doubled"):
        raise ValidationError(f"kd_state_recursive builds kd_right/kd_left/kd_doubled, not {kind!r}")
    y = _state(p, "kd_doubled" if kind == "kd_doubled" else "kd_right")
    return TemporalStateOperator(kind, p.dims, _hand(dagger(y) if kind == "kd_left" else y), tol=p.tol)


def mh_state(p: MultiTimeProcess) -> TemporalStateOperator:
    y = _state(p, "kd_right")
    return TemporalStateOperator("mh", p.dims, _hand((y + dagger(y)) / 2), tol=p.tol)


def pdo(p: MultiTimeProcess) -> TemporalStateOperator:
    """The Jordan read-off of the sweep (x ↦ (Ex + xE)/2).

    Coincides with the Margenau-Hill state at two times; from three times on
    the nesting order matters and the two drift apart.
    """
    return TemporalStateOperator("pdo", p.dims, _hand(_state(p, "pdo")), tol=p.tol)


def _factors_for(y: TemporalStateOperator, ops: Sequence[np.ndarray], side: str) -> list[np.ndarray]:
    """The one shape check of `born_eval`: each time's (d, d) operator F[c, r] as the vector
    F[c·d + r], or its non-empty (m, d, d) stack as the (d², m) matrix of those; latest first."""
    if len(ops) != y.n_times:
        raise ValidationError(f"{len(ops)} {side} operators for {y.n_times} times")
    factors = []
    for k, (o, d) in enumerate(zip(ops, y.dims)):
        o = np.asarray(o, dtype=np.complex128)
        if o.shape == (d, d):
            factors.append(o.ravel())
        elif o.ndim == 3 and o.shape[1:] == (d, d) and len(o):
            factors.append(o.reshape(len(o), -1).T)
        else:
            raise ValidationError(f"{side} operator {k} is {o.shape}, time dim is {d}")
    return factors[::-1]


def born_eval(y: TemporalStateOperator, projectors: Sequence[np.ndarray],
              bra_projectors: Sequence[np.ndarray] | None = None) -> complex | np.ndarray:
    """Tr[Υ·(⊗ factors)] with one operator, or one (m, d, d) stack, per time (ascending order
    in the arguments; doubled states take a ket and a bra list): a complex, or with stacks an
    array with one axis per stacked time, ascending, ket block first, so that
    ``[m.projectors for m in schedule]`` reads a whole distribution in one call. Each factor,
    flattened, meets the leading (c, r) leg pair of the state's paired copy in one product: an
    operator in one GEMV, a stack in one GEMM whose axis goes last; the D×D product is never
    formed. The paired copy is built on the first call and kept on the state, so a state that
    is evaluated holds its matrix twice."""
    factors = _factors_for(y, projectors, "ket")
    if y.doubled:
        if bra_projectors is None:
            raise ValidationError("doubled state needs bra_projectors")
        factors = factors + _factors_for(y, bra_projectors, "bra")
    elif bra_projectors is not None:
        raise ValidationError(f"{y.kind} state takes a single operator list")
    z = y._paired
    for f in factors:
        z = np.dot(f, z.reshape(len(f), -1)) if f.ndim == 1 else z.reshape(len(f), -1).T @ f
    shape = [f.shape[1] for f in factors if f.ndim == 2]  # latest time first in each block
    if not shape:
        return complex(z.item())
    ket = sum(f.ndim == 2 for f in factors[:y.n_times])
    return z.reshape(shape).transpose([*reversed(range(ket)), *reversed(range(ket, len(shape)))])


def _reduced(y: TemporalStateOperator, kind: str, blocks: Sequence[int],
             times: Sequence[int]) -> TemporalStateOperator:
    """Keep the factors of the given (block, time) pairs and trace out the
    rest; block 0 is a single-block state's only block, or the ket block."""
    nt = y.n_times
    keep = [b * nt + nt - 1 - k for b in blocks for k in times]
    mat = partial_trace(y.matrix, list(y.factor_dims), keep)
    return TemporalStateOperator(kind, tuple(y.dims[k] for k in times), mat, tol=y.tol)


def reduce_state(y: TemporalStateOperator, keep_times: Sequence[int]) -> TemporalStateOperator:
    """Partial-trace out entire time slots (doubled: ket and bra leg jointly)."""
    times = sorted(set(int(t) for t in keep_times))
    if not times:
        raise ValidationError("reduce_state needs at least one kept time")
    if times[0] < 0 or times[-1] >= y.n_times:
        raise ValidationError(f"keep_times {times} out of range")
    return _reduced(y, y.kind, range(1 + y.doubled), times)


def trace_ket_block(y: TemporalStateOperator) -> TemporalStateOperator:
    """Trace a doubled state over its ket block; bra labels survive, so the
    result is the right-handed single-block state."""
    if not y.doubled:
        raise ValidationError(f"{y.kind} has no ket block")
    return _reduced(y, "kd_right", [1], range(y.n_times))


def trace_bra_block(y: TemporalStateOperator) -> TemporalStateOperator:
    if not y.doubled:
        raise ValidationError(f"{y.kind} has no bra block")
    return _reduced(y, "kd_left", [0], range(y.n_times))

"""Correlator tensors and temporal state operators.

A multi-time process can be packed into a single operator on the tensor
product of its time slots: either by folding channel Jamiolkowski operators
onto the initial state with the star product (the Kirkwood-Dirac state), by
taking the Hermitian part of that (the Margenau-Hill state), or by a nested
Jordan-product recursion (the pseudo-density operator). All of them are
unit-trace; traces against products of time-local operators reproduce the
corresponding distribution or correlator.

Factor ordering inside a state matrix is latest time first; doubled states
carry the full ket block of factors first, then the bra block. Time indices
exposed through the API stay ascending.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import jamiolkowski
from .linops import ValidationError, as_matrix, dagger, kron_chain, max_abs, partial_trace
from .measurements import HSBasis, hs_basis, spectral_measurement
from .quasiprob import (
    MultiTimeProcess,
    _insertions,
    _ket_bra_order,
    _projectors,
    _superops,
    _sweep,
)

CORRELATOR_KINDS = ("right", "left", "doubled", "mh", "lvn")
STATE_KINDS = ("kd_right", "kd_left", "kd_doubled", "mh", "mh_doubled", "pdo")
HERMITIAN_STATE_KINDS = ("mh", "mh_doubled", "pdo")


@dataclass(frozen=True)
class CorrelatorTensor:
    """Expectation tensor T over Hilbert-Schmidt basis choices, one axis per
    time slot (doubled kinds: ket block then bra block)."""

    kind: str
    bases: tuple[HSBasis, ...]
    values: np.ndarray
    ket_axes: int = 0

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
        if abs(top - 1.0) > 1e-10:
            raise ValidationError(f"identity correlator is {top}, not 1")
        if self.kind in ("mh", "lvn"):
            if float(np.max(np.abs(self.values.imag))) > 1e-12:
                raise ValidationError(f"{self.kind} correlators must be real")

    @property
    def time_dims(self) -> tuple[int, ...]:
        block = self.bases[: self.ket_axes] if self.ket_axes else self.bases
        return tuple(b.dim for b in block)


@dataclass(frozen=True)
class TemporalStateOperator:
    """Unit-trace operator over the time slots; ``dims`` is ascending by time
    while matrix factors run latest-first (doubled: ket block, then bra)."""

    kind: str
    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        if self.kind not in STATE_KINDS:
            raise ValidationError(f"unknown state kind {self.kind!r}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        m = as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        d = int(np.prod(self.dims))
        if self.doubled:
            d *= d
        if m.shape != (d, d):
            raise ValidationError(f"state matrix is {m.shape}, dims imply {(d, d)}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-10:
            raise ValidationError(f"state trace is {tr}, not 1")
        if self.kind in HERMITIAN_STATE_KINDS and max_abs(m - dagger(m)) > 1e-10:
            raise ValidationError(f"{self.kind} state must be Hermitian")

    @property
    def doubled(self) -> bool:
        return self.kind in ("kd_doubled", "mh_doubled")

    @property
    def n_times(self) -> int:
        return len(self.dims)

    @property
    def factor_dims(self) -> tuple[int, ...]:
        """Per-factor dims in matrix order (latest time first)."""
        rev = tuple(reversed(self.dims))
        return rev + rev if self.doubled else rev

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
        maps = [np.stack([np.tensordot([o.value for o in m.outcomes],
                                       _insertions("lvn", _projectors(m)), 1) for m in row])
                for row in meas]
    else:
        maps = [_insertions("right" if kind == "mh" else kind, np.stack(b.ops)) for b in bases]
    values = _sweep(p.rho0, _superops(p.channels), maps)
    if kind == "doubled":
        values = _ket_bra_order(values, [(len(b.ops),) * 2 for b in bases])
        return CorrelatorTensor("doubled", bases + bases, values, ket_axes=p.n_times)
    values = values.reshape(tuple(len(b.ops) for b in bases))
    if kind == "mh":
        values = values.real.astype(np.complex128)
    return CorrelatorTensor(kind, bases, values)


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
    return TemporalStateOperator(_STATE_FROM_CORRELATOR[t.kind], t.time_dims, mat)


def star(a: np.ndarray, b: np.ndarray, shared_dim: int) -> np.ndarray:
    """Link product over a shared factor: a on X⊗S, b on S⊗Y gives
    (a ⊗ I_Y)(I_X ⊗ b) on X⊗S⊗Y."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] % shared_dim or b.shape[0] % shared_dim:
        raise ValidationError("shared_dim does not divide the factors")
    x = a.shape[0] // shared_dim
    y = b.shape[0] // shared_dim
    return np.kron(a, np.eye(y)) @ np.kron(np.eye(x), b)


def kd_state_recursive(p: MultiTimeProcess, kind: str = "kd_right") -> TemporalStateOperator:
    """Fold the chain's Jamiolkowski operators onto ρ with the star product."""
    y = p.rho0
    for c in p.channels:
        y = star(jamiolkowski(c), y, c.d_in)
    if kind == "kd_left":
        y = dagger(y)
    elif kind != "kd_right":
        raise ValidationError(f"kd_state_recursive builds kd_right/kd_left, not {kind!r}")
    return TemporalStateOperator(kind, p.dims, y)


def mh_state(p: MultiTimeProcess) -> TemporalStateOperator:
    y = kd_state_recursive(p).matrix
    return TemporalStateOperator("mh", p.dims, (y + dagger(y)) / 2)


def pdo(p: MultiTimeProcess) -> TemporalStateOperator:
    """Nested Jordan products of Jamiolkowski operators onto ρ.

    Coincides with the Margenau-Hill state at two times; from three times on
    the nesting order matters and the two drift apart.
    """
    y = p.rho0
    pad = 1
    for c in p.channels:
        j = np.kron(jamiolkowski(c), np.eye(pad))
        z = np.kron(np.eye(c.d_out), y)
        y = (j @ z + z @ j) / 2
        pad *= c.d_in
    return TemporalStateOperator("pdo", p.dims, y)


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
    arguments). Doubled states take separate ket and bra operator lists."""
    factors = _factors_for(y, projectors, "ket")
    if y.doubled:
        if bra_projectors is None:
            raise ValidationError("doubled state needs bra_projectors")
        factors = factors + _factors_for(y, bra_projectors, "bra")
    elif bra_projectors is not None:
        raise ValidationError(f"{y.kind} state takes a single operator list")
    return complex(np.trace(y.matrix @ kron_chain(factors)))


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
    return TemporalStateOperator(y.kind, new_dims, mat)


def trace_ket_block(y: TemporalStateOperator) -> TemporalStateOperator:
    """Trace a doubled state over its ket block; bra labels survive, so the
    result is the right-handed single-block state."""
    if not y.doubled:
        raise ValidationError(f"{y.kind} has no ket block")
    nt = y.n_times
    mat = partial_trace(y.matrix, list(y.factor_dims), list(range(nt, 2 * nt)))
    kind = "kd_right" if y.kind == "kd_doubled" else "mh"
    return TemporalStateOperator(kind, y.dims, mat)


def trace_bra_block(y: TemporalStateOperator) -> TemporalStateOperator:
    if not y.doubled:
        raise ValidationError(f"{y.kind} has no bra block")
    nt = y.n_times
    mat = partial_trace(y.matrix, list(y.factor_dims), list(range(nt)))
    kind = "kd_left" if y.kind == "kd_doubled" else "mh"
    return TemporalStateOperator(kind, y.dims, mat)

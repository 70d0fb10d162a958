"""Brute-force reference paths for distributions, correlators and temporal states.

Every entry is computed from scratch: distributions by explicitly assembling
the back-evolved joint operator for each outcome tuple and tracing it against
the initial state; correlators by measuring each basis element projectively
and taking value-weighted sums of those distributions; states by exhaustively
summing direct-trace correlators over a Hilbert-Schmidt basis with plain
nested kron loops. Nothing here shares code with the sweep it is used to
check, beyond the shared dense-matrix kernel and the result containers.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .linops import ValidationError, dagger
from .measurements import ProjectiveMeasurement, hs_basis, spectral_measurement
from .quasiprob import MultiTimeProcess, QuasiDistribution
from .tomography import CORRELATOR_KINDS, CorrelatorTensor, TemporalStateOperator

_KD_KINDS = ("kd_right", "kd_left", "kd_doubled", "mh")
_STATE_KINDS = ("right", "left", "doubled", "mh", "lvn")
_STATE_NAME = {"right": "kd_right", "left": "kd_left", "doubled": "kd_doubled",
               "mh": "mh", "lvn": "pdo"}


def _back(c, a: np.ndarray) -> np.ndarray:
    return sum(dagger(k) @ a @ k for k in c.kraus)


def _fwd(c, x: np.ndarray) -> np.ndarray:
    return sum(k @ x @ dagger(k) for k in c.kraus)


def oracle_kd(p: MultiTimeProcess, s: Sequence[ProjectiveMeasurement],
              kind: str = "kd_right",
              bra: Sequence[ProjectiveMeasurement] | None = None) -> QuasiDistribution:
    """Entrywise evaluation through explicit joint operators at t_0."""
    if kind not in _KD_KINDS:
        raise ValidationError(f"oracle_kd kind must be one of {_KD_KINDS}, got {kind!r}")
    if any(c.d_in != c.d_out for c in p.channels):
        raise ValidationError("oracle_kd needs square channels")
    if len(s) != p.n_times:
        raise ValidationError(f"schedule has {len(s)} entries for {p.n_times} times")
    n = p.n_steps

    if kind == "kd_doubled":
        if bra is None:
            raise ValidationError("doubled oracle needs a bra schedule")
        if len(bra) != p.n_times:
            raise ValidationError(f"bra schedule has {len(bra)} entries for {p.n_times} times")
        kshape = tuple(len(m.outcomes) for m in s)
        bshape = tuple(len(m.outcomes) for m in bra)
        values = np.zeros(kshape + bshape, dtype=np.complex128)
        for kidx in itertools.product(*(range(x) for x in kshape)):
            for bidx in itertools.product(*(range(x) for x in bshape)):
                a = bra[n].outcomes[bidx[n]].projector @ s[n].outcomes[kidx[n]].projector
                for k in range(n, 0, -1):
                    a = _back(p.channels[k - 1], a)
                    a = bra[k - 1].outcomes[bidx[k - 1]].projector @ a \
                        @ s[k - 1].outcomes[kidx[k - 1]].projector
                values[kidx + bidx] = np.trace(a @ p.rho0)
        axes = tuple(tuple(m.outcomes) for m in s) + tuple(tuple(m.outcomes) for m in bra)
        return QuasiDistribution("kd_doubled", axes, values, ket_axes=p.n_times, tol=p.tol)

    shape = tuple(len(m.outcomes) for m in s)
    values = np.zeros(shape, dtype=np.complex128)
    for idx in itertools.product(*(range(x) for x in shape)):
        a = s[n].outcomes[idx[n]].projector
        for k in range(n, 0, -1):
            a = _back(p.channels[k - 1], a)
            proj = s[k - 1].outcomes[idx[k - 1]].projector
            a = proj @ a if kind in ("kd_right", "mh") else a @ proj
        values[idx] = np.trace(a @ p.rho0)
    if kind == "mh":
        values = values.real.astype(np.complex128)
    return QuasiDistribution(kind, tuple(tuple(m.outcomes) for m in s), values, tol=p.tol)


def _value_weighted(values: np.ndarray, sched: Sequence[ProjectiveMeasurement]) -> complex:
    """Σ over outcome tuples of Q·Π_k b_k, the axes following ``sched``."""
    for m in sched:
        values = np.tensordot(values, np.array([o.value for o in m.outcomes]), axes=([0], [0]))
    return complex(values)


def oracle_correlators(p: MultiTimeProcess, kind: str = "right") -> CorrelatorTensor:
    """Correlator tensor over Hilbert-Schmidt bases from oracle distributions.

    Each basis element is measured through its spectral decomposition, and
    each entry is the value-weighted sum of the ``oracle_kd`` distribution of
    that schedule (doubled: of every ket and bra schedule pair). lvn entries
    weight the diagonal of the doubled oracle with equal ket and bra schedules.
    """
    if kind not in CORRELATOR_KINDS:
        raise ValidationError(f"oracle_correlators kind must be one of {CORRELATOR_KINDS}, "
                              f"got {kind!r}")
    bases = tuple(hs_basis(d) for d in p.dims)
    meas = [[spectral_measurement(op) for op in b.ops] for b in bases]
    shape = tuple(len(b.ops) for b in bases)
    ranges = [range(x) for x in shape]
    nt = p.n_times

    def sched(idx):
        return [meas[k][i] for k, i in enumerate(idx)]

    if kind == "doubled":
        values = np.zeros(shape + shape, dtype=np.complex128)
        for kidx in itertools.product(*ranges):
            for bidx in itertools.product(*ranges):
                ket, bra = sched(kidx), sched(bidx)
                q = oracle_kd(p, ket, "kd_doubled", bra=bra).values
                values[kidx + bidx] = _value_weighted(q, ket + bra)
        return CorrelatorTensor("doubled", bases + bases, values, ket_axes=nt, tol=p.tol)

    values = np.zeros(shape, dtype=np.complex128)
    for idx in itertools.product(*ranges):
        s = sched(idx)
        if kind == "lvn":
            q = oracle_kd(p, s, "kd_doubled", bra=s).values
            outcomes = q.shape[:nt]
            side = int(np.prod(outcomes))
            q = q.reshape(side, side).diagonal().reshape(outcomes)
        else:
            q = oracle_kd(p, s, {"right": "kd_right", "left": "kd_left", "mh": "mh"}[kind]).values
        values[idx] = _value_weighted(q, s)
    return CorrelatorTensor(kind, bases, values, tol=p.tol)


def _direct_correlator(p: MultiTimeProcess, ops: Sequence[np.ndarray], kind: str) -> complex:
    """One forward pass with basis-element insertions of the requested kind."""
    state = p.rho0
    n = p.n_steps
    for k in range(n + 1):
        if kind == "right" or kind == "mh":
            state = state @ ops[k]
        elif kind == "left":
            state = ops[k] @ state
        else:  # lvn: value-weighted collapse
            m = spectral_measurement(ops[k])
            state = sum(o.value * (o.projector @ state @ o.projector) for o in m.outcomes)
        if k < n:
            state = _fwd(p.channels[k], state)
    return complex(np.trace(state))


def _direct_correlator_doubled(p: MultiTimeProcess, ket_ops, bra_ops) -> complex:
    state = p.rho0
    n = p.n_steps
    for k in range(n + 1):
        state = ket_ops[k] @ state @ bra_ops[k]
        if k < n:
            state = _fwd(p.channels[k], state)
    return complex(np.trace(state))


def oracle_state(p: MultiTimeProcess, kind: str = "right") -> TemporalStateOperator:
    """Temporal state by exhaustive Bloch summation of direct correlators.

    ``kind`` uses the correlator vocabulary right/left/doubled/mh/lvn; the
    lvn reconstruction carries the pdo label (they coincide for qubit chains).
    """
    if kind not in _STATE_KINDS:
        raise ValidationError(f"oracle_state kind must be one of {_STATE_KINDS}, got {kind!r}")
    bases = [hs_basis(d) for d in p.dims]
    nt = p.n_times

    if kind == "doubled":
        side = int(np.prod(p.dims)) ** 2
        acc = np.zeros((side, side), dtype=np.complex128)
        ranges = [range(len(b.ops)) for b in bases]
        for kidx in itertools.product(*ranges):
            for bidx in itertools.product(*ranges):
                t = _direct_correlator_doubled(
                    p, [bases[k].ops[i] for k, i in enumerate(kidx)],
                    [bases[k].ops[j] for k, j in enumerate(bidx)])
                if t == 0:
                    continue
                block = np.eye(1, dtype=np.complex128)
                for k in range(nt - 1, -1, -1):
                    block = np.kron(block, bases[k].ops[kidx[k]])
                for k in range(nt - 1, -1, -1):
                    block = np.kron(block, bases[k].ops[bidx[k]])
                acc += t * block
        acc /= float(np.prod(p.dims)) ** 2
        return TemporalStateOperator("kd_doubled", p.dims, acc, tol=p.tol)

    side = int(np.prod(p.dims))
    acc = np.zeros((side, side), dtype=np.complex128)
    for idx in itertools.product(*(range(len(b.ops)) for b in bases)):
        t = _direct_correlator(p, [bases[k].ops[i] for k, i in enumerate(idx)], kind)
        if kind in ("mh", "lvn"):
            t = t.real
        if t == 0:
            continue
        block = np.eye(1, dtype=np.complex128)
        for k in range(nt - 1, -1, -1):
            block = np.kron(block, bases[k].ops[idx[k]])
        acc += t * block
    acc /= float(np.prod(p.dims))
    return TemporalStateOperator(_STATE_NAME[kind], p.dims, acc, tol=p.tol)

"""Temporal quasiprobability distributions over multi-time processes.

A process is an initial state plus an ordered chain of CPTP steps. Measuring
a schedule of projective observables against it yields, depending on which
side of the state the projectors are inserted, the right/left/doubled
Kirkwood-Dirac distributions, their real (Margenau-Hill) parts, or the
ordinary sequential-collapse (Lueders-von Neumann) probabilities. The
nonclassicality of a distribution is the excess of Σ|Q| over 1.

Every kind is one forward sweep over the chain. Operators are row-major
vectorized, vec(x)[i·d + j] = x[i, j], so vec(A x B) = (A ⊗ Bᵀ)·vec(x) and a
step E(x) = Σ K x K† is its superoperator S = Σ K ⊗ K̄ (d_out² × d_in²).
Time t_k carries one stack of insertion maps per side the kind inserts on
(x ↦ Ax ket side, x ↦ xB bra side; lvn puts both in one map), with one map
per outcome, or per phase node of the characteristic function χ:

    kind          A (ket)     B (bra)     stacks per time
    kd_right      I           Π_b         one
    kd_left       Π_a         I           one
    kd_doubled    Π_a         Π'_b        two: ket, then bra
    lvn           Π_b         Π_b         one, both sides per map
    χ right       I           e^{−iB u}   one, a map per phase node u
    χ left        e^{+iA v}   I           one, a map per phase node v
    χ doubled     e^{+iA v}   e^{−iB u}   two: v nodes, then u nodes

(correlator tomography reuses the sweep with Hilbert-Schmidt basis elements
in place of projectors, and the temporal states with matrix units, the pdo
inserting x ↦ (Ex + xE)/2; `charfunc` sums a measurement's projector maps with
weights e^{∓itb} into the phase-gate rows). `_KIND_SIDES` is this table, and
`_insertions` the one resolver of every pass's insertions. The kernel pairs two
stacks into the m_ket·m_bra maps x ↦ AxB, ket index major. The live batch holds one row
vec(x) per outcome prefix and advances by one GEMM per step against
S_k·maps_k. The final trace is folded into the last maps (w = vec(I)ᵀ·map),
so the largest live array has (entries / m_n)·d² complex values: 6.4 MB at
10⁵ entries and d = 4. The maps of one step hold m·d⁴ complex values, small
for d ≤ 4 but 16 MB at d = m = 16. The backward sweep applies the same maps
from w toward t_0 and yields the joint operators M with Tr[M ρ] = Q behind
`joint_ops` and `classicality_witness`. The witness runs it once, with the
identity at t_0, and reads the back-evolved projectors of each later time off
that stack as marginals over the other later times: Σ_b Π_b = I, and the
adjoint of a trace-preserving step is unital. Its commutators come from
stack-wide GEMMs, every product a_x·b_y of two operator stacks in one call,
and its spectral norms from one batched Hermitian eigensolve of the Gram
matrices C†C, so no step dispatches per d×d matrix.

No pass rebuilds an operator that depends on one input object alone: each
`QuantumChannel` builds its superoperator once (`superop`), each
`MultiTimeProcess` its `dims`, and each owner of an insertion stack, of the one
type `measurements._Insertions`, its maps and their trace rows, which a
one-sided pass whose last maps they are reads its final trace off. The owners
are the measurements, the bases, and the matrix units and the identity of each
dimension, one shared owner each. The objects hold read-only copies of the
arrays they were given, so a cached operator cannot go stale. vec(I) of each
dimension and the witness's layout for each tuple of outcome counts are built
once per process, and a one-sided kernel result is only reshaped. Only the
paired maps of two-sided kinds and their trace rows are built per call, inside
the kernel, once per distinct pair; so are χ's phase-weighted maps.
`joint_ops` hands back the backward pass's one array behind a Mapping
(`OperatorTable`), with no object per outcome tuple.

Axis convention: both kernels give axis i to time t_i (ascending order);
two-sided kinds carry the full ket block first, then the bra block. Printed,
paper-style tables reverse to latest-time-first; that happens only at the
presentation layer.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache
from typing import Hashable, Sequence

import numpy as np

from .channels import (
    Instrument,
    QuantumChannel,
    apply_channel,
    check_density,
    compose,
    kraus_superop,
    tensor_channels,
    validate_cptp,
)
from .linops import (ValidationError, _complex128, _hand, _in_field, _kept, _require, _trace_rows,
                     _vec_identity, as_matrix, dagger, frozen_matrix, max_abs, readonly)
from .measurements import (
    Outcome,
    ProjectiveMeasurement,
    _identity,
    product_measurement,
    spectral_measurement,
)

KINDS = ("kd_right", "kd_left", "kd_doubled", "mh", "mh_doubled", "lvn")
DOUBLED_KINDS = ("kd_doubled", "mh_doubled")


@dataclass(frozen=True, eq=False)
class MultiTimeProcess:
    """ρ at t_0 plus the CPTP steps E_{t_1←t_0}, ..., E_{t_n←t_{n-1}}, and
    ``dims``, the dimension at each time. A refusal of the state has the
    `field` ("rho0",), one of step i ("channels", i)."""

    rho0: np.ndarray
    channels: tuple[QuantumChannel, ...]
    tol: float = 1e-9
    dims: tuple[int, ...] = field(init=False, repr=False)

    def __init__(self, rho0, channels: Sequence[QuantumChannel] = (), tol: float = 1e-9):
        rho0 = _in_field(("rho0",), check_density, rho0, tol)
        channels = tuple(channels)
        dims = [rho0.shape[0]]
        for i, c in enumerate(channels):
            _in_field(("channels", i), _require, c.d_in == dims[-1],
                      f"channel {i} expects dim {c.d_in}, chain carries {dims[-1]}")
            rep = validate_cptp(c, tol)
            _in_field(("channels", i), _require, rep.trace_preserving,
                      f"channel {i} is not trace preserving, defect {rep.defect:.3e}")
            dims.append(c.d_out)
        object.__setattr__(self, "rho0", frozen_matrix(rho0))
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "dims", tuple(dims))

    @property
    def n_steps(self) -> int:
        return len(self.channels)

    @property
    def n_times(self) -> int:
        return len(self.channels) + 1

    def state_at(self, k: int) -> np.ndarray:
        """The physical state ρ_{t_k} obtained by running the chain forward."""
        if not 0 <= k < self.n_times:
            raise ValidationError(f"time index {k} out of range")
        rho = self.rho0
        for c in self.channels[:k]:
            rho = apply_channel(c, rho)
        return rho


def sub_process(p: MultiTimeProcess, times: Sequence[int]) -> MultiTimeProcess:
    """Restriction of the process to a subset of its times.

    The first kept time contributes the forward-evolved state there; channels
    between consecutive kept times are composed.
    """
    times = sorted(set(int(t) for t in times))
    if not times:
        raise ValidationError("sub_process needs at least one time")
    if times[0] < 0 or times[-1] >= p.n_times:
        raise ValidationError(f"times {times} out of range")
    rho = p.state_at(times[0])
    chain = []
    for a, b in zip(times, times[1:]):
        c = p.channels[a]
        for k in range(a + 1, b):
            c = compose(p.channels[k], c)
        chain.append(c)
    return MultiTimeProcess(rho, chain, tol=p.tol)


def tensor_process(p: MultiTimeProcess, q: MultiTimeProcess) -> MultiTimeProcess:
    """Two processes run in parallel on a tensor-product system."""
    if p.n_steps != q.n_steps:
        raise ValidationError("tensor_process needs equal step counts")
    return MultiTimeProcess(
        np.kron(p.rho0, q.rho0),
        [tensor_channels(a, b) for a, b in zip(p.channels, q.channels)],
        tol=max(p.tol, q.tol),
    )


def tensor_schedule(s1: Sequence[ProjectiveMeasurement], s2: Sequence[ProjectiveMeasurement],
                    tol: float = 1e-9) -> list[ProjectiveMeasurement]:
    """Per-time product measurements of two schedules, each checked at ``tol``."""
    if len(s1) != len(s2):
        raise ValidationError("schedules differ in length")
    return [product_measurement([a, b], tol=tol) for a, b in zip(s1, s2)]


@dataclass(frozen=True, eq=False)
class QuasiDistribution:
    """Complex tensor over outcome tuples, normalized to total 1.

    ``axes[i]`` lists the outcomes along axis i; ``ket_axes`` counts the
    leading axes that form the ket block of a doubled kind (0 otherwise, and
    possibly 0 for a doubled kind whose block structure was reduced away).
    ``tol`` bounds the normalization defect and the lvn range; the imaginary
    residue of the real kinds is held to tol/100. Every check fails on NaN, so
    a non-finite entry anywhere is refused, and none warns. Producers pass the
    tolerance of the process they evaluate. ``values`` is read-only: the array
    a pass built is held as it is, a caller's array (read-only or not) as a
    copy (`_kept`). ``axes`` is a tuple of tuples: axes a pass built as one are
    held as they are, any others converted. The checks cost their arithmetic:
    one shape comparison and the ufunc reductions that ``ndarray.sum``, ``max``
    and ``min`` wrap, called directly, so they read the bits those methods do.
    """

    kind: str
    axes: tuple[tuple[Outcome, ...], ...]
    values: np.ndarray
    ket_axes: int = 0
    tol: float = 1e-10

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown distribution kind {self.kind!r}")
        axes = self.axes
        if type(axes) is not tuple or not all(type(ax) is tuple for ax in axes):
            axes = tuple(map(tuple, axes))
            object.__setattr__(self, "axes", axes)
        values = _kept(self.values)
        object.__setattr__(self, "values", values)
        if values.shape != tuple(map(len, axes)):
            raise ValidationError("values shape does not match axes")
        if not 0 <= self.ket_axes <= len(axes):
            raise ValidationError("ket_axes out of range")
        if self.kind not in DOUBLED_KINDS and self.ket_axes:
            raise ValidationError(f"{self.kind} carries no ket block")
        total, defect = _normalization(values)
        if not defect <= self.tol:
            raise ValidationError(f"distribution sums to {complex(total)}, not 1")
        if self.kind in ("mh", "mh_doubled", "lvn"):
            if not float(np.maximum.reduce(np.abs(values.imag), None)) <= self.tol / 100:
                raise ValidationError(f"{self.kind} entries must be real")
        if self.kind == "lvn":
            re = values.real
            if not (np.minimum.reduce(re, None) >= -self.tol
                    and np.maximum.reduce(re, None) <= 1.0 + self.tol):
                raise ValidationError("lvn entries must lie in [0, 1]")

    def axis_labels(self, i: int) -> tuple[Hashable, ...]:
        return tuple(o.label for o in self.axes[i])

    def axis_values(self, i: int) -> np.ndarray:
        return np.array([o.value for o in self.axes[i]], dtype=float)

    def total(self) -> complex:
        return complex(self.values.sum())


@np.errstate(over="ignore", invalid="ignore")  # an overflowing sum is refused, silently
def _normalization(values: np.ndarray):
    """Σ values, the reduction ``values.sum()`` wraps, and its distance from 1: NaN or inf
    anywhere leaves both non-finite."""
    total = np.add.reduce(values, None)
    return total, abs(total - 1.0)


_DIM, _OUTCOMES = operator.attrgetter("dim"), operator.attrgetter("outcomes")


def _check_schedule(p: MultiTimeProcess, s: Sequence[ProjectiveMeasurement], name: str = "schedule"):
    """Refuse a schedule that misfits the process's dims, naming its first fault."""
    if tuple(map(_DIM, s)) == p.dims:
        return
    if len(s) != p.n_times:
        raise ValidationError(f"{name} has {len(s)} entries for {p.n_times} times")
    for k, (m, d) in enumerate(zip(s, p.dims)):
        if m.dim != d:
            raise ValidationError(f"{name}[{k}] acts on dim {m.dim}, process carries {d}")


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every product a_x·b_y of two (·, d, d) stacks as one GEMM, a
    (len a·d, len b·d) matrix with entry [(x, r), (y, s)] = (a_x·b_y)[r, s]."""
    d = a.shape[-1]
    return a.reshape(-1, d) @ b.transpose(1, 0, 2).reshape(d, -1)


def _paired(stacks) -> list[np.ndarray]:
    """One map stack per time: the single side's, or every ket·bra product of
    two sides, ket index major (ket maps x ↦ Ax and bra maps x ↦ xB commute);
    a (ket, bra) pair of stack objects that recurs is paired once."""
    if len(stacks) == 1:
        return list(stacks[0])
    pairs = {}
    for a, b in zip(*stacks):
        if (id(a), id(b)) not in pairs:
            pairs[id(a), id(b)] = (a[:, None] @ b[None]).reshape((-1,) + a.shape[1:])
    return [pairs[id(a), id(b)] for a, b in zip(*stacks)]


def _blocks(flat: np.ndarray, stacks) -> np.ndarray:
    """A kernel result, flat in the C order of the paired stacks, with one axis
    per time and side: ket block first, then bra block; trailing axes stay."""
    if len(stacks) == 1:  # one side: the C order is already one axis per time
        return flat.reshape(tuple(len(m) for m in stacks[0]) + flat.shape[1:])
    nb, nt = len(stacks), len(stacks[0])
    a = flat.reshape([len(m) for pair in zip(*stacks) for m in pair] + list(flat.shape[1:]))
    return a.transpose([nb * k + b for b in range(nb) for k in range(nt)] + list(range(nb * nt, a.ndim)))


def _sweep(p: MultiTimeProcess, *stacks: Sequence[np.ndarray],
           rows: np.ndarray | None = None) -> np.ndarray:
    """Forward kernel: the trace of every outcome tuple, one axis per time.
    ``stacks`` is one map stack per time, or two (ket side, then bra side);
    ``rows`` are the trace rows of the last maps where their owner built them
    once (`_insertions`), else None, and they are built here."""
    maps = _paired(stacks)
    x = p.rho0.reshape(1, -1)
    for c, m_k in zip(p.channels, maps):
        f = c.superop @ m_k
        m, d_out2, d_in2 = f.shape
        x = (x @ f.transpose(2, 0, 1).reshape(d_in2, m * d_out2)).reshape(-1, d_out2)
    rows = _trace_rows(maps[-1]) if rows is None else rows
    return _blocks((x @ rows.T).reshape(-1), stacks)


def _backward(p: MultiTimeProcess, *stacks: Sequence[np.ndarray],
              rows: np.ndarray | None = None) -> np.ndarray:
    """Backward kernel: joint operators M at t_0 with Tr[M ρ] equal to the
    forward trace, with the axes of `_sweep` followed by (d_0, d_0); ``rows``
    as `_sweep` takes them."""
    maps = _paired(stacks)
    r = _trace_rows(maps[-1]) if rows is None else rows
    for c, m_k in reversed(list(zip(p.channels, maps))):
        f = c.superop @ m_k
        r = (r[None] @ f).reshape(-1, f.shape[2])
    d = math.isqrt(r.shape[1])
    return _blocks(r.reshape(-1, d, d).transpose(0, 2, 1), stacks)


# the table above, as code, and the pdo's Jordan side: each kind's sides, ket side first, by the
# attribute of their maps on the owner of an insertion stack (`measurements._Insertions`)
_KIND_SIDES = {"kd_right": ("right_maps",), "kd_left": ("left_maps",), "lvn": ("lvn_maps",),
               "kd_doubled": ("left_maps", "right_maps"), "pdo": ("_jordan_maps",)}
_GET = {side: operator.attrgetter(side) for sides in _KIND_SIDES.values() for side in sides}


def _insertions(p: MultiTimeProcess, kind: str, s: Sequence, bra: Sequence | None = None,
                name: str | None = None):
    """The kernel's inputs for a kind that inserts the stacks of the owners ``s`` (two-sided:
    ``s`` ket side, ``bra`` bra side) at every time: one map stack per side; the trace rows
    of the last maps, which their owner built once, for one side, and None for two; and the
    owners, ket block first, that give the axes. A schedule that misfits the process is
    refused under ``name``, else "schedule" (two-sided: "ket schedule", "bra schedule")."""
    sides = _KIND_SIDES[kind]
    if len(sides) == 2 and bra is None:
        raise ValidationError(f"{kind} needs a bra schedule")
    names = (name, name) if name else ("schedule",) if len(sides) == 1 else ("ket schedule", "bra schedule")
    stacks, owners = [], ()
    for sched, side, label in zip((s, bra), sides, names):
        _check_schedule(p, sched, label)
        stacks.append(list(map(_GET[side], sched)))
        owners += tuple(sched)
    return stacks, s[-1]._rows(sides[0]) if len(sides) == 1 else None, owners


def _distribution(p: MultiTimeProcess, kind: str, s: Sequence[ProjectiveMeasurement],
                  bra: Sequence[ProjectiveMeasurement] | None = None) -> QuasiDistribution:
    stacks, rows, owners = _insertions(p, kind, s, bra)
    values = _sweep(p, *stacks, rows=rows)
    return QuasiDistribution(kind, tuple(map(_OUTCOMES, owners)), _hand(values),
                             ket_axes=len(owners) - p.n_times, tol=p.tol)


def kd_right(p: MultiTimeProcess, s: Sequence[ProjectiveMeasurement]) -> QuasiDistribution:
    """Projectors inserted on the bra side: Tr[E_n(...E_1(ρΠ_{b0})Π_{b1}...)Π_{bn}]."""
    return _distribution(p, "kd_right", s)


def kd_left(p: MultiTimeProcess, s: Sequence[ProjectiveMeasurement]) -> QuasiDistribution:
    """Projectors inserted on the ket side; the complex conjugate of kd_right."""
    return _distribution(p, "kd_left", s)


def kd_doubled(p: MultiTimeProcess, ket: Sequence[ProjectiveMeasurement],
               bra: Sequence[ProjectiveMeasurement]) -> QuasiDistribution:
    """Independent ket- and bra-side insertions at every time.

    Summing the ket block recovers kd_right of the bra schedule; summing the
    bra block recovers kd_left of the ket schedule; the diagonal (equal
    schedules and outcomes) is the sequential-collapse distribution.
    """
    return _distribution(p, "kd_doubled", ket, bra)


def lvn(p: MultiTimeProcess, s: Sequence[ProjectiveMeasurement]) -> QuasiDistribution:
    """Sequential collapse probabilities Tr[Π_{bn}E_n(...Π_{b0}ρΠ_{b0}...)Π_{bn}]."""
    return _distribution(p, "lvn", s)


def mh_from_kd(q: QuasiDistribution) -> QuasiDistribution:
    """Entrywise real part; the symmetrized (Margenau-Hill) distribution."""
    if q.kind not in ("kd_right", "kd_left", "kd_doubled"):
        raise ValidationError(f"mh_from_kd expects a kd kind, got {q.kind!r}")
    kind = "mh_doubled" if q.kind == "kd_doubled" else "mh"
    return QuasiDistribution(kind, q.axes, _hand(np.array(q.values.real, dtype=np.complex128)),
                             ket_axes=q.ket_axes, tol=q.tol)


def marginalize(q: QuasiDistribution, keep: Sequence[int]) -> QuasiDistribution:
    """Sum out every axis not in ``keep``; kind is preserved, and keeping every axis returns ``q``."""
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValidationError("marginalize needs a nonempty keep set")
    if keep[0] < 0 or keep[-1] >= len(q.axes):
        raise ValidationError(f"keep axes {keep} out of range")
    drop = tuple(i for i in range(len(q.axes)) if i not in keep)
    if not drop:
        return q
    axes = tuple(q.axes[i] for i in keep)
    ket_axes = sum(1 for i in keep if i < q.ket_axes)
    return QuasiDistribution(q.kind, axes, _hand(q.values.sum(axis=drop)), ket_axes=ket_axes, tol=q.tol)


def coarse_grain(q: QuasiDistribution, partition: Sequence[Sequence[tuple]]) -> QuasiDistribution:
    """Merge full outcome-index tuples into the cells of a partition.

    ``partition`` lists cells of index tuples (one index per axis); the cells
    must be disjoint and cover the whole outcome grid. The result is a
    single-axis distribution whose outcomes are the cell positions.
    """
    cells = [set(map(tuple, cell)) for cell in partition]
    seen: set = set()
    for cell in cells:
        if cell & seen:
            raise ValidationError("partition cells overlap")
        seen |= cell
    every = set(np.ndindex(q.values.shape))
    if seen != every:
        raise ValidationError("partition does not cover the outcome grid")
    values = np.array([sum(q.values[t] for t in sorted(cell)) for cell in cells],
                      dtype=np.complex128)
    axis = tuple(Outcome(value=float(i), projector=None, label=i) for i in range(len(cells)))
    return QuasiDistribution(q.kind, (axis,), _hand(values), tol=q.tol)


def nonclassicality(q: QuasiDistribution, variant: str = "linear") -> float:
    """Σ|Q| − 1 ("linear") or log Σ|Q| ("log"); zero iff Q is a probability table."""
    s = float(np.sum(np.abs(q.values)))
    if variant == "linear":
        return s - 1.0
    if variant == "log":
        return float(np.log(s))
    raise ValidationError(f"unknown nonclassicality variant {variant!r}")


class OperatorTable(Mapping):
    """A read-only Mapping from outcome-index tuples to the (d, d) operators of
    one (m_1, …, m_k, d, d) ``array``: ``table[idx]`` is the view
    ``array[idx]``, and the keys run in C order. No per-entry object is built
    until a key is read, and every value is read-only, as the array is."""

    def __init__(self, array: np.ndarray):
        self.array = readonly(array)
        self._shape = array.shape[:-2]
        self._rank = len(self._shape)

    def __getitem__(self, key) -> np.ndarray:
        try:  # a key holds one in-range, non-negative index per axis
            if type(key) is tuple and len(key) == self._rank and min(key) >= 0:
                op = self.array[key]
                if op.ndim == 2:
                    return op
        except (TypeError, ValueError, IndexError):
            pass
        raise KeyError(key)

    def __iter__(self):
        return itertools.product(*map(range, self._shape))

    def __len__(self) -> int:
        return math.prod(self._shape)


@dataclass(frozen=True, eq=False)
class JointMeasurementOperators:
    """Heisenberg-picture operators on H_{t0} whose traces against ρ give Q.

    ``ops`` maps each outcome-index tuple, one index per axis (the axes of
    the kind's distribution), to its operator; it is an `OperatorTable` over
    the one read-only (…, d, d) array of the backward pass, ``ops.array``.
    """

    kind: str
    axes: tuple[tuple[Outcome, ...], ...]
    ops: Mapping[tuple, np.ndarray]
    ket_axes: int = 0

    def matrix(self, idx: Sequence[int]) -> np.ndarray:
        return self.ops[tuple(idx)]


def joint_ops(p: MultiTimeProcess, s: Sequence[ProjectiveMeasurement], kind: str = "kd_right",
              bra: Sequence[ProjectiveMeasurement] | None = None) -> JointMeasurementOperators:
    """Back-evolve the schedule into joint operators at t_0.

    right: M = Π_{b0}·E_1†(Π_{b1}·E_2†(...E_n†(Π_{bn})));
    left:  the daggered products (ket-side insertions);
    doubled: two-sided, Π_{bk}·(...)·Π_{ak} at every step (pass ``bra``).
    Requires a square chain so all operators live on one space.
    """
    if any(c.d_in != c.d_out for c in p.channels):
        raise ValidationError("joint_ops needs square channels")
    if kind not in ("kd_right", "kd_left", "kd_doubled"):
        raise ValidationError(f"joint_ops kind must be kd_right/kd_left/kd_doubled, got {kind!r}")
    stacks, rows, owners = _insertions(p, kind, s, bra)
    d0 = p.dims[0]
    ops = _backward(p, *stacks, rows=rows)
    if max_abs(ops.sum(axis=tuple(range(ops.ndim - 2))) - _vec_identity(d0 * d0).reshape(d0, d0)) > p.tol:
        raise ValidationError("joint operators do not sum to the identity")
    return JointMeasurementOperators(kind, tuple(map(_OUTCOMES, owners)), OperatorTable(ops),
                                     ket_axes=len(owners) - p.n_times)


@cache
def _witness_layout(sizes: tuple[int, ...], unitary: bool):
    """The witness's single-time operators, laid out by outcome counts: the time
    of each (``time``), where each time's operators start (``start``), and the
    pairs (i, j) it compares in visiting order, none unless ``unitary``; all
    read-only."""
    time = np.repeat(np.arange(len(sizes)), sizes)
    i, j = np.nonzero(time[:, None] < time[None, :]) if unitary else (np.zeros(0, int),) * 2
    order = np.lexsort((j, i, time[j], time[i]))
    start = np.cumsum((0,) + sizes)  # time k's projectors sit at start[k] onwards
    return tuple(readonly(a) for a in (time, i[order], j[order], start))


@dataclass(frozen=True)
class WitnessReport:
    """Nonclassicality next to the commutator structure that licenses it."""

    nonclassicality: float
    max_commutator_norm: float
    worst_pair: tuple | None


def classicality_witness(p: MultiTimeProcess, s: Sequence[ProjectiveMeasurement]) -> WitnessReport:
    """Evaluate Σ|Q|−1 of kd_right and the largest commutator among the
    back-evolved measurement operators.

    Checks [M_{b_n..b_1}, Π_{b0}] over all outcome tuples; when every step is
    unitary, also all pairs of single-time back-evolved projectors. A step is
    unitary when it has one Kraus operator K, since the process holds
    max|K†K − I| to ``p.tol``. A strictly positive nonclassicality implies
    some pair fails to commute; the converse does not hold for a fixed
    initial state.

    ``worst_pair`` names the first pair, in visiting order, whose norm lies
    within 1e-12·max(1, largest) of the largest norm, so pairs tied up to
    rounding (for qubits [M, Π_0] = −[M, Π_1] exactly) resolve the same way
    every time. Visiting order: the later tuples (b_1, ..., b_n) ascending,
    each against the t_0 outcomes in schedule order; then, for unitary
    chains, the time pairs k < l ascending, each with the outcomes of t_k
    against those of t_l in schedule order.

    One backward sweep with the identity at t_0 gives the later joint
    operators M_b'; Q[b0, b'] = Tr[ρ Π_b0 M_b'] is checked by the
    `QuasiDistribution` it fills, as kd_right's is. On a unitary chain the
    single-time operator E_1†(...E_k†(Π_bk)) is the marginal of M over every
    later time but t_k, since Σ_b Π_b = I and each step's adjoint is unital.

    Every product of two operator stacks is one GEMM (`_products`): the
    [M_b', Π_b0] block is M·Π minus the transposed products Mᵀ·Πᵀ = (Π·M)ᵀ,
    subtracted into the buffer of the first; on unitary chains every
    single-time pair is read off one antisymmetrized table of products.
    Spectral norms are taken only where the Frobenius norm leaves room for
    the maximum: ‖C‖₂ ≤ ‖C‖_F, and the largest ‖C‖_F/√d bounds it from below.
    Each is √λ_max(C†C), from one batched `eigvalsh` over the candidates. On a
    (nearly) commuting chain, where every ‖C‖_F is below the 1e-12 tie band,
    every pair ties, so the first one is the worst and only the largest norm
    is solved for; when every commutator is zero, none is, and the norm is 0.
    """
    if any(c.d_in != c.d_out for c in p.channels):
        raise ValidationError("classicality_witness needs square channels")
    _check_schedule(p, s)  # the resolver below sees the identity in place of s[0]
    n, d, axes = p.n_steps, p.dims[0], tuple(map(_OUTCOMES, s))
    sizes = [len(ax) for ax in axes]
    stacks, rows, _ = _insertions(p, "kd_right", [_identity(d), *s[1:]])
    later = _backward(p, *stacks, rows=rows).reshape(-1, d, d)
    q = (p.rho0 @ s[0].projectors).reshape(sizes[0], -1) \
        @ later.transpose(0, 2, 1).reshape(len(later), -1).T
    value = nonclassicality(QuasiDistribution("kd_right", axes, _hand(q).reshape(sizes), tol=p.tol))
    del q  # the commutator tables below are the peak; Q is not held through them
    if n == 0:
        return WitnessReport(nonclassicality=value, max_commutator_norm=0.0, worst_pair=None)

    # [M_b', Π_b0] in visiting order, entry [b', r, b0, s]: the products M·Π,
    # minus Π·M read off the products of the transposes, (Π·M)ᵀ = Mᵀ·Πᵀ (the
    # Mᵀ stack is the backward sweep's own layout, so it is not copied); one
    # product table is live at a time
    nl, m0 = len(later), sizes[0]
    proj = s[0].projectors
    block = _products(later, proj)
    block4 = block.reshape(nl, d, m0, d)
    reverse = _products(later.transpose(0, 2, 1), proj.transpose(0, 2, 1))
    block4 -= reverse.reshape(nl, d, m0, d).transpose(0, 3, 2, 1)
    del reverse

    # unitary chains: the projectors of every later time back-evolved to t_0,
    # as marginals of the later joint operators, and every single-time pair,
    # projector i of t_k against j of t_l for k < l in visiting order, read
    # off one antisymmetrized table of products
    unitary = all(len(c.kraus) == 1 for c in p.channels)
    time, i, j, start = _witness_layout(tuple(sizes), unitary)
    pairs = np.zeros((0, d, d), dtype=np.complex128)
    if unitary:
        stack = later.reshape(sizes[1:] + [d, d])
        single = np.concatenate([proj] + [stack.sum(axis=tuple(a for a in range(n) if a != k))
                                          for k in range(n)])
        table = _products(single, single).reshape(len(single), d, len(single), d)
        pairs = (table - table.transpose(2, 1, 0, 3))[i, :, j]

    # Frobenius norms: sums of squares over the real and imaginary parts,
    # which einsum reads in place
    re_block = block.view(np.float64).reshape(nl, d, m0, 2 * d)
    re_pairs = pairs.view(np.float64)
    fro = np.sqrt(np.concatenate([np.einsum("xrys,xrys->xy", re_block, re_block).ravel(),
                                  np.einsum("kij,kij->k", re_pairs, re_pairs)]))
    top = float(fro.max())
    low = top / math.sqrt(d) * (1 - 1e-9)  # ≤ the largest spectral norm
    # when every norm lies below the 1e-12 tie band, every pair ties and the
    # first one in visiting order is the worst: only the largest norm is left
    # to find, among the candidates of the relative bound alone (none when
    # every commutator is zero)
    tied = top * (1 + 1e-9) < 1e-12
    band = 0.0 if tied else 1e-12 * max(1.0, low)
    need = np.flatnonzero(fro * (1 + 1e-9) >= low - band) if top > 0 else np.zeros(0, int)
    # spectral norms of the candidates, ‖C‖₂ = √λ_max(C†C). The block is freed
    # once they are gathered, and einsum forms C†C without a (K, d, d, d)
    # broadcast product
    inside = need[need < nl * m0]
    c = [block4[inside // m0, :, inside % m0], pairs[need[len(inside):] - nl * m0]]
    del block, block4, re_block
    c = np.concatenate(c)
    norms = np.full(len(fro), -np.inf)
    lam = np.linalg.eigvalsh(np.einsum("kra,krb->kab", c.conj(), c))[:, -1]
    norms[need] = np.sqrt(np.maximum(lam, 0.0))
    best = float(norms.max()) if top > 0 else 0.0
    pos = 0 if tied else int(np.argmax(norms >= best - 1e-12 * max(1.0, best)))

    def side(x):  # (times, labels) of single-time operator x
        k = int(time[x])
        return (k,), (s[k].outcomes[x - start[k]].label,)

    if pos < nl * m0:
        idx = np.unravel_index(pos // m0, sizes[1:])
        labels = tuple(m.outcomes[x].label for m, x in zip(s[1:], idx))
        pair = ((tuple(range(1, n + 1)), labels), side(pos % m0))
    else:
        pair = (side(i[pos - nl * m0]), side(j[pos - nl * m0]))
    return WitnessReport(nonclassicality=value, max_commutator_norm=best, worst_pair=pair)


def weak_value(a: np.ndarray, pre_state: np.ndarray, post_state: np.ndarray) -> complex:
    """⟨post|A|pre⟩ / ⟨post|pre⟩; refused for orthogonal selections, a non-finite entry or result."""
    a = as_matrix(a)
    pre = _complex128(np.asarray, pre_state).reshape(-1)
    post = _complex128(np.asarray, post_state).reshape(-1)
    if a.shape != (pre.size, pre.size) or post.size != pre.size:
        raise ValidationError(f"weak value: operator {a.shape}, pre-selection of {pre.size} and "
                              f"post-selection of {post.size} amplitudes disagree in dimension")
    _require(all(np.isfinite(x).all() for x in (a, pre, post)),
             "weak value: the operator and both states must be finite")
    overlap = complex(np.vdot(post, pre))
    if abs(overlap) <= 1e-12:
        raise ValidationError("weak value undefined: pre and post selections are orthogonal")
    value = complex(np.vdot(post, a @ pre)) / overlap
    _require(np.isfinite(value), "weak value: ⟨post|A|pre⟩ / ⟨post|pre⟩ is not finite")
    return value


def extended_kd(rho: np.ndarray, m: ProjectiveMeasurement, instrument: Instrument) -> QuasiDistribution:
    """Joint quasiprobability of a projective outcome and an instrument branch:
    Q(b, k) = Tr[M_k(ρ Π_b)], the bra-side insertion at a single time."""
    rho = check_density(rho, instrument.tol)
    if m.dim != rho.shape[0]:
        raise ValidationError("measurement dim does not match the state")
    if instrument.branches[0][1][0].shape[1] != rho.shape[0]:
        raise ValidationError("instrument input dim does not match the state")
    # Tr[M_k(x)] = vec(I)ᵀ·S_k·vec(x), for every vec(ρΠ_b) at once
    rows = _trace_rows(np.stack([kraus_superop(ops) for _, ops in instrument.branches]))
    values = _hand((rho @ m.projectors).reshape(len(m.outcomes), -1) @ rows.T)
    branch_axis = tuple(
        Outcome(value=float(k), projector=None, label=label)
        for k, (label, _) in enumerate(instrument.branches))
    return QuasiDistribution("kd_right", (tuple(m.outcomes), branch_axis), values,
                             tol=instrument.tol)


# ---------------------------------------------------------------------------
# seeded generators for test corpora


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _gaussian(seed, shape) -> np.ndarray:
    """Standard complex Gaussian entries, the real block drawn before the imaginary one."""
    rng = _rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def haar_unitary(d: int, seed=None) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian with phase fixing."""
    g = _gaussian(seed, (d, d))
    q, r = np.linalg.qr(g)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_density(d: int, seed=None) -> np.ndarray:
    g = _gaussian(seed, (d, d))
    rho = g @ dagger(g)
    return rho / np.trace(rho)


def random_pure_state(d: int, seed=None) -> np.ndarray:
    v = _gaussian(seed, d)
    return v / np.linalg.norm(v)


def random_hermitian(d: int, seed=None) -> np.ndarray:
    g = _gaussian(seed, (d, d))
    return (g + dagger(g)) / 2


def random_channel(d: int, seed=None, env_dim: int = 2) -> QuantumChannel:
    """Random CPTP step from a Haar isometry into system ⊗ environment."""
    g = _gaussian(seed, (d * env_dim, d))
    v, _ = np.linalg.qr(g)  # (d·env, d) isometry
    kraus = [v[x::env_dim, :] for x in range(env_dim)]
    return QuantumChannel(kraus)


def random_process(d: int, n_steps: int, seed=None, channel_kind: str = "unitary") -> MultiTimeProcess:
    """Seeded process: Haar-unitary steps, random-Kraus steps, or alternating."""
    rng = _rng(seed)
    rho = random_density(d, rng)
    chain = []
    for k in range(n_steps):
        if channel_kind == "unitary" or (channel_kind == "mixed" and k % 2 == 0):
            chain.append(QuantumChannel([haar_unitary(d, rng)]))
        elif channel_kind in ("cptp", "mixed"):
            chain.append(random_channel(d, rng))
        else:
            raise ValidationError(f"unknown channel_kind {channel_kind!r}")
    return MultiTimeProcess(rho, chain)


def random_schedule(dims: Sequence[int], seed=None) -> list[ProjectiveMeasurement]:
    """One random nondegenerate observable measurement per time step."""
    rng = _rng(seed)
    return [spectral_measurement(random_hermitian(d, rng)) for d in dims]

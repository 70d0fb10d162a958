"""Characteristic functions of temporal quasiprobabilities.

χ is the Fourier transform of a temporal distribution over its outcome
values: the process trace with phase gates e^{+iA_kv_k} (ket side) or
e^{−iB_ku_k} (bra side) where the distributions insert projectors. Phase
gates e^{∓iBu} = Σ_b e^{∓ibu}Π_b need only each time's measurement, which
`ObservableSchedule` holds as given. χ is thus one more choice of
insertions for the forward sweep of `quasiprob`, one phase-gate map per
distinct node of each time's axis: a grid that holds every combination of
its per-axis nodes, in any order, takes one sweep over their product, and
any other grid one sweep per point. χ inverts back to the distribution on a
suitable product grid, one axis solve at a time; the node analysis of the grid
is made once per `CharSamples`, and `char_fn` hands over the one it already
made. An ancilla that coherently switches between two gate sequences measures
χ as ⟨X⟩, ⟨Y⟩.

The interferometer keeps ancilla ⊗ system live: each step's environment is
attached just before its dilation unitary and traced out right after it, so
no live matrix is larger than 2·d·r_k on a side for r_k Kraus operators. Its
tensor products are written as blocks, never formed with `np.kron`: the
controlled gate is G₁ ⊕ G₂, a wall I₂⊗W is W ⊕ W, attaching the environment
writes ρ at every r_k-th row and column of a zero register, and tracing it
out is one reshape and trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .linops import ValidationError, _hand, _kept, as_matrix, readonly
from .measurements import Outcome, ProjectiveMeasurement, _spectral
from .quasiprob import _KIND_SIDES, MultiTimeProcess, QuasiDistribution, _insertions, _sweep

CHAR_KINDS = ("right", "left", "doubled")


@dataclass(frozen=True, eq=False)
class ObservableSchedule:
    """The projective measurements χ inserts per time, built once here: bra
    side (B_k, right-hand phases), ket side (A_k, left-hand phases), or both
    for the doubled kind. An observable Hermitian within ``tol`` becomes its
    `spectral_measurement` at ``tol`` (one past half the float range is
    refused). A `ProjectiveMeasurement` is kept as given, whatever the order
    of its values and whether any repeat: the phase gates sum its projectors."""

    ket: tuple[ProjectiveMeasurement, ...] | None = None
    bra: tuple[ProjectiveMeasurement, ...] | None = None
    tol: float = 1e-9

    def __post_init__(self):
        if self.ket is None and self.bra is None:
            raise ValidationError("observable schedule needs at least one side")
        sides = [(side, tuple(ops)) for side, ops in (("ket", self.ket), ("bra", self.bra))
                 if ops is not None]
        built = iter(_entry_measurements([(f"{side} observable {k}", o) for side, ops in sides
                                          for k, o in enumerate(ops)], self.tol))
        for side, ops in sides:
            object.__setattr__(self, side, tuple(next(built) for _ in ops))
        if self.ket is not None and self.bra is not None and len(self.ket) != len(self.bra):
            raise ValidationError("ket and bra sides differ in length")

    @property
    def n_times(self) -> int:
        return len(self.ket if self.ket is not None else self.bra)


def _entry_measurements(entries: Sequence[tuple[str, object]], tol: float) -> list[ProjectiveMeasurement]:
    """The measurement χ inserts for each (where, entry) pair, as `ObservableSchedule` states:
    the observables of one shape decomposed as one stack (`measurements._spectral`), Hermitian
    within ``tol``. A refusal is the first in entry order, and begins with its ``where``.
    The CLI builds the measurements of a spec's `observable` entries here."""
    try:
        out = [o if isinstance(o, ProjectiveMeasurement) else as_matrix(o) for _, o in entries]
        by_shape: dict[tuple, list[int]] = {}
        for i, o in enumerate(out):
            if not isinstance(o, ProjectiveMeasurement):
                by_shape.setdefault(o.shape, []).append(i)
        for idx in by_shape.values():
            built = _spectral(np.stack([out[i] for i in idx]), [entries[i][0] for i in idx], tol)
            for i, m in zip(idx, built):
                out[i] = m
        return out
    except (ValueError, TypeError):  # ValidationError among them: one entry at a time names the first
        if len(entries) == 1:
            raise
        return [_entry_measurements([e], tol)[0] for e in entries]


@dataclass(frozen=True, eq=False)
class CharSamples:
    """Finite χ values over finite phase points: read-only complex128 ``values``, held
    as ``QuasiDistribution`` holds its values, and the rows of a read-only (P, w)
    float64 copy ``grid`` (doubled points carry the ket v-block first, then the bra
    u-block). ``tol`` bounds |χ(0) − 1|."""

    kind: str
    grid: np.ndarray
    values: np.ndarray
    tol: float = 1e-10

    def __post_init__(self):
        if self.kind not in CHAR_KINDS:
            raise ValidationError(f"unknown characteristic kind {self.kind!r}")
        x = readonly(_grid_array(self.grid).copy())
        object.__setattr__(self, "grid", x)
        object.__setattr__(self, "values", readonly(_kept(self.values).reshape(-1)))
        if len(self.values) != len(x):
            raise ValidationError("one value per grid point required")
        if not np.isfinite(self.values).all():
            raise ValidationError("χ values must be finite")
        if not np.isfinite(x).all():
            raise ValidationError("grid phases must be finite")
        bad = ~x.any(axis=1) & (np.abs(self.values - 1.0) > self.tol)
        if bad.any():
            raise ValidationError(f"value at the zero point is {self.values[bad.argmax()]}, not 1")

    @cached_property
    def _nodes(self) -> tuple[list[np.ndarray], np.ndarray | None]:
        """`_grid_nodes` of the grid: worked out on first use, unless `char_fn`
        stored the analysis it had already made."""
        return _grid_nodes(self.grid)


def _grid_array(grid, width: int | None = None,
                message: str = "grid points differ in arity") -> np.ndarray:
    """The phase grid as a (P, w) float64 array. A grid numpy reads as a real
    numeric matrix converts at once; any other goes phase by phase through
    float(), so None and nested phases raise TypeError. Complex phases raise
    TypeError either way. The first point whose arity is not ``width``
    (default: the first point's) raises ``message``, formatted with it."""
    try:
        a = np.asarray(grid)
    except ValueError:  # ragged
        a = np.empty(0, dtype=object)
    if a.ndim == 2 and a.dtype.kind in "biuf":
        grid, widths = a.astype(np.float64, copy=False), a.shape[1:]
    else:
        grid = [tuple(pt) for pt in grid]
        if a.dtype.kind == "c" or any(np.iscomplexobj(t) for pt in grid for t in pt):
            raise TypeError("phases must be real")
        grid = [tuple(map(float, pt)) for pt in grid]
        widths = [len(pt) for pt in grid]
    width = (widths[0] if widths else 0) if width is None else width
    for w in widths:
        if w != width:
            raise ValidationError(message.format(w))
    return np.asarray(grid, dtype=np.float64).reshape(len(grid), width)


def _grid_nodes(x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray | None]:
    """The sorted distinct nodes of each axis of a (P, w) grid and, if the grid
    holds every combination of them (in any order, repeats allowed), each
    point's flat C-order index into their product; None otherwise."""
    if len(x) <= 1:  # each axis holds the one point's node, copied: x may be the caller's
        return list(x.T.copy()), np.zeros(len(x), dtype=np.intp)
    xs = np.sort(x, axis=0)
    first = np.concatenate([np.ones_like(xs[:1], dtype=bool), xs[1:] != xs[:-1]])
    nodes = [col[keep] for col, keep in zip(xs.T, first.T)]
    shape = tuple(map(len, nodes))
    if math.prod(shape) > len(x):  # some combination must be missing
        return nodes, None
    flat = np.ravel_multi_index([np.searchsorted(nd, col) for nd, col in zip(nodes, x.T)], shape)
    return nodes, flat if np.bincount(flat, minlength=math.prod(shape)).all() else None


def _axis_signs(kind: str, ket_axes: int, n_axes: int) -> list[int]:
    """Per χ axis, +1 on the ket side (e^{+iav}) and −1 on the bra side (e^{−ibu}):
    the first ``ket_axes`` axes, and every axis of kind left, are ket-side."""
    return [+1 if i < ket_axes or kind == "left" else -1 for i in range(n_axes)]


def _kind_inputs(p: MultiTimeProcess, obs: ObservableSchedule, kind: str, grid):
    """One (measurements, maps, sign) group per side of the kind's KD distribution, ket side
    first, with the maps and schedule checks `_insertions` gives that distribution and the
    sign of the side's Fourier phases; and the grid as a (P, w) array at the kind's width."""
    if kind not in CHAR_KINDS:
        raise ValidationError(f"unknown characteristic kind {kind!r}")
    if any(c.d_in != c.d_out for c in p.channels):
        raise ValidationError("characteristic functions need square step dims")
    # the ket side (left maps, x ↦ a·x) takes A's phases e^{+iav}, the bra side (right maps) B's e^{−ibu}
    sides = [("ket", +1) if side == "left_maps" else ("bra", -1) for side in _KIND_SIDES["kd_" + kind]]
    meas = [getattr(obs, side) for side, _ in sides]
    if None in meas:
        raise ValidationError(f"{kind} characteristic needs {sides[meas.index(None)][0]} observables")
    stacks, _, owners = _insertions(p, "kd_" + kind, *meas)
    groups = [(ms, st, sign) for ms, st, (_, sign) in zip(meas, stacks, sides)]
    return groups, _grid_array(grid, len(owners), f"{kind} point needs {len(owners)} phases, got {{}}")


def _phases(meas: ProjectiveMeasurement, sign: int, ts, stack: np.ndarray) -> np.ndarray:
    """Σ_b e^{sign·i·t·b} stack_b, one per t: the phase gates e^{sign·i·t·B} from
    the projectors, or their insertion maps from the maps of the projectors."""
    values = np.array([o.value for o in meas.outcomes])
    return np.einsum("pm,m...->p...", np.exp(sign * 1j * np.outer(ts, values)), stack)


def _char_sweep(p: MultiTimeProcess, groups, nodes) -> np.ndarray:
    """χ on the product of the per-axis phase nodes, flat in C order over the axes, from
    one sweep whose maps at each time are phase-weighted sums of cached projector maps."""
    axis = iter(nodes)
    return _sweep(p, *[[_phases(m, sign, next(axis), maps) for m, maps in zip(ms, stack)]
                       for ms, stack, sign in groups]).reshape(-1)


def char_fn(p: MultiTimeProcess, obs: ObservableSchedule, grid: Sequence[Sequence[float]],
            kind: str = "right") -> CharSamples:
    """Evaluate χ on a list of phase points.

    right: Tr[E_n(...E_1(ρ e^{−iB₀u₀}) e^{−iB₁u₁}...) e^{−iB_nu_n}];
    left inserts e^{+iA_kv_k} on the ket side; doubled does both.

    The phase gates are insertion maps of the shared forward sweep. A grid
    holding every combination of its per-axis nodes, in any order, takes one
    sweep over the node product; any other grid takes one sweep per point.
    """
    groups, x = _kind_inputs(p, obs, kind, grid)
    nodes, flat = _grid_nodes(x)
    values = (_char_sweep(p, groups, nodes)[flat] if flat is not None else
              np.array([_char_sweep(p, groups, pt[:, None])[0] for pt in x]))
    samples = CharSamples(kind, x, _hand(values), tol=p.tol)
    samples.__dict__["_nodes"] = nodes, flat  # the grid is a copy of x: same analysis
    return samples


def char_from_distribution(q: QuasiDistribution, grid: Sequence[Sequence[float]]) -> CharSamples:
    """Fourier sum Σ Q·e^{+i a·v − i b·u} over the distribution's outcome values."""
    kind = q.kind.removeprefix("kd_")
    if kind not in CHAR_KINDS:
        raise ValidationError(f"no characteristic kind for {q.kind!r}")
    signs = _axis_signs(kind, q.ket_axes, len(q.axes))
    vals = [q.axis_values(i) for i in range(len(q.axes))]
    points = _grid_array(grid, len(q.axes), f"point needs {len(q.axes)} phases, got {{}}")
    out = []
    for pt in points:
        t = q.values
        for s, bv, x in zip(signs, vals, pt):
            t = np.tensordot(t, np.exp(s * 1j * bv * x), axes=([0], [0]))
        out.append(complex(t))
    return CharSamples(kind, points, _hand(np.array(out, dtype=np.complex128)), tol=q.tol)


def default_nodes(spectrum: Sequence[float]) -> np.ndarray:
    """m equispaced phase nodes u_j = j·π/(1 + max|b−b'|) for m distinct outcomes."""
    vals = sorted(set(float(b) for b in spectrum))
    if not vals:
        raise ValidationError("default_nodes: the spectrum is empty")
    return np.pi / (1.0 + (vals[-1] - vals[0])) * np.arange(len(vals))  # [0.] for one outcome


def product_grid(per_axis_nodes: Sequence[Sequence[float]]) -> np.ndarray:
    """Every combination of the per-axis nodes as the rows of a read-only (P, w)
    float64 array, in C order over the axes (the last varies fastest)."""
    nodes = [np.array([float(x) for x in nd]) for nd in per_axis_nodes]
    count = math.prod(map(len, nodes))  # one point of no phases for no axes
    columns = np.array(np.meshgrid(*nodes, indexing="ij")).reshape(len(nodes), count)
    return readonly(np.ascontiguousarray(columns.T))


def invert_char(samples: CharSamples, spectra: Sequence[Sequence[float]]) -> QuasiDistribution:
    """Recover the distribution from χ on a full product grid.

    Each spectrum must hold at least one outcome value, each finite. Per axis
    the grid must hold exactly as many distinct nodes as there are outcomes,
    and each node combination exactly once, in any order; each axis
    contributes a Vandermonde-type factor [e^{∓iu_j·b}] that is solved
    independently. The node analysis is the one the samples hold, so the
    output of `char_fn` is not analysed again. Every factor's condition
    number (np.linalg.cond, one batched SVD per axis size) is taken before
    any solve, and the first axis above 1e6 is refused. Each solve acts on
    the leading axis of the tensor and leaves it last, so one solve per axis
    brings the axes back into order without moving any axis to the front.
    """
    axes = len(spectra)
    width = samples.grid.shape[1]
    if width != axes:
        raise ValidationError(f"grid points carry {width} phases for {axes} spectra")
    spect = [sorted(set(float(b) for b in s)) for s in spectra]
    for i, sp in enumerate(spect):
        if not sp:
            raise ValidationError(f"spectrum {i} is empty")
        if not np.isfinite(sp).all():
            raise ValidationError(f"spectrum {i} holds a non-finite outcome value")
    nodes, flat = samples._nodes
    shape = tuple(len(sp) for sp in spect)
    for i, (nd, sp) in enumerate(zip(nodes, spect)):
        if len(nd) != len(sp):
            raise ValidationError(f"axis {i} has {len(nd)} grid nodes for {len(sp)} outcomes")
    if flat is None or len(flat) != math.prod(shape):
        raise ValidationError("grid is not a full per-axis product")

    ket_axes = axes // 2 if samples.kind == "doubled" else 0
    factors = [np.exp(sign * 1j * np.outer(nd, sp)) for nd, sp, sign in
               zip(nodes, spect, _axis_signs(samples.kind, ket_axes, axes))]
    conds = {}
    for m in dict.fromkeys(shape):  # one batched SVD per axis size
        group = [i for i in range(axes) if shape[i] == m]
        conds.update(zip(group, np.linalg.cond(np.stack([factors[i] for i in group]))))
    for i in range(axes):
        if conds[i] > 1e6:
            raise ValidationError(f"axis {i} transform is ill-conditioned, cond {conds[i]:.3e}")
    tensor = samples.values[np.argsort(flat)]
    for f, m in zip(factors, shape):  # solve the leading axis, which then moves last
        tensor = np.linalg.solve(f, tensor.reshape(m, -1)).T

    out_axes = tuple(tuple(Outcome(value=b, projector=None, label=b) for b in sp) for sp in spect)
    return QuasiDistribution("kd_" + samples.kind, out_axes, _hand(tensor.reshape(shape)),
                             ket_axes=ket_axes, tol=samples.tol)


@dataclass(frozen=True)
class CircuitResult:
    """Ancilla interferometer output at one phase point."""

    kind: str
    point: tuple[float, ...]
    exact: complex
    estimate: complex | None
    std_error: float | None
    deviation: float | None
    shots: int | None
    seed: int | None
    metadata: dict


# The ancilla starts in |+⟩ and selects G₁ on |0⟩, G₂ on |1⟩, so
# ⟨X⟩ − i⟨Y⟩ = 2·ρ_anc[0,1] = Tr[G₁ρG₂†]: readout sign −1, and a phase gate
# e^{+iBu} in G₂ enters χ as the bra-side e^{−iBu} through G₂†.
_GATE_PHASE_SIGN = +1
_READOUT_SIGN = -1


def _ancilla_xy(p: MultiTimeProcess, groups, point: np.ndarray) -> tuple[float, float, dict]:
    """⟨X⟩, ⟨Y⟩ of the ancilla after the controlled-G1/G2 interferometer at
    one phase point, whose phases follow the groups' axes. The block-written
    gates, walls and registers hold the entries of |0⟩⟨0|⊗G1 + |1⟩⟨1|⊗G2,
    I₂⊗W and ρ⊗|0⟩⟨0|, and each product multiplies the same arrays in the
    same order as with those Kronecker products, so the results match them
    bit for bit."""
    n, d = p.n_times, p.dims[0]
    phase = iter(point)
    # G2 enters through G2†, so it is built from the daggered projectors: G2†
    # then holds the Π_b that χ's sweep inserts, Hermitian or not
    gates = {sign: [_phases(m, _GATE_PHASE_SIGN, [next(phase)],
                            m.projectors if sign > 0 else m.projectors.conj().transpose(0, 2, 1))[0]
                    for m in ms]
             for ms, _, sign in groups}
    bare = [np.eye(d, dtype=np.complex128)] * n
    dils = [c.dilation for c in p.channels]
    rho = np.tile(0.5 * p.rho0, (2, 2))  # |+⟩⟨+|⊗ρ₀: ρ₀/2 in all four blocks
    ctrl = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    # G1 from the ket side (+1), G2 from the bra side (−1)
    for g1, g2, dil in zip(gates.get(+1, bare), gates.get(-1, bare), dils + [None]):
        ctrl[:d, :d], ctrl[d:, d:] = g1, g2
        rho = ctrl @ rho @ ctrl.conj().T
        if dil is not None:
            w, r, _ = dil  # the environment starts in |0⟩⟨0|
            wall = np.zeros((2 * d * r, 2 * d * r), dtype=np.complex128)
            wall[:d * r, :d * r] = wall[d * r:, d * r:] = w
            attached = np.zeros_like(wall)
            attached[::r, ::r] = rho
            rho = (wall @ attached @ wall.conj().T).reshape(2, d, r, 2, d, r)
            rho = rho.trace(axis1=2, axis2=5).reshape(2 * d, 2 * d)
    anc01 = rho.reshape(2, d, 2, d).trace(axis1=1, axis2=3)[0, 1]
    x, y = float(2 * anc01.real), float(-2 * anc01.imag)
    env_dims = tuple(r for _, r, _ in dils)
    return x, y, {"env_dims": env_dims, "register": (2, d) + env_dims}


def circuit_sim(p: MultiTimeProcess, obs: ObservableSchedule, point: Sequence[float],
                kind: str = "right", shots: int | None = None,
                seed: int | None = None) -> CircuitResult:
    """Simulate the ancilla interferometer for χ at one phase point.

    The ancilla starts in |+⟩ and controls which of two gate sequences acts:
    G₁ on |0⟩, G₂ on |1⟩, each the dilation walls W_k interleaved with phase
    gates, or bare walls on the side the kind leaves bare. The circuit
    factors as C_n (I⊗W_n) C_{n-1} … (I⊗W_1) C_0 with C_k the controlled
    phase gates, and every environment register meets only its own wall.
    So the simulation keeps ancilla ⊗ system live, attaching each fresh
    environment before its wall and tracing it out after; the controlled
    gates, walls and attached registers are written into the blocks of zero
    arrays, not formed as Kronecker products. ``metadata``
    names the full register (2, d, r_1, …, r_n). Returns
    ⟨X⟩ − i⟨Y⟩ = Tr[G₁ρG₂†]; with shots, also a binomial Monte-Carlo estimate
    and its analytic standard error.
    """
    if shots is not None and shots < 2:
        raise ValidationError("need at least 2 shots, one per readout basis")
    groups, grid = _kind_inputs(p, obs, kind, [point])
    s = _READOUT_SIGN
    x, y, meta = _ancilla_xy(p, groups, grid[0])
    exact = complex(x + 1j * s * y)
    meta = dict(meta, gate_phase_sign=_GATE_PHASE_SIGN, readout_sign=s)

    estimate = std_error = deviation = None
    if shots is not None:
        rng = np.random.default_rng(seed)
        n_x = shots // 2
        n_y = shots - n_x
        px = min(1.0, max(0.0, (1.0 + x) / 2.0))
        py = min(1.0, max(0.0, (1.0 + y) / 2.0))
        mean_x = 2.0 * rng.binomial(n_x, px) / n_x - 1.0
        mean_y = 2.0 * rng.binomial(n_y, py) / n_y - 1.0
        estimate = complex(mean_x + 1j * s * mean_y)
        std_error = float(np.sqrt(max(0.0, 1.0 - x * x) / n_x + max(0.0, 1.0 - y * y) / n_y))
        deviation = float(abs(estimate - exact))

    return CircuitResult(kind=kind, point=tuple(float(t) for t in point), exact=exact,
                         estimate=estimate, std_error=std_error, deviation=deviation,
                         shots=shots, seed=seed, metadata=meta)

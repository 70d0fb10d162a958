"""Characteristic functions of temporal quasiprobabilities.

χ is the Fourier transform of a temporal distribution over its outcome
values. It is directly computable by inserting phase gates e^{∓iB_ku_k} into
the process trace, invertible back to the distribution on a suitable phase
grid, and measurable as ⟨X⟩, ⟨Y⟩ of an ancilla that coherently switches
between two gate sequences. Phase gates use spectral sums of the observable,
so outcome values match the projective measurements everywhere else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channels import stinespring
from .linops import (
    ValidationError,
    as_matrix,
    embed_operator,
    is_hermitian,
    kron_chain,
    partial_trace,
)
from .measurements import Outcome, ProjectiveMeasurement, spectral_measurement
from .quasiprob import MultiTimeProcess, QuasiDistribution, _projectors, _superops

CHAR_KINDS = ("right", "left", "doubled")


@dataclass(frozen=True)
class ObservableSchedule:
    """Hermitian observables per time: bra side (B_k, right-hand phases),
    ket side (A_k, left-hand phases), or both for the doubled kind."""

    ket: tuple[np.ndarray, ...] | None = None
    bra: tuple[np.ndarray, ...] | None = None
    tol: float = field(default=1e-9, compare=False)

    def __post_init__(self):
        if self.ket is None and self.bra is None:
            raise ValidationError("observable schedule needs at least one side")
        for side, ops in (("ket", self.ket), ("bra", self.bra)):
            if ops is None:
                continue
            ops = tuple(as_matrix(o) for o in ops)
            for k, o in enumerate(ops):
                if not is_hermitian(o, self.tol):
                    raise ValidationError(f"{side} observable {k} is not Hermitian")
            object.__setattr__(self, side, ops)
        if self.ket is not None and self.bra is not None and len(self.ket) != len(self.bra):
            raise ValidationError("ket and bra sides differ in length")

    @property
    def n_times(self) -> int:
        return len(self.ket if self.ket is not None else self.bra)


@dataclass(frozen=True)
class CharSamples:
    """χ values over a list of phase points (doubled points carry the ket
    v-block first, then the bra u-block)."""

    kind: str
    grid: tuple[tuple[float, ...], ...]
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in CHAR_KINDS:
            raise ValidationError(f"unknown characteristic kind {self.kind!r}")
        grid = tuple(tuple(float(x) for x in pt) for pt in self.grid)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.complex128).reshape(-1))
        if len(self.values) != len(grid):
            raise ValidationError("one value per grid point required")
        widths = {len(pt) for pt in grid}
        if len(widths) > 1:
            raise ValidationError("grid points differ in arity")
        for pt, v in zip(grid, self.values):
            if all(x == 0.0 for x in pt) and abs(v - 1.0) > 1e-10:
                raise ValidationError(f"value at the zero point is {v}, not 1")


def _require_square(p: MultiTimeProcess):
    if any(c.d_in != c.d_out for c in p.channels):
        raise ValidationError("characteristic functions need square step dims")


def _side_meas(ops: Sequence[np.ndarray], dims: Sequence[int], side: str) -> list[ProjectiveMeasurement]:
    if len(ops) != len(dims):
        raise ValidationError(f"{side} side has {len(ops)} observables for {len(dims)} times")
    meas = []
    for k, (o, d) in enumerate(zip(ops, dims)):
        if o.shape != (d, d):
            raise ValidationError(f"{side} observable {k} is {o.shape}, time dim is {d}")
        meas.append(spectral_measurement(o))
    return meas


def _phases(meas: ProjectiveMeasurement, sign: int, ts) -> np.ndarray:
    """Phase gates e^{sign·i·t·B} = Σ_b e^{sign·i·t·b} Π_b, one per t: (P, d, d)."""
    values = np.array([o.value for o in meas.outcomes])
    return np.einsum("pm,mij->pij", np.exp(sign * 1j * np.outer(ts, values)), _projectors(meas))


def _split_points(grid, kind: str, n_times: int) -> tuple[np.ndarray, np.ndarray]:
    """Ket phases v and bra phases u of every point, each (P, n_times) and
    empty on the side the kind leaves bare; doubled points carry v first."""
    want = 2 * n_times if kind == "doubled" else n_times
    points = [tuple(float(x) for x in pt) for pt in grid]
    for pt in points:
        if len(pt) != want:
            raise ValidationError(f"{kind} point needs {want} phases, got {len(pt)}")
    x = np.array(points, dtype=float).reshape(len(points), want)
    if kind == "doubled":
        return x[:, :n_times], x[:, n_times:]
    return (x, x[:, :0]) if kind == "left" else (x[:, :0], x)


def _char_values(p: MultiTimeProcess, ket_meas, bra_meas, v: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """χ at all P points in one forward pass over a (P, d, d) state stack."""
    state = np.broadcast_to(p.rho0, (len(v),) + p.rho0.shape)
    for k, superop in enumerate(_superops(p.channels) + [None]):
        if ket_meas is not None:
            state = _phases(ket_meas[k], +1, v[:, k]) @ state
        if bra_meas is not None:
            state = state @ _phases(bra_meas[k], -1, u[:, k])
        if superop is not None:
            d_out = p.dims[k + 1]
            state = (state.reshape(-1, superop.shape[1]) @ superop.T).reshape(-1, d_out, d_out)
    return np.trace(state, axis1=1, axis2=2)


def char_fn(p: MultiTimeProcess, obs: ObservableSchedule, grid: Sequence[Sequence[float]],
            kind: str = "right") -> CharSamples:
    """Evaluate χ on a list of phase points.

    right: Tr[E_n(...E_1(ρ e^{−iB₀u₀}) e^{−iB₁u₁}...) e^{−iB_nu_n}];
    left inserts e^{+iA_kv_k} on the ket side; doubled does both.
    """
    if kind not in CHAR_KINDS:
        raise ValidationError(f"unknown characteristic kind {kind!r}")
    _require_square(p)
    ket_meas = bra_meas = None
    if kind in ("left", "doubled"):
        if obs.ket is None:
            raise ValidationError(f"{kind} characteristic needs ket observables")
        ket_meas = _side_meas(obs.ket, p.dims, "ket")
    if kind in ("right", "doubled"):
        if obs.bra is None:
            raise ValidationError(f"{kind} characteristic needs bra observables")
        bra_meas = _side_meas(obs.bra, p.dims, "bra")
    v, u = _split_points(grid, kind, p.n_times)
    return CharSamples(kind, tuple(tuple(float(x) for x in pt) for pt in grid),
                       _char_values(p, ket_meas, bra_meas, v, u))


def char_from_distribution(q: QuasiDistribution, grid: Sequence[Sequence[float]]) -> CharSamples:
    """Fourier sum Σ Q·e^{+i a·v − i b·u} over the distribution's outcome values."""
    kind = {"kd_right": "right", "kd_left": "left", "kd_doubled": "doubled"}.get(q.kind)
    if kind is None:
        raise ValidationError(f"no characteristic kind for {q.kind!r}")
    # ket-side insertions carry e^{+iav}, bra-side e^{-ibu}; kd_left axes are
    # all ket-side even though the kind stores no ket block
    if kind == "left":
        signs = [+1] * len(q.axes)
    else:
        signs = [+1 if i < q.ket_axes else -1 for i in range(len(q.axes))]
    vals = [q.axis_values(i) for i in range(len(q.axes))]
    out = []
    for pt in grid:
        if len(pt) != len(q.axes):
            raise ValidationError(f"point needs {len(q.axes)} phases, got {len(pt)}")
        t = q.values
        for s, bv, x in zip(signs, vals, pt):
            t = np.tensordot(t, np.exp(s * 1j * bv * float(x)), axes=([0], [0]))
        out.append(complex(t))
    return CharSamples(kind, tuple(tuple(float(x) for x in pt) for pt in grid), np.array(out))


def default_nodes(spectrum: Sequence[float]) -> np.ndarray:
    """m equispaced phase nodes u_j = j·π/(1 + max|b−b'|) for m distinct outcomes."""
    vals = sorted(set(float(b) for b in spectrum))
    m = len(vals)
    if m == 1:
        return np.zeros(1)
    theta = np.pi / (1.0 + (vals[-1] - vals[0]))
    return theta * np.arange(m)


def product_grid(per_axis_nodes: Sequence[Sequence[float]]) -> list[tuple[float, ...]]:
    return [tuple(float(x) for x in pt) for pt in itertools.product(*per_axis_nodes)]


def invert_char(samples: CharSamples, spectra: Sequence[Sequence[float]]) -> QuasiDistribution:
    """Recover the distribution from χ on a full product grid.

    Per axis the grid must hold exactly as many distinct nodes as there are
    outcomes; each axis contributes a Vandermonde-type factor [e^{∓iu_j·b}]
    that is solved independently. Rejects condition numbers above 1e6.
    """
    axes = len(spectra)
    if samples.grid and len(samples.grid[0]) != axes:
        raise ValidationError(f"grid points carry {len(samples.grid[0])} phases for {axes} spectra")
    nodes = [sorted(set(pt[i] for pt in samples.grid)) for i in range(axes)]
    spect = [sorted(set(float(b) for b in s)) for s in spectra]
    shape = tuple(len(nd) for nd in nodes)
    for i, (nd, sp) in enumerate(zip(nodes, spect)):
        if len(nd) != len(sp):
            raise ValidationError(
                f"axis {i} has {len(nd)} grid nodes for {len(sp)} outcomes")
    if len(samples.grid) != int(np.prod(shape)):
        raise ValidationError("grid is not a full per-axis product")
    lookup = [{x: j for j, x in enumerate(nd)} for nd in nodes]
    tensor = np.zeros(shape, dtype=np.complex128)
    filled = np.zeros(shape, dtype=bool)
    for pt, val in zip(samples.grid, samples.values):
        idx = tuple(lookup[i][pt[i]] for i in range(axes))
        tensor[idx] = val
        filled[idx] = True
    if not filled.all():
        raise ValidationError("grid is missing product combinations")

    ket_axes = axes // 2 if samples.kind == "doubled" else 0
    for i in range(axes):
        sign = +1 if (i < ket_axes or samples.kind == "left") else -1
        f = np.exp(sign * 1j * np.outer(nodes[i], spect[i]))
        cond = float(np.linalg.cond(f))
        if cond > 1e6:
            raise ValidationError(f"axis {i} transform is ill-conditioned, cond {cond:.3e}")
        moved = np.moveaxis(tensor, i, 0)
        solved = np.linalg.solve(f, moved.reshape(shape[i], -1)).reshape(moved.shape)
        tensor = np.moveaxis(solved, 0, i)

    out_axes = tuple(
        tuple(Outcome(value=b, projector=None, label=b) for b in sp) for sp in spect)
    kind = {"right": "kd_right", "left": "kd_left", "doubled": "kd_doubled"}[samples.kind]
    return QuasiDistribution(kind, out_axes, tensor, ket_axes=ket_axes)


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


def _interleaved(phis: list[np.ndarray], walls: list[np.ndarray]) -> np.ndarray:
    """Φ_n W_n Φ_{n-1} ... W_1 Φ_0 (walls indexed 1..n)."""
    g = phis[0]
    for w, phi in zip(walls, phis[1:]):
        g = phi @ w @ g
    return g


def _ancilla_xy(p: MultiTimeProcess, obs: ObservableSchedule, point,
                kind: str) -> tuple[float, float, dict]:
    """⟨X⟩, ⟨Y⟩ of the ancilla after the controlled-G1/G2 interferometer."""
    (v,), (u,) = _split_points([point], kind, p.n_times)
    dils = [stinespring(c) for c in p.channels]
    d = p.dims[0]
    reg = [d] + [r for _, r, _ in dils]
    walls = [embed_operator(w, (0, k + 1), reg) for k, (w, _, _) in enumerate(dils)]
    big = int(np.prod(reg))
    plain = np.eye(big, dtype=np.complex128)
    for w in walls:
        plain = w @ plain

    def phase_stack(ops, ts):
        meas = _side_meas(ops, p.dims, "phase")
        return [embed_operator(_phases(m, _GATE_PHASE_SIGN, [t])[0], (0,), reg)
                for m, t in zip(meas, ts)]

    if kind == "right":
        g1, g2 = plain, _interleaved(phase_stack(obs.bra, u), walls)
    elif kind == "left":
        g1, g2 = _interleaved(phase_stack(obs.ket, v), walls), plain
    else:
        g1 = _interleaved(phase_stack(obs.ket, v), walls)
        g2 = _interleaved(phase_stack(obs.bra, u), walls)

    plus = np.full((2, 2), 0.5, dtype=np.complex128)
    rho_full = kron_chain([plus, p.rho0] + [env for _, _, env in dils])
    ctrl = np.kron(np.diag([1.0, 0.0]), g1) + np.kron(np.diag([0.0, 1.0]), g2)
    out = ctrl @ rho_full @ ctrl.conj().T
    anc = partial_trace(out, [2, big], [0])
    x = float(2 * anc[0, 1].real)
    y = float(-2 * anc[0, 1].imag)
    meta = {"env_dims": tuple(r for _, r, _ in dils), "register": tuple([2] + reg)}
    return x, y, meta


def circuit_sim(p: MultiTimeProcess, obs: ObservableSchedule, point: Sequence[float],
                kind: str = "right", shots: int | None = None,
                seed: int | None = None) -> CircuitResult:
    """Simulate the ancilla interferometer for χ at one phase point.

    The ancilla starts in |+⟩ and controls which of two gate sequences acts:
    the bare dilated walls, or the walls interleaved with phase gates. CPTP
    steps run on system ⊗ environment registers via their dilations. Returns
    ⟨X⟩ − i⟨Y⟩ = Tr[G₁ρG₂†]; with shots, also a binomial Monte-Carlo estimate
    and its analytic standard error.
    """
    if kind not in CHAR_KINDS:
        raise ValidationError(f"unknown characteristic kind {kind!r}")
    _require_square(p)
    s = _READOUT_SIGN
    x, y, meta = _ancilla_xy(p, obs, point, kind)
    exact = complex(x + 1j * s * y)
    meta = dict(meta, gate_phase_sign=_GATE_PHASE_SIGN, readout_sign=s)

    estimate = std_error = deviation = None
    if shots is not None:
        if shots < 2:
            raise ValidationError("need at least 2 shots, one per readout basis")
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

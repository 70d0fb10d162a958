"""CPTP channels as Kraus sets.

A channel E(x) = Σ_x K x K† may be rectangular (d_in ≠ d_out); complete
positivity is automatic from the Kraus form, trace preservation is a
numerical check (`validate_cptp`). Channels are applied to arbitrary
matrices, not only density operators: quasiprobability evaluation feeds
them products like ρΠ and Π ρ Π'.

A `QuantumChannel` is immutable: it holds read-only copies of the Kraus
operators it was given, and builds what is derived from them at most once,
on first use: its trace-preservation `defect`, its row-major superoperator
(`superop`, the `kraus_superop` of its Kraus list) and its Stinespring
dilation (`dilation`). An
`Instrument` likewise holds read-only copies of its branch operators.

`build_channel` is the one place that turns a channel kind and its
parameters into Kraus operators; the CLI's spec kinds are its kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .linops import (
    ValidationError,
    _in_field,
    _require,
    as_matrix,
    dagger,
    frozen_matrix,
    is_hermitian,
    max_abs,
    readonly,
)


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """Kraus representation of a completely positive map d_in → d_out.

    Construction only enforces shape consistency; whether the map is trace
    preserving is a property (`validate_cptp`), so non-TP Kraus sets can be
    represented and diagnosed.
    """

    kraus: tuple[np.ndarray, ...]

    def __init__(self, kraus: Sequence[np.ndarray]):
        ops = tuple(frozen_matrix(k) for k in kraus)
        if not ops:
            raise ValidationError("channel needs at least one Kraus operator")
        if len({k.shape for k in ops}) != 1:
            raise ValidationError("Kraus operators disagree in shape")
        _require(0 not in ops[0].shape, f"Kraus operators have a zero dimension, shape {ops[0].shape}")
        object.__setattr__(self, "kraus", ops)

    @property
    def d_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def d_out(self) -> int:
        return self.kraus[0].shape[0]

    @cached_property
    def defect(self) -> float:
        """‖Σ K†K − I‖_max, which `validate_cptp` holds to its tolerance; an inf or NaN
        defect (of an overflowing sum) comes out silently."""
        with np.errstate(over="ignore", invalid="ignore"):
            return max_abs(_effect(self.kraus) - np.eye(self.d_in))

    @cached_property
    def superop(self) -> np.ndarray:
        """`kraus_superop` of this channel's Kraus operators."""
        return readonly(kraus_superop(self.kraus))

    @cached_property
    def dilation(self) -> tuple[np.ndarray, int, np.ndarray]:
        """Stinespring dilation (u, env_dim, env_state) of a square channel, u
        unitary on H_sys ⊗ H_env when the channel is trace preserving; it makes
        no check of its own, so it serves the tolerance the caller validated at.

        The isometry sits in the env-|0⟩ columns, V[i·r + x, j] = K_x[i, j] at
        column j·r, and the vacant columns are the orthonormal complement that
        QR of [V | I] gives, so repeated builds dilate identically.
        """
        if self.d_in != self.d_out:
            raise ValidationError("stinespring needs a square channel")
        d, r = self.d_in, len(self.kraus)
        v = np.stack(self.kraus, axis=1).reshape(d * r, d)
        q = np.linalg.qr(np.hstack([v, np.eye(d * r)]))[0]
        u = np.empty((d * r, d * r), dtype=np.complex128)
        u[:, ::r] = v
        u[:, np.arange(d * r) % r > 0] = q[:, d:]
        env = np.zeros((r, r), dtype=np.complex128)
        env[0, 0] = 1.0
        return readonly(u), r, readonly(env)


def kraus_superop(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Row-major superoperator Σ K⊗K̄ of one Kraus list, (d_out², d_in²): vec(E(x)) = S·vec(x)."""
    k = np.stack(kraus)
    d_out, d_in = k.shape[1:]
    return np.einsum("xab,xcd->acbd", k, k.conj()).reshape(d_out ** 2, d_in ** 2)


@dataclass(frozen=True)
class CptpReport:
    trace_preserving: bool
    defect: float


@dataclass(frozen=True, eq=False)
class Instrument:
    """Labeled CP trace-nonincreasing branches M_k whose total map is CPTP."""

    branches: tuple[tuple[object, tuple[np.ndarray, ...]], ...]
    tol: float = 1e-9

    def __init__(self, branches, tol: float = 1e-9):
        packed = []
        for label, ops in branches:
            ops = tuple(frozen_matrix(k) for k in ops)
            if not ops:
                raise ValidationError(f"instrument branch {label!r} has no operators")
            packed.append((label, ops))
        if not packed:
            raise ValidationError("instrument needs at least one branch")
        total = QuantumChannel([k for _, ops in packed for k in ops])
        rep = validate_cptp(total, tol)
        if not rep.trace_preserving:
            raise ValidationError(f"instrument branches sum to a non-TP map, defect {rep.defect:.3e}")
        object.__setattr__(self, "branches", tuple(packed))
        object.__setattr__(self, "tol", tol)

    def effect(self, index: int) -> np.ndarray:
        """POVM effect Σ_j E†E of one branch."""
        return _effect(self.branches[index][1])


def _effect(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Σ K†K of a non-empty Kraus list, summed in list order."""
    return sum(dagger(k) @ k for k in kraus)


def validate_cptp(c: QuantumChannel, tol: float = 1e-9) -> CptpReport:
    """The channel's cached `defect` ‖Σ K†K − I‖_max; trace preserving iff defect ≤ tol
    (an inf or NaN defect fails)."""
    return CptpReport(trace_preserving=c.defect <= tol, defect=c.defect)


def apply_channel(c: QuantumChannel, x: np.ndarray) -> np.ndarray:
    """Σ K x K†. A non-finite entry of x, or a product that overflows, passes its inf or NaN
    through silently."""
    x = as_matrix(x)
    if x.shape != (c.d_in, c.d_in):
        raise ValidationError(f"channel input is {x.shape}, expected {(c.d_in, c.d_in)}")
    out = np.zeros((c.d_out, c.d_out), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in c.kraus:
            out += k @ x @ dagger(k)
    return out


def adjoint_apply(c: QuantumChannel, x: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt adjoint Σ K† x K; unital whenever c is trace preserving. A non-finite
    entry of x, or a product that overflows, passes its inf or NaN through silently."""
    x = as_matrix(x)
    if x.shape != (c.d_out, c.d_out):
        raise ValidationError(f"adjoint input is {x.shape}, expected {(c.d_out, c.d_out)}")
    out = np.zeros((c.d_in, c.d_in), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in c.kraus:
            out += dagger(k) @ x @ k
    return out


def compose(later: QuantumChannel, earlier: QuantumChannel) -> QuantumChannel:
    """later ∘ earlier, as the Kraus set of all pairwise products."""
    if earlier.d_out != later.d_in:
        raise ValidationError(
            f"cannot compose: earlier outputs dim {earlier.d_out}, later expects {later.d_in}")
    return QuantumChannel([l @ e for l in later.kraus for e in earlier.kraus])


def identity_channel(d: int) -> QuantumChannel:
    return QuantumChannel([np.eye(d)])


def mix_channels(a: QuantumChannel, b: QuantumChannel, lam: float) -> QuantumChannel:
    """Convex combination λ·a + (1−λ)·b at the Kraus level: {√λ K} ∪ {√(1−λ) L}."""
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"mixing weight {lam} outside [0, 1]")
    if (a.d_in, a.d_out) != (b.d_in, b.d_out):
        raise ValidationError("cannot mix channels of different shape")
    ops = []
    if lam > 0.0:
        ops += [np.sqrt(lam) * k for k in a.kraus]
    if lam < 1.0:
        ops += [np.sqrt(1.0 - lam) * k for k in b.kraus]
    return QuantumChannel(ops)


def tensor_channels(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """a ⊗ b, acting independently on the two tensor slots."""
    return QuantumChannel([np.kron(k, l) for k in a.kraus for l in b.kraus])


def jamiolkowski(c: QuantumChannel) -> np.ndarray:
    """J[E] = Σ_{k,l} E(|k⟩⟨l|) ⊗ |l⟩⟨k| on H_out ⊗ H_in, a new array: entry [(a, i), (b, j)]
    is E(|j⟩⟨i|)[a, b], entry [(a, b), (j, i)] of the cached `superop`, which J reshuffles.

    Hermitian for any CP map; J of the identity channel is the swap.
    """
    do, di = c.d_out, c.d_in
    return c.superop.reshape(do, do, di, di).transpose(0, 3, 1, 2).copy().reshape(do * di, do * di)


def stinespring(c: QuantumChannel, tol: float = 1e-9) -> tuple[np.ndarray, int, np.ndarray]:
    """The channel's cached `dilation` (u, env_dim, env_state), once it is
    trace preserving within ``tol`` (the dilation itself refuses non-square
    channels). Tracing the environment out of u (x ⊗ |0⟩⟨0|) u† recovers the
    channel."""
    rep = validate_cptp(c, tol)
    if not rep.trace_preserving:
        raise ValidationError(f"stinespring needs a trace-preserving channel, defect {rep.defect:.3e}")
    return c.dilation


def build_channel(kind: str, tol: float = 1e-9, **params) -> QuantumChannel:
    """The one builder of each channel kind, the kinds of the CLI spec; a
    parameter the kind needs and was not given raises ValidationError naming it.
    A refusal of ``omega``, ``outputs[k]``, ``u`` or ``p`` has that `field`.

    kind "kraus":           operators=[K_x]; x ↦ Σ K_x x K_x†
    kind "unitary":         u=U with U unitary within tol
    kind "replacement":     omega=ω; x ↦ ω·Tr(x), optionally d_in for a
                            rectangular input space
    kind "measure_replace": instrument=Instrument, outputs=[ω_k];
                            x ↦ Σ_k Tr[M_k(x)]·ω_k
    kind "depolarizing":    p, d; ρ ↦ (1−p)ρ + p·Tr(ρ)·I/d, the mixture of the
                            identity (first) and the replacement by I/d
    """

    def need(name):
        if name not in params:
            raise ValidationError(f"build_channel: kind {kind!r} needs {name!r}")
        return params[name]

    if kind == "kraus":
        return QuantumChannel(need("operators"))
    if kind == "unitary":  # U†U − I is the defect of the channel of U, which keeps it
        u = as_matrix(need("u"))
        c = QuantumChannel([u]) if u.shape[0] == u.shape[1] else None
        _in_field(("u",), _require, c is not None and c.defect <= tol,
                  "build_channel: u is not unitary within tol")
        return c
    if kind == "replacement":  # measure-and-prepare with the one effect I on d_in
        omega = _in_field(("omega",), check_density, need("omega"), tol)
        d_in = int(params.get("d_in", omega.shape[0]))
        if d_in < 1:
            raise ValidationError(f"build_channel: d_in {d_in} is not positive")
        return QuantumChannel(_measure_prepare(np.eye(d_in), omega, tol))
    if kind == "measure_replace":
        instrument: Instrument = need("instrument")
        outputs = [_in_field(("outputs", k), check_density, w, tol) for k, w in enumerate(need("outputs"))]
        if len(outputs) != len(instrument.branches):
            raise ValidationError("one output state per instrument branch is required")
        return QuantumChannel([k for idx, omega in enumerate(outputs)
                               for k in _measure_prepare(instrument.effect(idx), omega, instrument.tol)])
    if kind == "depolarizing":
        p = float(need("p"))
        d = int(need("d"))
        _in_field(("p",), _require, 0.0 <= p <= 1.0, f"depolarizing strength {p} outside [0, 1]")
        if d < 1:
            raise ValidationError(f"build_channel: d {d} is not positive")
        replacement = QuantumChannel(_measure_prepare(np.eye(d), np.eye(d) / d, tol))
        return mix_channels(identity_channel(d), replacement, 1.0 - p)
    raise ValidationError(f"unknown channel kind {kind!r}")


def _measure_prepare(effect: np.ndarray, omega: np.ndarray, tol: float) -> list[np.ndarray]:
    """Kraus operators √(f·λ)|w⟩⟨v| of x ↦ Tr(F x)·ω over the spectra (f, v)
    of the effect F, positive within ``tol``, and (λ, w) of the output ω, effect
    eigenvectors first; zero weights drop out. Each eigenvector has its own
    operator, so a degenerate spectrum needs no clustering."""
    lams, wvecs = np.linalg.eigh(omega)
    prepared = [(lam, w) for lam, w in zip(lams, wvecs.T) if lam > 1e-14]
    fs, vvecs = np.linalg.eigh(effect)
    if fs[0] < -tol:
        raise ValidationError("instrument effect has a negative eigenvalue")
    ops = []
    for f, v in zip(fs, vvecs.T):
        if f > 1e-14:
            ops += [np.sqrt(f * lam) * np.outer(w, np.conj(v)) for lam, w in prepared]
    return ops


@np.errstate(over="ignore", invalid="ignore")  # a trace or spectrum that overflows is refused, silently
def check_density(omega, tol: float = 1e-9) -> np.ndarray:
    """Validate Hermiticity, unit trace, and positivity (all within tol)."""
    omega = as_matrix(omega)
    if not is_hermitian(omega, tol):
        raise ValidationError("state is not Hermitian within tol")
    if abs(np.trace(omega) - 1.0) > tol:
        raise ValidationError("state trace differs from 1")
    if float(np.min(np.linalg.eigvalsh(omega))) < -tol:
        raise ValidationError("state has a negative eigenvalue")
    return omega

"""CPTP channels as Kraus sets.

A channel E(x) = Σ_x K x K† may be rectangular (d_in ≠ d_out); complete
positivity is automatic from the Kraus form, trace preservation is a
numerical check (`validate_cptp`). Channels are applied to arbitrary
matrices, not only density operators: quasiprobability evaluation feeds
them products like ρΠ and Π ρ Π'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linops import (
    ValidationError,
    as_matrix,
    basis_state,
    dagger,
    hermitian_eig,
    is_hermitian,
    max_abs,
)


@dataclass(frozen=True)
class QuantumChannel:
    """Kraus representation of a completely positive map d_in → d_out.

    Construction only enforces shape consistency; whether the map is trace
    preserving is a property (`validate_cptp`), so non-TP Kraus sets can be
    represented and diagnosed.
    """

    kraus: tuple[np.ndarray, ...]

    def __init__(self, kraus: Sequence[np.ndarray]):
        ops = tuple(as_matrix(k) for k in kraus)
        if not ops:
            raise ValidationError("channel needs at least one Kraus operator")
        if len({k.shape for k in ops}) != 1:
            raise ValidationError("Kraus operators disagree in shape")
        object.__setattr__(self, "kraus", ops)

    @property
    def d_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def d_out(self) -> int:
        return self.kraus[0].shape[0]


@dataclass(frozen=True)
class CptpReport:
    trace_preserving: bool
    defect: float


@dataclass(frozen=True)
class Instrument:
    """Labeled CP trace-nonincreasing branches M_k whose total map is CPTP."""

    branches: tuple[tuple[object, tuple[np.ndarray, ...]], ...]
    tol: float = field(default=1e-9, compare=False)

    def __init__(self, branches, tol: float = 1e-9):
        packed = []
        for label, ops in branches:
            ops = tuple(as_matrix(k) for k in ops)
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
        _, ops = self.branches[index]
        return sum(dagger(k) @ k for k in ops)


def validate_cptp(c: QuantumChannel, tol: float = 1e-9) -> CptpReport:
    """defect = ‖Σ K†K − I‖_max; trace preserving iff defect ≤ tol."""
    acc = np.zeros((c.d_in, c.d_in), dtype=np.complex128)
    for k in c.kraus:
        acc += dagger(k) @ k
    defect = max_abs(acc - np.eye(c.d_in))
    return CptpReport(trace_preserving=defect <= tol, defect=defect)


def apply_channel(c: QuantumChannel, x: np.ndarray) -> np.ndarray:
    x = as_matrix(x)
    if x.shape != (c.d_in, c.d_in):
        raise ValidationError(f"channel input is {x.shape}, expected {(c.d_in, c.d_in)}")
    out = np.zeros((c.d_out, c.d_out), dtype=np.complex128)
    for k in c.kraus:
        out += k @ x @ dagger(k)
    return out


def adjoint_apply(c: QuantumChannel, x: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt adjoint Σ K† x K; unital whenever c is trace preserving."""
    x = as_matrix(x)
    if x.shape != (c.d_out, c.d_out):
        raise ValidationError(f"adjoint input is {x.shape}, expected {(c.d_out, c.d_out)}")
    out = np.zeros((c.d_in, c.d_in), dtype=np.complex128)
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
    """J[E] = Σ_{k,l} E(|k⟩⟨l|) ⊗ |l⟩⟨k| on H_out ⊗ H_in.

    Hermitian for any CP map; J of the identity channel is the swap.
    """
    d = c.d_in
    out = np.zeros((c.d_out * d, c.d_out * d), dtype=np.complex128)
    for k in range(d):
        for l in range(d):
            unit = np.outer(basis_state(d, k), np.conj(basis_state(d, l)))
            out += np.kron(apply_channel(c, unit), unit.T)  # |l⟩⟨k| = (|k⟩⟨l|)ᵀ
    return out


def stinespring(c: QuantumChannel, tol: float = 1e-9) -> tuple[np.ndarray, int, np.ndarray]:
    """Dilation (u, env_dim, env_state) with u unitary on H_sys ⊗ H_env.

    Tracing the environment out of u (x ⊗ |0⟩⟨0|) u† recovers the channel.
    The isometry columns are V|j⟩ = Σ_x (K_x|j⟩) ⊗ |x⟩ and the completion of
    the remaining columns is a deterministic Gram-Schmidt sweep over canonical
    basis vectors, so repeated runs dilate identically.
    """
    if c.d_in != c.d_out:
        raise ValidationError("stinespring needs a square channel")
    rep = validate_cptp(c, tol)
    if not rep.trace_preserving:
        raise ValidationError(f"stinespring needs a trace-preserving channel, defect {rep.defect:.3e}")
    d, r = c.d_in, len(c.kraus)
    full = d * r
    u = np.zeros((full, full), dtype=np.complex128)
    for j in range(d):
        col = np.zeros(full, dtype=np.complex128)
        for x, k in enumerate(c.kraus):
            kj = k[:, j]
            col[x::r] = kj  # sys index i at position i*r + x
        u[:, j * r] = col  # |j⟩⊗|0⟩ sits at column j*r
    filled = [j * r for j in range(d)]
    vacant = [p for p in range(full) if p not in filled]
    basis_cols = [u[:, p] for p in filled]
    cursor = 0
    for p in vacant:
        while True:
            if cursor >= full:
                raise ValidationError("stinespring completion ran out of candidates")
            cand = np.zeros(full, dtype=np.complex128)
            cand[cursor] = 1.0
            cursor += 1
            for b in basis_cols:
                cand = cand - np.vdot(b, cand) * b
            norm = float(np.linalg.norm(cand))
            if norm > 1e-6:
                cand = cand / norm
                # second orthogonalization pass for numerical hygiene
                for b in basis_cols:
                    cand = cand - np.vdot(b, cand) * b
                cand = cand / np.linalg.norm(cand)
                break
        u[:, p] = cand
        basis_cols.append(cand)
    env_state = np.zeros((r, r), dtype=np.complex128)
    env_state[0, 0] = 1.0
    return u, r, env_state


def build_channel(kind: str, **params) -> QuantumChannel:
    """Canonical channel builders.

    kind "unitary":         u=U with U unitary within tol (default 1e-9)
    kind "replacement":     omega=ω; x ↦ ω·Tr(x), optionally d_in for a
                            rectangular input space
    kind "measure_replace": instrument=Instrument, outputs=[ω_k];
                            x ↦ Σ_k Tr[M_k(x)]·ω_k
    kind "depolarizing":    p, d; ρ ↦ (1−p)ρ + p·Tr(ρ)·I/d
    """
    if kind == "unitary":
        u = as_matrix(params["u"])
        tol = params.get("tol", 1e-9)
        if u.shape[0] != u.shape[1] or max_abs(dagger(u) @ u - np.eye(u.shape[0])) > tol:
            raise ValidationError("build_channel: u is not unitary within tol")
        return QuantumChannel([u])
    if kind == "replacement":
        omega = check_density(params["omega"], params.get("tol", 1e-9))
        d_in = int(params.get("d_in", omega.shape[0]))
        return QuantumChannel(_replacement_kraus(omega, d_in))
    if kind == "measure_replace":
        instrument: Instrument = params["instrument"]
        outputs = [check_density(w, params.get("tol", 1e-9)) for w in params["outputs"]]
        if len(outputs) != len(instrument.branches):
            raise ValidationError("one output state per instrument branch is required")
        ops = []
        for idx, omega in enumerate(outputs):
            # E(x) = Σ_k Tr(F_k x) ω_k with effect F_k: factor both spectrally
            for f, fvecs in hermitian_eig(instrument.effect(idx), 1e-10):
                if f < -1e-9:
                    raise ValidationError("instrument effect has a negative eigenvalue")
                if f <= 1e-14:
                    continue
                for m in range(fvecs.shape[1]):
                    for lam, wvecs in hermitian_eig(omega, 1e-12):
                        if lam <= 1e-14:
                            continue
                        for i in range(wvecs.shape[1]):
                            ops.append(np.sqrt(f * lam)
                                       * np.outer(wvecs[:, i], np.conj(fvecs[:, m])))
        return QuantumChannel(ops)
    if kind == "depolarizing":
        p = float(params["p"])
        d = int(params["d"])
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"depolarizing strength {p} outside [0, 1]")
        ops = []
        if p < 1.0:
            ops.append(np.sqrt(1.0 - p) * np.eye(d))
        if p > 0.0:
            for i in range(d):
                for j in range(d):
                    e = np.zeros((d, d), dtype=np.complex128)
                    e[i, j] = np.sqrt(p / d)
                    ops.append(e)
        return QuantumChannel(ops)
    raise ValidationError(f"unknown channel kind {kind!r}")


def _replacement_kraus(omega: np.ndarray, d_in: int) -> list[np.ndarray]:
    ops = []
    for lam, vecs in hermitian_eig(omega, 1e-12):
        if lam <= 1e-14:
            continue
        for i in range(vecs.shape[1]):
            for j in range(d_in):
                ops.append(np.sqrt(lam) * np.outer(vecs[:, i], np.conj(basis_state(d_in, j))))
    return ops


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

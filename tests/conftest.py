from __future__ import annotations

import numpy as np
import pytest  # type: ignore

import tkd


@pytest.fixture(scope="session")
def pauli():
    return {
        "I": np.eye(2, dtype=np.complex128),
        "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
        "Z": np.diag([1.0, -1.0]).astype(np.complex128),
    }


@pytest.fixture(scope="session")
def xy_process(pauli):
    """|0><0|, one identity step, X then Y: the worked qubit example."""
    rho = tkd.projector(tkd.basis_state(2, 0))
    p = tkd.MultiTimeProcess(rho, [tkd.identity_channel(2)])
    s = [tkd.spectral_measurement(pauli["X"]), tkd.spectral_measurement(pauli["Y"])]
    return p, s


def corpus(count, channel_kind="mixed", start=0):
    """Seeded (process, schedule) pairs alternating d=2 n<=3 and d=3 n<=2."""
    out = []
    for i in range(start, start + count):
        d, n = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)][i % 5]
        p = tkd.random_process(d, n, seed=10_000 + i, channel_kind=channel_kind)
        s = tkd.random_schedule(p.dims, seed=20_000 + i)
        out.append((p, s))
    return out


def isometry_process(dims, rng) -> tkd.MultiTimeProcess:
    """A chain over the per-time ``dims`` whose step d_in → d_out is a random
    isometry split into d_in Kraus operators, from a random initial state."""
    chain = []
    for d_in, d_out in zip(dims, dims[1:]):
        g = rng.normal(size=(d_in * d_out, d_in)) + 1j * rng.normal(size=(d_in * d_out, d_in))
        chain.append(tkd.QuantumChannel(list(np.linalg.qr(g)[0].reshape(d_in, d_out, d_in))))
    return tkd.MultiTimeProcess(tkd.random_density(dims[0], rng), chain)


def table_dev(got, want) -> float:
    """max|got − want| over two tables of one shape: a shape mismatch fails, never broadcasts."""
    assert np.shape(got) == np.shape(want), (np.shape(got), np.shape(want))
    return float(np.abs(np.subtract(got, want)).max())


def joint_traces(p, j) -> np.ndarray:
    """Tr[O·ρ₀] for every operator O of a `joint_ops` table: the distribution it reads at t₀."""
    return np.einsum("...ij,ji->...", j.ops.array, p.rho0)


def born_diagonal(y, stacks) -> np.ndarray:
    """lvn off a doubled state: the diagonal of its Born table with the same stacks on both sides."""
    shape = tuple(len(s) for s in stacks)
    return tkd.born_eval(y, stacks, stacks).reshape(np.prod(shape), -1).diagonal().reshape(shape)

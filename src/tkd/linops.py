"""Dense complex matrix kernel: tensor products, partial traces, spectral splits.

Everything downstream (channels, measurements, distributions, temporal states)
is built on the handful of primitives here. All matrices are plain numpy
arrays of complex128 in row-major order; tensor factorizations are tracked
separately as dimension tuples. Every comparison takes an explicit tolerance,
there is no hidden global epsilon.
"""

from __future__ import annotations

import math
import sys
from functools import cache
from typing import Sequence

import numpy as np

HALF_RANGE = sys.float_info.max / 2  # real and imaginary parts within it keep h ± h† finite


class ValidationError(ValueError):
    """A numerical invariant failed (non-Hermitian input, broken CPTP sum, ...); ``field`` is
    the path of the failed input, such as ("channels", 0), as `_in_field` sets it, or ()."""

    field: tuple = ()


def _in_field(field: tuple, check, *args, **kwargs):
    """``check(*args, **kwargs)``; a ValidationError it raises gets ``field`` before its own."""
    try:
        return check(*args, **kwargs)
    except ValidationError as e:
        e.field = field + e.field
        raise


def _require(ok: bool, message: str):
    if not ok:
        raise ValidationError(message)


def _non_numeric(a) -> tuple:
    """The first str, bytes or None entry of ``a`` (nested lists, tuples or arrays) as a
    one-tuple, or (); a bare None is no entry, as a missing matrix is not one."""
    if isinstance(a, (str, bytes)):
        return (a,)
    if isinstance(a, (list, tuple)) or (isinstance(a, np.ndarray) and a.dtype.kind in "OSU"):
        for x in (a.ravel() if isinstance(a, np.ndarray) else a):
            bad = (x,) if x is None else _non_numeric(x)
            if bad:
                return bad
    return ()


def _complex128(convert, a) -> np.ndarray:
    """``convert(a, dtype=complex128)``, np.asarray or np.array. A str, bytes or None entry
    raises TypeError, even a str that spells a number, such as "1", or None, which numpy would
    read as one or as NaN; a numeric ndarray is converted as it is, with no probe and no extra
    copy."""
    try:
        b = a if isinstance(a, np.ndarray) else np.asarray(a)
    except ValueError:  # a ragged nesting: numpy's own error, unless a non-numeric entry comes first
        b = None
    if b is None or b.dtype.kind in "OSU":
        bad = _non_numeric(a)
        if bad:
            raise TypeError(f"expected a numeric entry, got {bad[0]!r}")
        b = a
    return convert(b, dtype=np.complex128)


def as_matrix(a) -> np.ndarray:
    m = _complex128(np.asarray, a)
    if m.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim={m.ndim}")
    return m


def frozen_matrix(a) -> np.ndarray:
    """A read-only complex128 copy of ``a``: what the package's immutable
    objects hold, so that no later write (theirs or the caller's) can make an
    operator they derived and cached go stale."""
    return readonly(as_matrix(a).copy())


def readonly(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only in place and return it."""
    a.setflags(write=False)
    return a


class _Handed(np.ndarray):
    """A pass's fresh array on its way to the one result container that holds it (`_hand`)."""


def _hand(a: np.ndarray) -> _Handed:
    """Mark a pass's fresh array, and every array it views, read-only, and hand
    it over: a result container holds it without a copy (`_kept`)."""
    b = a
    while b is not None:
        b = readonly(b).base
    return a.view(_Handed)


def _kept(a) -> np.ndarray:
    """What a result container holds: an array a pass handed over as it is, any other
    (read-only or not) as a read-only complex128 copy, since whoever owns it could
    write to it, or make it writeable again, after the container's checks passed."""
    if type(a) is _Handed:
        return a.view(np.ndarray)
    return readonly(_complex128(np.array, a))


def insertion_maps(side: str, a: np.ndarray) -> np.ndarray:
    """Insertion maps x ↦ A x B as the (m, d², d²) stack of row-major
    superoperators A ⊗ Bᵀ (vec(A x B) = (A ⊗ Bᵀ)·vec(x) with vec(x)[i·d + j] =
    x[i, j]), one per operator a_i of the stack: right (I, a_i), left (a_i, I)
    and lvn (a_i, a_i). Two-sided insertions pair a left and a right stack
    inside the sweep of `tkd.quasiprob`."""
    eye = np.eye(a.shape[-1], dtype=np.complex128)[None]
    a, b = {"right": (eye, a), "left": (a, eye), "lvn": (a, a)}[side]
    d2 = a.shape[-1] ** 2
    return (a[:, :, None, :, None] * b.transpose(0, 2, 1)[:, None, :, None, :]).reshape(-1, d2, d2)


@cache
def _vec_identity(d2: int) -> np.ndarray:
    """vec(I) of the identity on a space of dimension √d2, real, read-only."""
    return readonly(np.eye(math.isqrt(d2)).reshape(-1))


def _trace_rows(maps: np.ndarray) -> np.ndarray:
    """Rows w_i with w_i · vec(x) = Tr[a_i x b_i] of an insertion map stack: the final trace
    of a sweep folded into its last maps."""
    return _vec_identity(maps.shape[1]) @ maps


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(a.T)


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-norm; the metric behind every tolerance in this package."""
    return float(np.abs(a).max()) if a.size else 0.0


def is_hermitian(a: np.ndarray, tol: float) -> bool:
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN defect fails, silently
        return a.shape[0] == a.shape[1] and max_abs(a - dagger(a)) <= tol


def check_half_range(h: np.ndarray, where: str) -> None:
    """Refuse an observable with an entry whose real or imaginary part exceeds
    HALF_RANGE, before (h + h†)/2 is formed: past it, that sum can overflow
    with a numpy warning. NaN entries are left to the Hermiticity check."""
    if max_abs(h.real) > HALF_RANGE or max_abs(h.imag) > HALF_RANGE:
        raise ValidationError(f"{where}: an entry exceeds {HALF_RANGE:.6e} in its real "
                              "or imaginary part, so (h + h†)/2 overflows")


@np.errstate(over="ignore", invalid="ignore")
def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a ⊗ b; an inf or NaN entry, or a product that overflows, passes through silently."""
    return np.kron(as_matrix(a), as_matrix(b))


@np.errstate(over="ignore", invalid="ignore")
def kron_chain(factors: Sequence[np.ndarray]) -> np.ndarray:
    """⊗ of factors left to right, passing inf or NaN through as `kron` does; the
    single-factor chain is a copy."""
    if not len(factors):
        raise ValidationError("empty kron chain")
    out = as_matrix(factors[0]).copy()
    for f in factors[1:]:
        out = np.kron(out, as_matrix(f))
    return out


def check_profile(m: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValidationError(f"non-positive factor dimension in {dims}")
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"matrix is {m.shape}, not square")
    if int(np.prod(dims)) != m.shape[0]:
        raise ValidationError(f"profile {dims} does not factor side length {m.shape[0]}")
    return dims


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    ``dims`` gives the per-factor dimensions of the square matrix ``m`` and
    ``keep`` the factor indices to retain, in their original relative order.
    An overflowing trace or a non-finite entry passes its inf or NaN through silently.
    """
    m = as_matrix(m)
    dims = check_profile(m, dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValidationError(f"keep indices {keep} out of range for {len(dims)} factors")
    n = len(dims)
    t = m.reshape(dims + dims)
    # contract row/col legs of each dropped factor, from the highest axis down
    # so earlier axis numbers stay valid
    with np.errstate(over="ignore", invalid="ignore"):
        for ax in sorted(set(range(n)) - set(keep), reverse=True):
            t = np.trace(t, axis1=ax, axis2=ax + (t.ndim // 2))
    side = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(side, side)


def _clusters(vals: np.ndarray, tol: float) -> list[list[tuple[float, int, int]]]:
    """The eigenvalue groups of each row of ascending eigenvalues, as (value, start, stop):
    eigenvalues whose consecutive gaps are not past ``tol`` merge into one group, reported
    at the mean of its members (a single eigenvalue as itself). A gap that overflows is
    past ``tol``, without a warning."""
    with np.errstate(over="ignore"):
        cut = vals[:, 1:] - vals[:, :-1] > tol
    if cut.all():  # no merge: each eigenvalue is a group of its own
        return [[(v, i, i + 1) for i, v in enumerate(row)] for row in vals.tolist()]
    groups = []
    for row, c in zip(vals, cut):
        edges = [0, *(np.flatnonzero(c) + 1).tolist(), len(row)]
        groups.append([(float(row[a]) if b == a + 1 else _mean(row[a:b]), a, b)
                       for a, b in zip(edges, edges[1:])])
    return groups


def _mean(group: np.ndarray) -> float:
    """``np.mean`` of a group of finite eigenvalues; where their sum overflows, the mean of
    their offsets from the first member, added to it, without a warning."""
    with np.errstate(over="ignore"):
        mean = float(np.mean(group))
    if math.isfinite(mean):
        return mean
    return float(group[0] + np.mean(group - group[0]))


def hermitian_eig(h: np.ndarray, tol: float = 1e-8) -> list[tuple[float, np.ndarray]]:
    """Clustered spectral decomposition of a Hermitian matrix.

    Returns ``[(eigenvalue, vectors), ...]`` in ascending eigenvalue order,
    where ``vectors`` is a (dim, multiplicity) orthonormal block. Eigenvalues
    are grouped by `_clusters` at ``tol`` (so a numerically split degeneracy
    comes back as a single eigenspace, at the mean of its members).
    """
    h = as_matrix(h)
    if not is_hermitian(h, tol):
        raise ValidationError("hermitian_eig: input is not Hermitian within tol")
    vals, vecs = np.linalg.eigh(h)
    return [(val, vecs[:, a:b]) for val, a, b in _clusters(vals[None], tol)[0]]


@np.errstate(over="ignore", invalid="ignore")
def embed_operator(op: np.ndarray, sites: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Pad ``op`` with identities so it acts on the factors listed in ``sites``; an inf or NaN
    entry of ``op`` passes through silently, as in `kron`.

    ``op`` must be factored as ⊗_{s in sites} H_s in the given site order;
    the sites need not be adjacent. Realized as op ⊗ I followed by a
    tensor-leg permutation back to the natural factor order.
    """
    op = as_matrix(op)
    dims = tuple(int(d) for d in dims)
    sites = [int(s) for s in sites]
    if len(set(sites)) != len(sites):
        raise ValidationError(f"repeated site in {sites}")
    if any(s < 0 or s >= len(dims) for s in sites):
        raise ValidationError(f"site out of range in {sites}")
    site_dims = [dims[s] for s in sites]
    if op.shape != (int(np.prod(site_dims)),) * 2:
        raise ValidationError(
            f"operator shape {op.shape} does not match site dims {site_dims}")
    rest = [i for i in range(len(dims)) if i not in sites]
    order = sites + rest  # factor order of op ⊗ I_rest
    full = np.kron(op, np.eye(int(np.prod([dims[i] for i in rest])) if rest else 1))
    t = full.reshape([dims[i] for i in order] * 2)
    perm = [order.index(i) for i in range(len(dims))]
    t = t.transpose(perm + [p + len(dims) for p in perm])
    side = int(np.prod(dims))
    return t.reshape(side, side)


def basis_state(d: int, j: int) -> np.ndarray:
    v = np.zeros(d, dtype=np.complex128)
    v[j] = 1.0
    return v


def projector(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    return np.outer(v, np.conj(v))

from __future__ import annotations

import numpy as np
import pytest  # type: ignore

import tkd
from tkd import ValidationError
from tkd.linops import max_abs
from tkd.oracle import oracle_correlators, oracle_kd, oracle_state
from conftest import corpus, table_dev


@pytest.mark.parametrize("chunk", range(20))
def test_oracle_agrees_with_distributions(chunk):
    # 100 seeded processes total, 5 per chunk, alternating dims and step counts
    for p, s in corpus(5, start=5 * chunk):
        assert max_abs(oracle_kd(p, s, kind="kd_right").values
                       - tkd.kd_right(p, s).values) < 1e-12
        assert max_abs(oracle_kd(p, s, kind="kd_left").values
                       - tkd.kd_left(p, s).values) < 1e-12
        assert max_abs(oracle_kd(p, s, kind="mh").values
                       - tkd.mh_from_kd(tkd.kd_right(p, s)).values) < 1e-12


@pytest.mark.parametrize("case", range(8))
def test_oracle_agrees_doubled(case):
    p, ket = corpus(8)[case]
    bra = tkd.random_schedule(p.dims, seed=3_000 + case)
    got = oracle_kd(p, ket, kind="kd_doubled", bra=bra)
    want = tkd.kd_doubled(p, ket, bra)
    assert got.ket_axes == want.ket_axes
    assert max_abs(got.values - want.values) < 1e-12


@pytest.mark.parametrize("d,n_times", [(2, 8), (4, 4), (3, 5)])
def test_states_at_the_regime_edge_match_the_oracle(d, n_times):
    # oracle_state grows about 5x per time, so each state is checked by its Born table
    p = tkd.random_process(d, n_times - 1, seed=600 + d, channel_kind="mixed")
    s = tkd.random_schedule(p.dims, seed=610 + d)
    for kind in ("kd_right", "kd_left", "mh"):
        y = tkd.mh_state(p) if kind == "mh" else tkd.kd_state_recursive(p, kind)
        assert table_dev(tkd.born_eval(y, [m.projectors for m in s]), oracle_kd(p, s, kind).values) <= 1e-12


@pytest.mark.parametrize("case", range(10))
def test_oracle_state_right_left(case):
    p, _ = corpus(10, start=3 * case)[0]
    assert max_abs(oracle_state(p, kind="right").matrix
                   - tkd.kd_state_recursive(p).matrix) < 1e-10
    assert max_abs(oracle_state(p, kind="left").matrix
                   - tkd.kd_state_recursive(p, kind="kd_left").matrix) < 1e-10


@pytest.mark.parametrize("case", range(4))
def test_oracle_state_hermitian_kinds(case):
    p, _ = corpus(4, start=7 * case)[0]
    assert max_abs(oracle_state(p, kind="mh").matrix - tkd.mh_state(p).matrix) < 1e-10
    if p.dims[0] == 2:
        got = oracle_state(p, kind="lvn")
        assert got.kind == "pdo"
        assert max_abs(got.matrix - tkd.pdo(p).matrix) < 1e-10


def test_oracle_state_doubled():
    p = tkd.random_process(2, 1, seed=4_001, channel_kind="cptp")
    got = oracle_state(p, kind="doubled")
    want = tkd.reconstruct_state(tkd.correlators(p, kind="doubled"))
    assert got.kind == "kd_doubled"
    assert max_abs(got.matrix - want.matrix) < 1e-10


def test_oracle_xy_closed_form(xy_process):
    p, s = xy_process
    q = oracle_kd(p, s)
    want = np.array([[(1 + 1j), (1 - 1j)], [(1 - 1j), (1 + 1j)]]) / 4
    assert max_abs(q.values - want) < 1e-12


def test_oracle_validation():
    p, s = corpus(1)[0]
    with pytest.raises(ValidationError):
        oracle_kd(p, s, kind="lvn")
    with pytest.raises(ValidationError):
        oracle_kd(p, s, kind="kd_doubled")
    with pytest.raises(ValidationError):
        oracle_kd(p, s[:-1])
    with pytest.raises(ValidationError):
        oracle_state(p, kind="bogus")
    with pytest.raises(ValidationError, match=rf"^bra schedule has 1 entries for {p.n_times} times$"):
        oracle_kd(p, s, kind="kd_doubled", bra=s[:1])
    with pytest.raises(ValidationError, match="^oracle_correlators kind must be one of .*, got 'bogus'$"):
        oracle_correlators(p, kind="bogus")
    rect = tkd.MultiTimeProcess(np.eye(2) / 2, [tkd.build_channel("replacement", omega=np.eye(3) / 3,
                                                                  d_in=2)])
    s = tkd.random_schedule(rect.dims, seed=1)
    for kind, fn in (("kd_right", tkd.kd_right), ("kd_left", tkd.kd_left)):
        assert max_abs(oracle_kd(rect, s, kind=kind).values - fn(rect, s).values) <= 1e-12

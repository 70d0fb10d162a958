"""Acceptance gate: ten numbered criteria, one printed pass/fail line each.

Run with ``pytest -v`` (criterion status is the test outcome) or ``pytest -s``
to see the printed lines. Tolerances are pinned per criterion; corpora are
seeded, d in {2, 3}, at most 4 times per process.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest  # type: ignore

import tkd
from tkd.linops import max_abs
from tkd.oracle import oracle_state
from tkd.cli import run_command
from conftest import born_diagonal, corpus, table_dev

SQRT2 = np.sqrt(2.0)


def _report(num: int, name: str, defects: dict[str, float], tol_map: dict[str, float]):
    ok = all(defects[k] <= tol_map[k] for k in defects)
    detail = ", ".join(f"{k}={v:.3e} (tol {tol_map[k]:.0e})" for k, v in defects.items())
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_conjugation_and_marginals():
    dev_conj = dev_ket = dev_bra = dev_diag = 0.0
    for i, (p, s) in enumerate(corpus(100)):
        qr = tkd.kd_right(p, s)
        ql = tkd.kd_left(p, s)
        dev_conj = max(dev_conj, max_abs(ql.values - np.conj(qr.values)))
        bra = tkd.random_schedule(p.dims, seed=50_000 + i)
        qd = tkd.kd_doubled(p, s, bra)
        nt = p.n_times
        ket_sum = qd.values.sum(axis=tuple(range(nt)))
        dev_ket = max(dev_ket, max_abs(ket_sum - tkd.kd_right(p, bra).values))
        bra_sum = qd.values.sum(axis=tuple(range(nt, 2 * nt)))
        dev_bra = max(dev_bra, max_abs(bra_sum - ql.values))
        qd2 = tkd.kd_doubled(p, s, s)
        diag = np.array([qd2.values[idx + idx] for idx in np.ndindex(qr.values.shape)])
        dev_diag = max(dev_diag, max_abs(diag - tkd.lvn(p, s).values.reshape(-1)))
    _report(1, "conjugation and doubled marginals",
            {"left_vs_conj_right": dev_conj, "ket_sum": dev_ket,
             "bra_sum": dev_bra, "lvn_diagonal": dev_diag},
            {k: 1e-12 for k in ("left_vs_conj_right", "ket_sum", "bra_sum",
                                "lvn_diagonal")})


def test_criterion_02_kolmogorov_consistency():
    dev_sub = dev_overlap = 0.0
    for seed in (11, 12):
        p = tkd.random_process(2, 3, seed=seed, channel_kind="mixed")
        s = tkd.random_schedule(p.dims, seed=seed + 100)
        q = tkd.kd_right(p, s)
        for pair in itertools.combinations(range(4), 2):
            marg = tkd.marginalize(q, pair)
            sub = tkd.kd_right(tkd.sub_process(p, pair), [s[k] for k in pair])
            dev_sub = max(dev_sub, max_abs(marg.values - sub.values))
        for triple in itertools.combinations(range(4), 3):
            q3 = tkd.kd_right(tkd.sub_process(p, triple), [s[k] for k in triple])
            for pair in itertools.combinations(triple, 2):
                pos = [triple.index(k) for k in pair]
                via3 = tkd.marginalize(q3, pos)
                direct = tkd.marginalize(q, pair)
                dev_overlap = max(dev_overlap, max_abs(via3.values - direct.values))
    _report(2, "two-time marginals vs sub-processes",
            {"marginal_vs_sub_process": dev_sub, "overlapping_marginals": dev_overlap},
            {"marginal_vs_sub_process": 1e-12, "overlapping_marginals": 1e-12})


def test_criterion_03_nonclassicality_properties():
    defects = {}
    # property 1: nonnegativity; faithfulness on the near-classical cases
    neg = 0.0
    for p, s in corpus(10):
        q = tkd.kd_right(p, s)
        n = tkd.nonclassicality(q)
        neg = max(neg, -n)
        if n <= 1e-12:
            assert q.values.real.min() > -1e-6 and max_abs(q.values.imag) < 1e-6
    defects["negativity"] = neg
    # properties 2 and 3: convexity in the state and in one channel
    conv_s = conv_c = 0.0
    for lam in (0.25, 0.5, 0.75):
        chain = [tkd.QuantumChannel([tkd.haar_unitary(2, seed=21)])]
        s2 = tkd.random_schedule((2, 2), seed=22)
        r1, r2 = tkd.random_density(2, seed=23), tkd.random_density(2, seed=24)
        n1 = tkd.nonclassicality(tkd.kd_right(tkd.MultiTimeProcess(r1, chain), s2))
        n2 = tkd.nonclassicality(tkd.kd_right(tkd.MultiTimeProcess(r2, chain), s2))
        nm = tkd.nonclassicality(
            tkd.kd_right(tkd.MultiTimeProcess(lam * r1 + (1 - lam) * r2, chain), s2))
        conv_s = max(conv_s, nm - (lam * n1 + (1 - lam) * n2))
        c1 = tkd.QuantumChannel([tkd.haar_unitary(2, seed=25)])
        c2 = tkd.random_channel(2, seed=26)
        rho = tkd.random_density(2, seed=27)
        m1 = tkd.nonclassicality(tkd.kd_right(tkd.MultiTimeProcess(rho, [c1]), s2))
        m2 = tkd.nonclassicality(tkd.kd_right(tkd.MultiTimeProcess(rho, [c2]), s2))
        mm = tkd.nonclassicality(
            tkd.kd_right(tkd.MultiTimeProcess(rho, [tkd.mix_channels(c1, c2, lam)]), s2))
        conv_c = max(conv_c, mm - (lam * m1 + (1 - lam) * m2))
    defects["state_convexity"] = conv_s
    defects["channel_convexity"] = conv_c
    # properties 4 and 5: monotone under marginalization and coarse-graining
    mono = 0.0
    for p, s in corpus(5, start=3):
        q = tkd.kd_right(p, s)
        full = tkd.nonclassicality(q)
        for k in range(p.n_times):
            mono = max(mono, tkd.nonclassicality(tkd.marginalize(q, [k])) - full)
        idx = list(np.ndindex(q.values.shape))
        grained = tkd.coarse_grain(q, [idx[: len(idx) // 2], idx[len(idx) // 2:]])
        mono = max(mono, tkd.nonclassicality(grained) - full)
    defects["coarsening_monotonicity"] = mono
    # property 6: product rule for the linear measure, additivity for the log
    prod = add = 0.0
    for case in range(3):
        p1 = tkd.random_process(2, 1, seed=31 + case, channel_kind="mixed")
        p2 = tkd.random_process(2, 1, seed=41 + case, channel_kind="cptp")
        s1 = tkd.random_schedule(p1.dims, seed=51 + case)
        s2 = tkd.random_schedule(p2.dims, seed=61 + case)
        n1 = tkd.nonclassicality(tkd.kd_right(p1, s1))
        n2 = tkd.nonclassicality(tkd.kd_right(p2, s2))
        q12 = tkd.kd_right(tkd.tensor_process(p1, p2), tkd.tensor_schedule(s1, s2))
        prod = max(prod, abs(tkd.nonclassicality(q12) - (n1 * n2 + n1 + n2)))
        lg1 = tkd.nonclassicality(tkd.kd_right(p1, s1), variant="log")
        lg2 = tkd.nonclassicality(tkd.kd_right(p2, s2), variant="log")
        add = max(add, abs(tkd.nonclassicality(q12, variant="log") - lg1 - lg2))
    defects["product_rule"] = prod
    defects["log_additivity"] = add
    _report(3, "nonclassicality properties 1-6", defects, {k: 1e-10 for k in defects})


def test_criterion_04_closed_forms(xy_process):
    p, s = xy_process
    q = tkd.kd_right(p, s)
    table = np.array([[(1 + 1j), (1 - 1j)], [(1 - 1j), (1 + 1j)]]) / 4
    dev_table = max_abs(q.values - table)
    dev_n = abs(tkd.nonclassicality(q) - (SQRT2 - 1))

    # replacement step: distribution factorizes, no nonclassicality survives
    rho = tkd.projector(tkd.basis_state(2, 0))
    omega = tkd.projector(np.array([1.0, 1.0]) / SQRT2)
    pr = tkd.MultiTimeProcess(rho, [tkd.build_channel("replacement", omega=omega)])
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    sr = [tkd.spectral_measurement(x), tkd.spectral_measurement(z)]
    qr = tkd.kd_right(pr, sr)
    p0 = np.array([np.trace(rho @ o.projector) for o in sr[0].outcomes])
    p1 = np.array([np.trace(omega @ o.projector) for o in sr[1].outcomes])
    dev_fact = max_abs(qr.values - np.outer(p0, p1))
    dev_zero = abs(tkd.nonclassicality(qr))

    # measure-replace step: per-branch factorization through the outputs, and
    # the same nonclassicality as the extended single-time distribution
    rho_y = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    zero = tkd.projector(tkd.basis_state(2, 0))
    one = tkd.projector(tkd.basis_state(2, 1))
    inst = tkd.Instrument([("0", [zero]), ("1", [one])])
    chan = tkd.build_channel("measure_replace", instrument=inst, outputs=[zero, one])
    pm = tkd.MultiTimeProcess(rho_y, [chan])
    qm = tkd.kd_right(pm, [tkd.spectral_measurement(x), tkd.spectral_measurement(z)])
    ext = tkd.extended_kd(rho_y, tkd.spectral_measurement(x), inst)
    detect = np.array([[np.trace(w @ o.projector) for o in sr[1].outcomes]
                       for w in (zero, one)])
    dev_mr_fact = max_abs(qm.values - ext.values @ detect)
    dev_mr_n = abs(tkd.nonclassicality(qm) - tkd.nonclassicality(ext))
    _report(4, "closed-form demo values",
            {"xy_table": dev_table, "xy_nonclassicality": dev_n,
             "replacement_factorization": dev_fact, "replacement_zero": dev_zero,
             "measure_replace_factorization": dev_mr_fact,
             "measure_replace_equality": dev_mr_n},
            {"xy_table": 1e-12, "xy_nonclassicality": 1e-12,
             "replacement_factorization": 1e-12, "replacement_zero": 1e-12,
             "measure_replace_factorization": 1e-10,
             "measure_replace_equality": 1e-10})


def test_criterion_05_witness():
    broken = 0.0
    for p, s in corpus(20):
        rep = tkd.classicality_witness(p, s)
        if rep.nonclassicality > 1e-8 and rep.max_commutator_norm <= 1e-8:
            broken = max(broken, rep.nonclassicality)
    rng = np.random.default_rng(7)
    probs = rng.random(3)
    rho = np.diag(probs / probs.sum()).astype(complex)
    chain = [tkd.QuantumChannel([np.diag(np.exp(1j * rng.random(3)))]) for _ in range(2)]
    s = [tkd.spectral_measurement(np.diag(rng.permutation([1.0, 2.0, 3.0])))
         for _ in range(3)]
    rep = tkd.classicality_witness(tkd.MultiTimeProcess(rho, chain), s)
    _report(5, "commutator witness",
            {"silent_witness": broken,
             "commuting_nonclassicality": abs(rep.nonclassicality),
             "commuting_commutator": rep.max_commutator_norm},
            {"silent_witness": 0.0, "commuting_nonclassicality": 1e-12,
             "commuting_commutator": 1e-12})


def test_criterion_06_temporal_state_relations():
    dev_dag = dev_red = dev_born = 0.0
    for p, s in corpus(6):
        right = tkd.kd_state_recursive(p)
        left = tkd.kd_state_recursive(p, kind="kd_left")
        dev_dag = max(dev_dag, max_abs(right.matrix - np.conj(left.matrix.T)))
        for k in range(p.n_times):
            red = tkd.reduce_state(right, [k])
            dev_red = max(dev_red, max_abs(red.matrix - p.state_at(k)))
        qr = tkd.kd_right(p, s)
        stacks = [m.projectors for m in s]
        for y, q in ((right, qr), (left, tkd.kd_left(p, s)), (tkd.mh_state(p), tkd.mh_from_kd(qr))):
            dev_born = max(dev_born, table_dev(tkd.born_eval(y, stacks), q.values))
    # doubled-state checks on shapes where full tomography stays cheap
    dev_tl = dev_tr = dev_born2 = 0.0
    for d, n, seed in ((2, 1, 201), (2, 2, 202), (3, 1, 203)):
        p = tkd.random_process(d, n, seed=seed, channel_kind="mixed")
        s = tkd.random_schedule(p.dims, seed=seed + 10)
        bra = tkd.random_schedule(p.dims, seed=seed + 20)
        yd = tkd.reconstruct_state(tkd.correlators(p, kind="doubled"))
        right = tkd.kd_state_recursive(p)
        left = tkd.kd_state_recursive(p, kind="kd_left")
        dev_tl = max(dev_tl, max_abs(tkd.trace_ket_block(yd).matrix - right.matrix))
        dev_tr = max(dev_tr, max_abs(tkd.trace_bra_block(yd).matrix - left.matrix))
        kp, bp = [m.projectors for m in s], [m.projectors for m in bra]
        dev_born2 = max(dev_born2, table_dev(tkd.born_eval(yd, kp, bp), tkd.kd_doubled(p, s, bra).values),
                        table_dev(born_diagonal(yd, kp), tkd.lvn(p, s).values))
    _report(6, "temporal state relations and Born rule",
            {"right_vs_left_dagger": dev_dag, "single_time_reduction": dev_red,
             "born_single_block": dev_born, "trace_ket_block": dev_tl,
             "trace_bra_block": dev_tr, "born_doubled_and_lvn": dev_born2},
            {k: 1e-10 for k in ("right_vs_left_dagger", "single_time_reduction",
                                "born_single_block", "trace_ket_block",
                                "trace_bra_block", "born_doubled_and_lvn")})


def test_criterion_07_state_construction_cross_checks():
    dev_cross = 0.0
    for p, _ in corpus(5):
        fold = tkd.kd_state_recursive(p).matrix
        bloch = tkd.reconstruct_state(tkd.correlators(p, kind="right")).matrix
        brute = oracle_state(p, kind="right").matrix
        dev_cross = max(dev_cross, max_abs(fold - bloch), max_abs(fold - brute))
    dev_two = 0.0
    for seed in (71, 72):
        p2 = tkd.random_process(2 + seed % 2, 1, seed=seed, channel_kind="mixed")
        dev_two = max(dev_two, max_abs(tkd.pdo(p2).matrix - tkd.mh_state(p2).matrix))
    p3 = tkd.random_process(2, 2, seed=512, channel_kind="mixed")
    j1, j2 = tkd.jamiolkowski(p3.channels[0]), tkd.jamiolkowski(p3.channels[1])
    a = np.kron(j2, np.eye(2))
    b = np.kron(np.eye(2), j1)
    r = np.kron(np.eye(4), p3.rho0)
    four_term = (a @ b @ r + a @ r @ b + b @ r @ a + r @ b @ a) / 4
    dev_four = max_abs(tkd.pdo(p3).matrix - four_term)
    gap = float(np.linalg.norm(tkd.pdo(p3).matrix - tkd.mh_state(p3).matrix))
    _report(7, f"state constructions agree (pdo/mh gap {gap:.4f})",
            {"fold_bloch_oracle": dev_cross, "two_time_pdo_vs_mh": dev_two,
             "three_time_four_term": dev_four, "pdo_mh_gap_too_small": 1e-6 - gap},
            {"fold_bloch_oracle": 1e-10, "two_time_pdo_vs_mh": 1e-12,
             "three_time_four_term": 1e-12, "pdo_mh_gap_too_small": 0.0})


def test_criterion_08_characteristic_functions():
    dev_zero = dev_fourier = dev_invert = dev_circuit = 0.0
    for i, (p, s) in enumerate(corpus(4)):
        obs = tkd.ObservableSchedule(bra=tuple(m.observable() for m in s))
        rng = np.random.default_rng(80 + i)
        pts = [(0.0,) * p.n_times] + [tuple(rng.uniform(-2, 2, p.n_times))
                                      for _ in range(6)]
        chi = tkd.char_fn(p, obs, pts)
        dev_zero = max(dev_zero, abs(chi.values[0] - 1.0))
        from_q = tkd.char_from_distribution(tkd.kd_right(p, s), pts)
        dev_fourier = max(dev_fourier, max_abs(chi.values - from_q.values))
        spectra = [[o.value for o in m.outcomes] for m in s]
        grid = tkd.product_grid([tkd.default_nodes(sp) for sp in spectra])
        back = tkd.invert_char(tkd.char_fn(p, obs, grid), spectra)
        dev_invert = max(dev_invert, max_abs(back.values - tkd.kd_right(p, s).values))
    for kind_i, channel_kind in enumerate(("unitary", "cptp")):
        p = tkd.random_process(2, 2, seed=85 + kind_i, channel_kind=channel_kind)
        s = tkd.random_schedule(p.dims, seed=87 + kind_i)
        obs = tkd.ObservableSchedule(bra=tuple(m.observable() for m in s))
        rng = np.random.default_rng(89 + kind_i)
        pts = [tuple(rng.uniform(-2, 2, p.n_times)) for _ in range(25)]
        chi = tkd.char_fn(p, obs, pts)
        for pt, want in zip(pts, chi.values):
            res = tkd.circuit_sim(p, obs, pt)
            dev_circuit = max(dev_circuit, abs(res.exact - want))
    p = tkd.random_process(2, 1, seed=91, channel_kind="unitary")
    s = tkd.random_schedule(p.dims, seed=92)
    obs = tkd.ObservableSchedule(bra=tuple(m.observable() for m in s))
    res = tkd.circuit_sim(p, obs, (0.8, -0.5), shots=1_000_000, seed=93)
    shot_excess = res.deviation - 5.0 * res.std_error
    _report(8, "characteristic functions and interferometer",
            {"zero_point": dev_zero, "fourier_identity": dev_fourier,
             "inversion_round_trip": dev_invert, "circuit_vs_direct": dev_circuit,
             "shots_beyond_5_se": shot_excess},
            {"zero_point": 1e-12, "fourier_identity": 1e-10,
             "inversion_round_trip": 1e-8, "circuit_vs_direct": 1e-8,
             "shots_beyond_5_se": 0.0})


def test_criterion_09_weak_values(pauli):
    dev = 0.0
    for seed in range(5):
        phi = tkd.random_pure_state(2, seed=seed)
        u = tkd.haar_unitary(2, seed=seed + 10)
        p = tkd.MultiTimeProcess(tkd.projector(phi), [tkd.QuantumChannel([u])])
        a = tkd.random_hermitian(2, seed=seed + 20)
        b = tkd.random_hermitian(2, seed=seed + 40)
        s = [tkd.spectral_measurement(a), tkd.spectral_measurement(b)]
        ql = tkd.kd_left(p, s)
        qr = tkd.kd_right(p, s)
        vals0 = ql.axis_values(0)
        for j, out in enumerate(s[1].outcomes):
            prob = ql.values[:, j].sum()
            if abs(prob) < 1e-3:
                continue
            w = np.conj(u.T) @ out.projector
            vec = w[:, int(np.argmax(np.linalg.norm(w, axis=0)))]
            vec = vec / np.linalg.norm(vec)
            want = tkd.weak_value(a, phi, vec)
            dev = max(dev, abs((vals0 * ql.values[:, j]).sum() / prob - want))
            right_mean = (vals0 * qr.values[:, j]).sum() / qr.values[:, j].sum()
            dev = max(dev, abs(right_mean - np.conj(want)))
    inst = tkd.weak_value(pauli["X"], tkd.basis_state(2, 0),
                          np.array([1.0, 1.0j]) / SQRT2)
    _report(9, "weak values from conditional distributions",
            {"conditional_mean": dev, "minus_i_instance": abs(inst - (-1j))},
            {"conditional_mean": 1e-12, "minus_i_instance": 1e-12})


def test_criterion_10_cli_demos(capsys):
    defects = {}
    stable = True
    for name in ("xy-qubit", "replacement", "measure-replace"):
        assert run_command(["demo", name]) == 0
        out = capsys.readouterr().out
        assert run_command(["demo", name]) == 0
        stable = stable and capsys.readouterr().out == out
        doc = json.loads(out)
        dev = float(doc["max_table_deviation"])
        if name == "xy-qubit":
            dev = max(dev, float(doc["nonclassicality_deviation"]))
        if name == "replacement":
            dev = max(dev, float(doc["factorization_defect"]),
                      abs(float(doc["nonclassicality"])))
        if name == "measure-replace":
            dev = max(dev, float(doc["max_extended_table_deviation"]),
                      float(doc["equality_gap"]))
        defects[name.replace("-", "_")] = dev
    defects["byte_stability"] = 0.0 if stable else 1.0
    _report(10, "CLI demos reproduce closed forms", defects,
            {"xy_qubit": 1e-12, "replacement": 1e-12,
             "measure_replace": 1e-10, "byte_stability": 0.0})

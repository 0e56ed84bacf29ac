"""Acceptance gate: one test per criterion, each printing its own pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance below is pinned, not calibrated at runtime.
"""

import math

from painleve4 import (
    EquationKind,
    InitialData,
    Jet3,
    Params,
    TrajectoryStatus,
    ZeroBranch,
    dense_eval,
    fit_quadratic,
    integrate,
    locate_zeros,
    residual2,
    sqrt_lift,
    square_push,
    xxix_integrals,
    xxxii_u_integral,
)
from painleve4.cli import main, read_trajectory_csv
from painleve4.verify import run_suite

K = EquationKind


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_jet_identities(capsys):
    code = main(["verify", "--suite", "identities", "--count", "1000", "--seed", "7"])
    assert code == 0
    results = run_suite("identities", seed=7, count=1000)
    assert len(results) == 2
    worst = max(r.worst for r in results)
    assert worst < 1e-12
    with capsys.disabled():
        _report(1, f"both jet identities below 1e-12 relative on 1000 random jets (worst {worst:.2e})")


def test_criterion_2_constraint_conservation(capsys):
    results = run_suite("constraint", seed=0, count=50)
    (r,) = results
    assert r.passed
    assert r.worst < 1e-7
    assert "50/50 runs started off the C = 0 set" in r.note or "off the C = 0 set" in r.note
    with capsys.disabled():
        _report(2, f"|C - C0| < 1e-7 at every node of 50 random third-order runs (worst {r.worst:.2e})")


def test_criterion_3_zero_passage(capsys):
    p = Params(0.0, 1.0)
    worst_res = 0.0
    for span in (1.0, -1.0):
        t = integrate(K.PIV, p, InitialData.zero(0.0, +1, 0.0), span)
        assert t.status is TrajectoryStatus.COMPLETED
        worst_res = max(worst_res, max(abs(n.res2) for n in t.nodes))
        assert worst_res < 1e-8
        events = locate_zeros(t)
        assert len(events) == 1
        e = events[0]
        assert abs(e.a) < 1e-12
        assert e.branch is ZeroBranch.PLUS_BETA
        assert abs(e.slope - 1.0) < 1e-8
    with capsys.disabled():
        _report(3, f"zero passage at 0 with slope +1, residual2 below 1e-8 on [-1, 1] (worst {worst_res:.2e})")


def test_criterion_4_curvature_at_zeros(capsys):
    # seeds sit at the left end of the scanned window [-3, 3]; several of
    # them pass through genuine tangential zeros before blowing up
    p = Params()
    checked = 0
    for i in range(20):
        w0 = 0.1 + 0.9 * i / 19
        t = integrate(K.PIV0, p, InitialData.nonzero(-3.0, w0, 0.0), 6.0)
        for e in locate_zeros(t):
            assert abs(dense_eval(t, e.a).w) < t.tol.abs  # every event is a zero
            checked += 1
            assert abs(e.slope) < 1e-6
            assert abs(e.curvature) > 1e-8
    assert checked >= 1  # the check is not vacuous
    zero_run = integrate(K.PIV0, p, InitialData.raw(0.0, 0.0, 0.0, 0.0), 3.0)
    assert zero_run.status is TrajectoryStatus.COMPLETED
    assert zero_run.max_abs_w() == 0.0
    assert locate_zeros(zero_run) == ()
    with capsys.disabled():
        _report(4, f"beta = 0 zeros keep |slope| < 1e-6 and |curvature| > 1e-8 ({checked} zeros); null seed stays w = 0")


def test_criterion_5_closed_forms(capsys):
    t = integrate(K.XXXII, Params(), InitialData.nonzero(0.0, 2.0, 3.0), 4.0)
    worst32 = max(abs(n.jet.w - (n.jet.z ** 2 + 3 * n.jet.z + 2)) for n in t.nodes)
    assert worst32 < 1e-9
    q32 = fit_quadratic(K.XXXII, t.nodes[0].jet)
    assert abs(q32.discriminant - 1.0) < 1e-12

    t17 = integrate(K.XVII, Params(), InitialData.nonzero(0.0, 1.0, 2.0), 4.0)
    worst17 = max(abs(n.jet.w - (n.jet.z + 1.0) ** 2) for n in t17.nodes)
    assert worst17 < 1e-9
    q17 = fit_quadratic(K.XVII, t17.nodes[0].jet)
    assert abs(q17.discriminant) < 1e-12
    with capsys.disabled():
        _report(5, f"xxxii/xvii runs match their quadratics (worst {max(worst32, worst17):.2e}), discriminants exact to 1e-12")


def test_criterion_6_xxix_first_integrals(capsys):
    from painleve4 import Tolerances

    t = integrate(K.XXIX, Params(), InitialData.nonzero(0.0, 1.0, 1.0), 2.0, Tolerances(rel=1e-13, abs=1e-13))
    assert t.status is TrajectoryStatus.POLE
    assert abs(t.pole_estimate - 1.0) < 1e-10

    first = xxix_integrals(t.nodes[0].jet)
    worst_abs = 0.0
    worst_scaled = 0.0
    worst_l = 0.0
    for n in t.nodes:
        vals = xxix_integrals(n.jet)
        dk = abs(vals.k - first.k)
        dK = abs(vals.K - first.K)
        dL = abs(vals.L - first.L)
        w = abs(n.jet.w)
        if w <= 10.0:
            # absolute bounds hold where double precision can express them
            worst_abs = max(worst_abs, dk, dK, dL)
            worst_l = max(worst_l, abs(vals.L))
        worst_scaled = max(
            worst_scaled,
            dk / max(1.0, w ** 3),
            dK / max(1.0, w ** 3),
            dL / max(1.0, w ** 4),
        )
    assert worst_abs < 1e-7
    assert worst_l < 1e-8
    # near the pole the integrals stay constant relative to their own term size
    assert worst_scaled < 1e-7
    with capsys.disabled():
        _report(6, f"xxix integrals constant (abs {worst_abs:.2e}, scaled {worst_scaled:.2e}), |L| < 1e-8, pole at {t.pole_estimate:.6f}")


def test_criterion_7_u_substitution(capsys):
    worst = 0.0
    for w0, w1 in ((2.0, 3.0), (0.3, 1.0)):
        q = fit_quadratic(K.XXXII, Jet3(0.0, w0, w1, 0.0))
        t = integrate(K.XXXII, Params(), InitialData.nonzero(0.0, w0, w1), 4.0)
        ks = []
        for n in t.nodes:
            assert n.jet.w > 0.0
            ks.append(xxxii_u_integral(n.jet))
        worst = max(worst, max(ks) - min(ks), max(abs(k - q.a) for k in ks))
    assert worst < 1e-8
    with capsys.disabled():
        _report(7, f"u-substitution integral constant and equal to the leading coefficient (worst {worst:.2e})")


def test_criterion_8_square_root_round_trip(capsys):
    p = Params()
    # (a) square the sqrt-form trajectory: piv0 residual stays under 1e-8
    sq = integrate(K.SQRT_PIV0, p, InitialData.raw(0.0, 0.5, 0.0, 0.0), 1.0)
    assert sq.status is TrajectoryStatus.COMPLETED
    worst_res = max(
        abs(residual2(K.PIV0, p, square_push(n.jet.z, n.jet.w, n.jet.w1))) for n in sq.nodes
    )
    assert worst_res < 1e-8

    # (b) lift of the corresponding piv0 run reproduces f (no zero: w stays > 0)
    seed = sq.nodes[0].jet
    pushed = square_push(seed.z, seed.w, seed.w1)
    pw = integrate(K.PIV0, p, InitialData.raw(0.0, pushed.w, pushed.w1, pushed.w2), 1.0)
    lift = sqrt_lift(pw, None, (0.0, 1.0))
    worst_f = max(abs(sm.f - dense_eval(sq, sm.t).w) for sm in lift.samples)
    assert worst_f < 1e-7

    # (c) slope continuity through an actual zero of w (the stated seed's w
    # never vanishes, so the jump clause is exercised on a crossing run)
    back = integrate(K.PIV0, p, InitialData.raw(0.0, 0.0, 0.0, 2.0), -0.6)
    j = back.nodes[-1].jet
    crossing = integrate(K.PIV0, p, InitialData.raw(j.z, j.w, j.w1, j.w2), 1.2)
    event = locate_zeros(crossing)[0]
    lift2 = sqrt_lift(crossing, event, (-0.5, 0.5))
    assert lift2.fdot_jump is not None and lift2.fdot_jump < 1e-7
    start = lift2.samples[0]
    direct = integrate(K.SQRT_PIV0, p, InitialData.raw(start.t, start.f, start.fdot, 0.0), 1.0)
    worst_cross = max(abs(sm.f - dense_eval(direct, sm.t).w) for sm in lift2.samples)
    assert worst_cross < 1e-7
    with capsys.disabled():
        _report(8, f"square/sqrt round trips within 1e-7 (res {worst_res:.2e}, f {max(worst_f, worst_cross):.2e}, jump {lift2.fdot_jump:.2e})")


def test_criterion_9_determinism_and_round_trip(tmp_path, capsys):
    specs = [
        ["integrate", "--eq", "xxxii", "--z0", "0", "--w0", "2", "--w1", "3", "--span", "4"],
        ["integrate", "--eq", "piv", "--alpha", "0", "--beta", "1",
         "--zero-branch", "plus", "--w2", "0", "--z0", "0", "--span", "1"],
        ["integrate", "--eq", "xxix", "--z0", "0", "--w0", "1", "--w1", "1", "--span", "2"],
        ["integrate", "--eq", "sqrt-piv0", "--z0", "0", "--w0", "0.5", "--span", "1"],
    ]
    for idx, spec in enumerate(specs):
        blobs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{idx}{attempt}.csv"
            summary = tmp_path / f"{idx}{attempt}.json"
            assert main(spec + ["--out", str(out), "--summary", str(summary)]) == 0
            blobs.append(out.read_bytes() + summary.read_bytes())
        assert blobs[0] == blobs[1]

    # parse-back reproduces every node value exactly
    spec = specs[1]
    out = tmp_path / "rt.csv"
    assert main(spec + ["--out", str(out), "--summary", str(tmp_path / "rt.json")]) == 0
    t = integrate(K.PIV, Params(0.0, 1.0), InitialData.zero(0.0, +1, 0.0), 1.0)
    rows = read_trajectory_csv(out)
    assert len(rows) == len(t.nodes)
    for row, node in zip(rows, t.nodes):
        assert row["z_re"] == node.jet.z and row["z_im"] == 0.0
        assert row["w_re"] == node.jet.w
        assert row["w1_re"] == node.jet.w1
        assert row["w2_re"] == node.jet.w2
        assert row["h"] == node.h and row["err_est"] == node.err_est
        assert row["C_re"] == node.c and row["res2_re"] == node.res2
    with capsys.disabled():
        _report(9, "reruns byte-identical for four specs; CSV parse-back exact on every node")

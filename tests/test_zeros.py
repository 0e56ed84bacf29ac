import cmath
import contextlib
import math
import random
from typing import NamedTuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from painleve4 import (
    EquationKind,
    InitialData,
    Jet3,
    Params,
    ScalarField,
    Tolerances,
    Trajectory,
    TrajectoryNode,
    TrajectoryStatus,
    WrongKind,
    ZeroBranch,
    check_curvature_theorem,
    cli,
    dense_eval,
    dense_eval_param,
    integrate,
    locate_zeros,
    zeros,
)
from painleve4.equations import KINDS, ORDER
from painleve4.integrator import _H_MIN, _jet_kernel, _step_kernel

K = EquationKind


@pytest.fixture(scope="module")
def xxxii_through_two_roots():
    # w = z^2 - 1/4: a = 1, b = 0, c = -1/4 has b^2 - 4ac = 1
    z0 = -2.0
    return integrate(K.XXXII, Params(), InitialData.nonzero(z0, z0 * z0 - 0.25, 2 * z0), 4.0)


def piv0_through_zero(w2, d=1.0):
    # tangential zero of piv0 at z = 0, made interior by restarting at z = -0.6 d
    p = Params()
    back = integrate(K.PIV0, p, InitialData.raw(0.0, 0.0, 0.0, w2), -0.6 * d)
    j = back.nodes[-1].jet
    return integrate(K.PIV0, p, InitialData.raw(j.z, j.w, j.w1, j.w2), 1.2 * d)


@pytest.fixture(scope="module")
def interior_tangency():
    return piv0_through_zero(2.0)


def test_sign_change_zeros_of_quadratic(xxxii_through_two_roots):
    events = locate_zeros(xxxii_through_two_roots)
    assert len(events) == 2
    assert abs(events[0].a - (-0.5)) < 1e-9
    assert abs(events[1].a - 0.5) < 1e-9
    assert abs(events[0].slope - (-1.0)) < 1e-9
    assert abs(events[1].slope - 1.0) < 1e-9
    # at a zero xxxii's res2 = 2 w w'' - w'^2 + 1 reduces to 1 - w'^2, so slopes
    # +-1 are the ones it allows; with beta = 0 both are the nearer, plus_beta
    assert all(e.branch is ZeroBranch.PLUS_BETA for e in events)


def test_refined_points_sit_on_zeros(xxxii_through_two_roots):
    t = xxxii_through_two_roots
    for e in locate_zeros(t):
        assert abs(dense_eval(t, e.a).w) < t.tol.abs


def test_exact_node_zero_is_the_one_event_of_its_interval():
    # w = z^2 - 1/4 from z = 0 ends on its root z = 0.5 with w = 0 exactly;
    # joined to the run on from there, that node closes one interval and opens
    # the next, and it is the one event of both
    first = integrate(K.XXXII, Params(), InitialData.nonzero(0.0, -0.25, 0.0), 0.5)
    hit = first.nodes[-1]
    assert hit.jet.w == 0.0
    on = integrate(K.XXXII, Params(), InitialData.raw(hit.jet.z, 0.0, hit.jet.w1, hit.jet.w2), 1.0)
    later = tuple(n._replace(s=hit.s + n.s) for n in on.nodes[1:])
    joined = first._replace(nodes=first.nodes + later)
    assert len(joined.nodes) == 3
    events = locate_zeros(joined)
    assert len(events) == 1
    assert events[0].a == hit.jet.z and events[0].slope == hit.jet.w1


def test_seed_zero_event_classified_plus_beta():
    t = integrate(K.PIV, Params(0.0, 1.0), InitialData.zero(0.0, +1, 0.0), 1.0)
    events = locate_zeros(t)
    assert len(events) == 1
    e = events[0]
    assert e.a == 0.0
    assert e.slope == 1.0
    assert e.branch is ZeroBranch.PLUS_BETA


def test_minus_branch_classification():
    t = integrate(K.PIV, Params(0.0, 2.0), InitialData.zero(0.0, -1, 0.5), 0.5)
    e = locate_zeros(t)[0]
    assert e.branch is ZeroBranch.MINUS_BETA
    assert e.slope == -2.0


def test_identically_zero_yields_no_events():
    t = integrate(K.PIV0, Params(), InitialData.raw(0.0, 0.0, 0.0, 0.0), 2.0)
    assert t.max_abs_w() == 0.0
    assert locate_zeros(t) == ()


def test_interior_tangency_slope_and_curvature(interior_tangency):
    t = interior_tangency
    events = locate_zeros(t)
    assert len(events) == 1
    e = events[0]
    assert abs(e.a) < 1e-9
    assert abs(e.slope) < 1e-6
    assert abs(e.curvature - 2.0) < 1e-6
    assert e.curvature_nonzero is True
    assert e.branch is ZeroBranch.PLUS_BETA  # slope ~ 0 matches +-0 at beta = 0
    assert abs(dense_eval(t, e.a).w) < t.tol.abs


def test_refinement_does_not_worsen_node_candidates(interior_tangency):
    t = interior_tangency
    e = locate_zeros(t)[0]
    nearest = min(t.nodes, key=lambda n: abs(n.jet.z - e.a))
    assert abs(dense_eval(t, e.a).w) <= abs(nearest.jet.w)


def test_curvature_theorem_report(interior_tangency):
    events = locate_zeros(interior_tangency)
    report = check_curvature_theorem(events, interior_tangency)
    assert report.ok
    assert len(events) == 1 and report.violations == ()
    assert events[0].branch is not ZeroBranch.UNRESOLVED and events[0].curvature_nonzero


def test_curvature_check_rejects_nonzero_beta():
    t = integrate(K.PIV, Params(0.0, 1.0), InitialData.zero(0.0, +1, 0.0), 0.5)
    with pytest.raises(WrongKind):
        check_curvature_theorem(locate_zeros(t), t)


def test_curvature_check_rejects_wrong_kind(xxxii_through_two_roots):
    with pytest.raises(WrongKind):
        check_curvature_theorem((), xxxii_through_two_roots)


def test_curvature_check_rejects_complex_path():
    init = InitialData.raw(0.0, 0.5, 0.0, 0.0, ScalarField.COMPLEX, 1j)
    t = integrate(K.PIV0, Params(), init, 0.5)
    with pytest.raises(WrongKind, match="REAL"):
        check_curvature_theorem(locate_zeros(t), t)


@pytest.mark.parametrize("w2,nonzero", [(5e-9, False), (2e-8, True)])
def test_curvature_floor_lies_between_5e_9_and_2e_8(w2, nonzero):
    t = integrate(K.PIV0, Params(), InitialData.zero(0.0, +1, w2), 0.5)
    events = locate_zeros(t)
    assert [(e.a, e.curvature, e.branch) for e in events] == [(0.0, w2, ZeroBranch.PLUS_BETA)]
    assert events[0].curvature_nonzero is nonzero


def test_raw_zero_seed_event_keeps_curvature():
    t = integrate(K.PIV0, Params(), InitialData.raw(0.0, 0.0, 0.0, 1.0), 1.0)
    events = locate_zeros(t)
    assert len(events) == 1
    e = events[0]
    assert e.a == 0.0 and e.slope == 0.0 and e.curvature == 1.0
    assert e.curvature_nonzero is True
    report = check_curvature_theorem(events, t)
    assert report.ok


def test_vacuous_report_for_zero_solution():
    t = integrate(K.PIV0, Params(), InitialData.raw(0.0, 0.0, 0.0, 0.0), 1.0)
    report = check_curvature_theorem(locate_zeros(t), t)
    assert report.ok and report.violations == ()


def test_pole_trajectory_is_scannable():
    t = integrate(K.XXIX, Params(), InitialData.nonzero(0.0, 1.0, 1.0), 2.0)
    events = locate_zeros(t)  # nodes before the pole are scanned; no zeros here
    assert events == ()


@pytest.mark.parametrize("w0", [0.763157894736842, 0.8105263157894737])
def test_pole_run_minima_are_not_zeros(w0):
    # ordinary |w| minima of this positive solution (w ~ 3) on its way to a
    # pole are refined as candidates; none is a zero
    t = integrate(K.PIV0, Params(), InitialData.nonzero(-3.0, w0, 0.0), 6.0)
    assert t.status is TrajectoryStatus.POLE
    assert min(n.jet.w for n in t.nodes) > 0.0
    assert locate_zeros(t) == ()


def test_complex_on_path_zero_at_seed():
    # a zero sitting on a complex path is found when a node lands on it
    d = complex(2 ** -0.5, 2 ** -0.5)
    t = integrate(
        K.PIV,
        Params(0.0, 1.0),
        InitialData.zero(0.0, +1, 0.0, field=ScalarField.COMPLEX, direction=d),
        0.7,
    )
    events = locate_zeros(t)
    assert len(events) == 1
    e = events[0]
    assert e.a == 0.0 + 0.0j
    assert e.slope == 1.0 + 0.0j
    assert e.branch is ZeroBranch.PLUS_BETA


def test_complex_sub_node_dip_is_not_claimed():
    # the path passes eps = 1e-5 beside a zero: the dip of |w| between nodes
    # is refined, then rejected because |w| ~ 1e-5 there exceeds tol.abs
    p = Params(0.0, 1.0)
    eps = 1e-5
    seed = integrate(K.PIV, p, InitialData.zero(0.0, +1, 0.0), 0.5)
    j = dense_eval(seed, 0.4)
    init = InitialData.raw(
        complex(0.4, eps),
        complex(j.w),
        complex(j.w1),
        complex(j.w2),
        field=ScalarField.COMPLEX,
        direction=complex(-1.0, 0.0),
    )
    t = integrate(K.PIV, p, init, 0.8)
    ws = [abs(n.jet.w) for n in t.nodes]
    assert min(ws) > 1e-4 * max(ws)  # the dip never surfaces at node level
    assert locate_zeros(t) == ()


def _off_axis_direction(rng):
    # at least 0.5 rad off the real axis, so the path meets no second root
    return cmath.exp(1j * rng.choice((1, -1)) * rng.uniform(0.5, math.pi - 0.5))


def _xvii_double_root(rng, field):
    # w = c (z - a)^2 solves xvii, with a double root at a
    a = rng.uniform(-1.0, 1.0)
    c = rng.choice((1, -1)) * rng.uniform(0.5, 2.0)
    d = 1.0 if field is ScalarField.REAL else _off_axis_direction(rng)
    s0 = rng.uniform(0.3, 1.0)
    z0 = a - s0 * d
    init = InitialData.nonzero(z0, c * (z0 - a) ** 2, 2 * c * (z0 - a), field=field, direction=d)
    return integrate(K.XVII, Params(), init, s0 + rng.uniform(0.5, 1.5)), a


def _xxxii_complex_simple_root(rng):
    # w = A z^2 + B z + C with B^2 - 4AC = 1 solves xxxii; its roots are real
    A = rng.choice((1, -1)) * rng.uniform(0.5, 2.0)
    B = rng.uniform(-1.0, 1.0)
    C = (B * B - 1.0) / (4.0 * A)
    root = (1.0 - B) / (2.0 * A)
    d = _off_axis_direction(rng)
    s0 = rng.uniform(0.3, 1.0)
    z0 = root - s0 * d
    init = InitialData.nonzero(z0, A * z0 * z0 + B * z0 + C, 2 * A * z0 + B, field=ScalarField.COMPLEX, direction=d)
    return integrate(K.XXXII, Params(), init, s0 + rng.uniform(0.5, 1.5)), root


@pytest.mark.parametrize(
    "draw,tol",
    [
        (lambda rng: _xvii_double_root(rng, ScalarField.REAL), 1e-6),
        (lambda rng: _xvii_double_root(rng, ScalarField.COMPLEX), 1e-6),
        (_xxxii_complex_simple_root, 1e-9),
    ],
    ids=["xvii-double-real", "xvii-double-complex", "xxxii-simple-complex"],
)
def test_closed_form_zero_found_once(draw, tol):
    rng = random.Random(5)
    for _ in range(200):
        t, root = draw(rng)
        events = locate_zeros(t)
        assert len(events) == 1, (t.z0, t.direction, events)
        assert abs(events[0].a - root) < tol


@pytest.mark.parametrize("w2", [0.1, 0.3, 1.0])
def test_piv0_tangential_zero_resolved(w2):
    events = locate_zeros(piv0_through_zero(w2))
    assert len(events) == 1
    e = events[0]
    assert abs(e.a) < 1e-9
    assert abs(e.slope) < 1e-6
    assert e.branch is not ZeroBranch.UNRESOLVED


def _piv0_through(j0):
    # restart at z = -0.6 so that the seed at z = 0 is interior
    back = integrate(K.PIV0, Params(), InitialData.raw(0.0, *j0), -0.6)
    j = back.nodes[-1].jet
    return integrate(K.PIV0, Params(), InitialData.raw(j.z, j.w, j.w1, j.w2), 1.2)


@pytest.mark.parametrize("w2", [-1.0, -2.0, 5.0])
def test_piv0_tangential_zero_resolved_against_drifted_c(w2):
    # at beta = 0 a jet with C* = -eps^2 < 0 crosses zero twice, at slopes
    # +-eps, and one with C* > 0 misses zero by about C* / (2 |w''|).  Either
    # way the extremum between is the one event: a tangential zero, with the
    # slope 0 it has there
    eps = 1e-6
    for j0, crossings in (((0.0, eps, w2), 2), ((math.copysign(1e-12, w2), 0.0, w2), 0)):
        t = _piv0_through(j0)
        assert (t.nodes[0].c < 0) == (crossings == 2)
        events = locate_zeros(t)
        assert len(events) == 1
        e = events[0]
        assert abs(e.a) < 1e-5 and abs(e.slope) < 1e-12 and abs(e.curvature - w2) < 1e-6
        assert e.branch is ZeroBranch.PLUS_BETA
        assert check_curvature_theorem(events, t).ok
        probe = 4.0 * eps / abs(w2)
        signs = [dense_eval(t, e.a + k * probe).w > 0 for k in (-1, 0, 1)]
        assert (signs[0] != signs[1] and signs[1] != signs[2]) == (crossings == 2)


@pytest.mark.parametrize(
    "kind,init,span",
    [
        (K.PIV0, InitialData.raw(-1.0, 0.3, 0.2, -0.5), 2.0),
        (K.XVII, InitialData.raw(0.0, 1.0, 0.5, -1.0), 3.0),
        (K.XXIX, InitialData.raw(0.0, 0.5, 0.1, -3.0), 1.5),
    ],
    ids=["piv0", "xvii", "xxix"],
)
def test_zero_resolved_at_the_slope_its_first_integral_allows(kind, init, span):
    # res2 is a first integral that reduces to -w'^2 at a zero (beta = 0), so
    # a jet off the solution set crosses zero at slope -sqrt(-res2_0), not 0
    t = integrate(kind, Params(), init, span)
    res2_0 = t.nodes[0].res2
    assert res2_0 < -0.1
    events = locate_zeros(t)
    assert len(events) == 1
    assert abs(events[0].slope + math.sqrt(-res2_0)) < 1e-8
    assert events[0].branch is ZeroBranch.PLUS_BETA


def test_sqrt_piv0_zero_is_judged_on_its_square():
    # 4 f'' = f (3 f^2 + 2t)(f^2 + 2t) vanishes with f, and f' is free there;
    # the piv0 solution w = f^2 has slope 2 f f' = 0 and curvature 2 f'^2 != 0
    t = integrate(K.SQRT_PIV0, Params(), InitialData.raw(0.0, -0.3, 1.0, 0.0), 1.0)
    events = locate_zeros(t)
    assert len(events) == 1
    e = events[0]
    assert abs(e.a - 0.30015) < 1e-5
    # the event reports f's own slope and curvature
    assert abs(e.slope - 0.99899) < 1e-5 and abs(e.curvature) < 1e-12
    assert e.branch is ZeroBranch.PLUS_BETA and e.curvature_nonzero is True


def test_verdict_reads_the_stored_monitor():
    # raw piv0 data off the solution set crosses zero at slope -sqrt(-res2*);
    # with the stored monitor blinded to 0 the same slope is unresolved
    t = integrate(K.PIV0, Params(), InitialData.raw(-1.0, 0.3, 0.2, -0.5), 2.0)
    assert [e.branch for e in locate_zeros(t)] == [ZeroBranch.PLUS_BETA]
    blind = t._replace(nodes=tuple(n._replace(res2=0.0) for n in t.nodes))
    events = locate_zeros(blind)
    assert len(events) == 1
    assert events[0].branch is ZeroBranch.UNRESOLVED
    assert check_curvature_theorem(events, blind).violations == events


@pytest.mark.parametrize("sign,branch", [(1.0, ZeroBranch.PLUS_BETA), (-1.0, ZeroBranch.MINUS_BETA)])
def test_slope_tolerance_is_one_part_in_a_million(sign, branch):
    # at beta = 1 on a consistent jet (slope2 = beta^2), a slope 5e-7 off
    # +-beta is resolved and one 2e-6 off is not; the offsets are written
    # out, not read from SLOPE_TOL, so that a changed tolerance fails here
    for off, want in ((5e-7, branch), (-5e-7, branch), (2e-6, ZeroBranch.UNRESOLVED), (-2e-6, ZeroBranch.UNRESOLVED)):
        for real_mode in (True, False):
            assert zeros._classify(sign * (1.0 + off), 1.0, 1.0, real_mode) is want


def test_complex_path_meets_zero_between_nodes():
    # built like the complex class of the postprocess benchmark pool
    p = Params(0.3, 1.0)
    d = cmath.exp(0.25j * math.pi)
    back = integrate(K.PIV, p, InitialData.zero(0j, +1, 0.5 + 0j, ScalarField.COMPLEX, -d), 0.6)
    j = back.nodes[-1].jet
    t = integrate(K.PIV, p, InitialData.raw(j.z, j.w, j.w1, j.w2, ScalarField.COMPLEX, d), 1.2)
    assert all(n.jet.w != 0 for n in t.nodes)
    events = locate_zeros(t)
    assert len(events) == 1
    assert events[0].branch is ZeroBranch.PLUS_BETA
    assert abs(events[0].a) < 1e-9


def test_sign_change_over_a_turning_point_step():
    # w = z^2 - 1/4 is integrated exactly, so one long step spans both the
    # turning point z = 0 and the root z = 1/2; d|w|^2/ds is positive at both
    # ends of that interval, and only the sign change of w reveals the root
    z0 = -0.41385964912280704
    t = integrate(K.XXXII, Params(), InitialData.nonzero(z0, z0 * z0 - 0.25, 2 * z0), 1.5)
    zs = [n.jet.z for n in t.nodes]
    assert any(lo < 0.0 and 0.5 < hi for lo, hi in zip(zs, zs[1:]))
    events = locate_zeros(t)
    assert len(events) == 1
    assert abs(events[0].a - 0.5) < 1e-9


@pytest.mark.parametrize(
    "r,w0,w1",
    [(0.015, 0.02625, -2.5)] + [(r, 50.0 * r * (r + 0.02), -50.0 * (2.0 * r + 0.02)) for r in (0.03, 0.12, 0.285)],
)
def test_close_roots_of_one_quadratic_each_found_once(r, w0, w1):
    # w = 50 (z - r)(z - r - 0.02) solves xxxii (b^2 - 4ac = 1); its two roots
    # fall in adjacent node intervals.  The first case is the run of
    # `painleve4 zeros --eq xxxii --z0 0 --w0 0.02625 --w1 -2.5 --span 1`
    t = integrate(K.XXXII, Params(), InitialData.nonzero(0.0, w0, w1), 1.0)
    events = locate_zeros(t)
    assert len(events) == 2, events
    assert abs(events[0].a - r) < 1e-12 and abs(events[1].a - (r + 0.02)) < 1e-12, events


def test_root_on_the_final_node_is_reported():
    # w = z^2 - 1/4 ends on its root z = 0.5: one exact step, whose last node holds w = 0
    t = integrate(K.XXXII, Params(), InitialData.nonzero(0.0, -0.25, 0.0), 0.5)
    end = t.nodes[-1].jet
    assert len(t.nodes) == 2 and end.w == 0.0
    events = locate_zeros(t)
    assert len(events) == 1
    assert abs(events[0].a - 0.5) < 1e-12


@pytest.mark.parametrize("span", [0.49, -0.49])
def test_path_ending_short_of_a_root_reports_none(span):
    # |w| = 0.0099 at the end: still falling, but not on the zero set
    t = integrate(K.XXXII, Params(), InitialData.nonzero(0.0, -0.25, 0.0), span)
    assert locate_zeros(t) == ()


def test_path_ending_past_a_root_reports_it_once():
    # w changes sign inside the one exact step, so its bisection owns the root
    t = integrate(K.XXXII, Params(), InitialData.nonzero(0.0, -0.25, 0.0), 0.5 + 1e-9)
    events = locate_zeros(t)
    assert len(events) == 1 and abs(events[0].a - 0.5) < 1e-12


@pytest.mark.parametrize(
    "z0,span",
    [(-0.886, 2.0), (-2.0, 4.0), (2.0, -4.0), (0.3, -1.0)],
)
def test_every_root_of_one_long_step_is_found(z0, span):
    # w = z^2 - 1/4 is one exact step, so both roots +-0.5 share one interval
    t = integrate(K.XXXII, Params(), InitialData.nonzero(z0, z0 * z0 - 0.25, 2 * z0), span)
    assert len(t.nodes) == 2
    roots = sorted(x for x in (-0.5, 0.5) if min(z0, z0 + span) < x < max(z0, z0 + span))
    events = locate_zeros(t)
    assert sorted(e.a for e in events) == pytest.approx(roots, abs=1e-12)
    assert [e.a for e in events] == sorted((e.a for e in events), reverse=span < 0)
    for e in events:
        assert abs(abs(e.slope) - 1.0) < 1e-12


def test_beta_zero_tangency_of_the_readme_sweep_is_one_event():
    # README sweep cell alpha = 1.6, beta = 0: near its tangency the computed w
    # crosses twice at slopes +-sqrt(-C*) or misses zero by rounding, as the
    # drifted C* falls below or above 0; either way the one event is the
    # extremum, with slope 0
    t = integrate(K.PIV, Params(1.6, 0.0), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0)
    events = locate_zeros(t)
    assert len(events) == 1
    assert abs(events[0].slope) < 5e-9
    assert events[0].branch is ZeroBranch.PLUS_BETA and events[0].curvature_nonzero


def _bisect(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """The zero search's root refinement before safeguarded Newton: the reference for `zeros._refine`.

    Bisects a sign change of f on [lo, hi] until the midpoint is an
    endpoint; returns an exact zero of f if one is met, otherwise the final
    endpoint with the smaller |f|.
    """
    for _ in range(zeros._BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        v = f(mid)
        if v == 0:
            return mid
        if (v < 0) == (f_lo < 0):
            lo, f_lo = mid, v
        else:
            hi, f_hi = mid, v
    return lo if abs(f_lo) <= abs(f_hi) else hi


class _Refinement(NamedTuple):
    """One root the zero search refined: what f was, the new routine's double, the reference's, and the trial points read."""

    f: object
    got: float
    want: float
    trials: int


@contextlib.contextmanager
def _beside_the_reference():
    """Record every `zeros._refine` call of the zero search, run again by `_bisect` on the same bracket."""
    calls = []
    refine = zeros._refine

    def both(f, lo, hi, at_lo, at_hi):
        trials = 0

        def counted(s):
            nonlocal trials
            trials += 1
            return f(s)

        got = refine(counted, lo, hi, at_lo, at_hi)
        calls.append(_Refinement(f, got, _bisect(lambda s: f(s)[0], lo, hi, at_lo[0], at_hi[0]), trials))
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zeros, "_refine", both)
        yield calls


def _ends_a_sign_change(f, x: float) -> bool:
    """x is an exact zero of f, or f's sign differs at x and at one of its neighbouring doubles."""
    v = f(x)[0]
    return v == 0 or any((f(math.nextafter(x, y))[0] < 0) != (v < 0) for y in (-math.inf, math.inf))


def _crosses(f, x: float) -> bool:
    """f is nonzero at x and has the other sign, nonzero, at a neighbouring double."""
    v = f(x)[0]
    return any(f(math.nextafter(x, y))[0] * v < 0 for y in (-math.inf, math.inf))


def _reference_branch(c: _Refinement) -> str:
    """The rule of `_lands_as_the_reference` that decides c: "same double", "sign flips", "two roots" or "miss"."""
    if c.got == c.want:
        return "same double"
    lo, hi = sorted((c.got, c.want))
    xs = [math.nextafter(lo, -math.inf)]
    while xs[-1] <= hi and len(xs) < 66:
        xs.append(math.nextafter(xs[-1], math.inf))
    if xs[-1] <= hi:
        return "miss"  # more than 64 doubles apart
    signs = [c.f(x)[0] < 0 for x in xs]
    flips = sum(a != b for a, b in zip(signs, signs[1:]))
    if flips >= 2 and _ends_a_sign_change(c.f, c.got) and _ends_a_sign_change(c.f, c.want):
        return "sign flips"
    zero_got, zero_want = c.f(c.got)[0] == 0, c.f(c.want)[0] == 0
    if (zero_got or zero_want) and (zero_got or _crosses(c.f, c.got)) and (zero_want or _crosses(c.f, c.want)):
        return "two roots"
    return "miss"


def _lands_as_the_reference(c: _Refinement) -> bool:
    """The new routine's double is the reference's; or else both lie within 64 doubles and rounding shows f
    more than one root there: its sign flips more than once (an exact 0 read as +) and both end one of those
    sign changes, or one is an exact zero of f and the other is another exact zero or a crossing of f.

    `scripts/wide_search.py` counts the branches taken (`_reference_branch`), so that a widened rule shows."""
    return _reference_branch(c) != "miss"


def test_the_reference_check_accepts_another_double_only_where_rounding_shows_two_roots():
    x = [0.25]
    for _ in range(5):
        x.append(math.nextafter(x[-1], 1.0))

    def check(values, got, want):  # f read off values at six adjacent doubles x
        return _lands_as_the_reference(_Refinement(lambda s: (values[x.index(s)], 1.0), x[got], x[want], 1))

    # one crossing: the double beside the exact zero, or the far end of a sign change, is a miss
    assert not check([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0], 1, 2)
    assert not check([-2.0, -1.0, 0.5, 1.0, 2.0, 3.0], 2, 1)
    # an exact zero beside a crossing, two exact zeros, or a sign that flips back: two roots
    assert check([-2.0, 1.0, -0.0, 1.0, 2.0, 3.0], 1, 2)
    assert check([-2.0, 0.0, 0.0, 1.0, 2.0, 3.0], 2, 1)
    assert check([-2.0, 1.0, -1.0, 1.0, 2.0, 3.0], 1, 3)


def _refinements_through(p: Params, z_event, at_event: tuple, r: float, d, field=ScalarField.REAL):
    """The run that starts r before the jet at_event = (w, w', w'') at z_event, on the polynomial of
    piv's series there, and crosses it on the path z0 + s d; and the refinements its zero search makes."""
    series, _ = _step_kernel(KINDS[K.PIV].series)(p.alpha, z_event, *at_event, 0.0, 1.0, 1.0, _H_MIN, 1e-10, 1e-10)
    start = _jet_kernel(len(series))(series, -r * d)
    # a REAL path runs along the sign of its span, a COMPLEX one along its direction
    if field is ScalarField.REAL:
        init, span = InitialData.raw(z_event - r * d, *start), 2.0 * r * d
    else:
        init, span = InitialData.raw(z_event - r * d, *start, field=field, direction=d), 2.0 * r
    t = integrate(K.PIV, p, init, span)
    with _beside_the_reference() as calls:
        locate_zeros(t)
    return t, calls


def _check_simple_roots(calls) -> None:
    for c in calls:
        assert _lands_as_the_reference(c), c
        # simple roots: Newton settles in a few steps where halving took about 50
        assert c.trials <= 8, c


_unit = st.floats(-1.0, 1.0)
_event_step = st.floats(0.05, 0.5)  # how far before the event the run starts
_slope = st.floats(0.2, 2.0)
_sign = st.sampled_from((1.0, -1.0))
_depth = st.floats(-1e-11, 1e-11)  # |w| at a tangential extremum, below the default abs = 1e-10


@settings(max_examples=60, deadline=None)
@given(alpha=_unit, beta=_unit, z=_unit, r=_event_step, slope=_slope, sign=_sign, w2=st.floats(-2.0, 2.0))
def test_simple_crossing_refines_to_the_reference_double(alpha, beta, z, r, slope, sign, w2):
    _, calls = _refinements_through(Params(alpha, beta), z, (0.0, sign * slope, w2), r, 1.0)
    crossings = [c for c in calls if c.f.__name__ == "w_rate"]
    assume(crossings)
    _check_simple_roots(crossings)


@pytest.mark.xfail(strict=True, reason="Newton walks a plateau of equal w one double at a time; no fix is known")
def test_simple_crossing_on_a_rounding_plateau_settles_within_eight_trials():
    # an example of the test above that its derandomized draw never meets: from the sixth trial on, w reads
    # +6.9e-18 at three adjacent doubles and -6.9e-18 at the next, each Newton step from the positive end is
    # 1.25 ulp, and the bracket's far end stays at 0.21598582054965007, so the crossing takes 9 trials
    _, calls = _refinements_through(Params(-0.5, 0.0), 0.25, (0.0, 0.2, 2.0), 1 / 3, 1.0)
    crossings = [c for c in calls if c.f.__name__ == "w_rate"]
    assert [c.got for c in crossings] == [0.1318764804336631, 0.3333333328787953]
    _check_simple_roots(crossings)


@settings(max_examples=60, deadline=None)
@given(alpha=_unit, z=_unit, r=_event_step, depth=_depth, curvature=_slope, sign=_sign)
def test_tangential_extremum_refines_to_the_reference_double(alpha, z, r, depth, curvature, sign):
    t, calls = _refinements_through(Params(alpha, 0.0), z, (depth, 0.0, sign * curvature), r, 1.0)
    extrema = [c for c in calls if c.f.__name__ == "slope_rate" and abs(dense_eval_param(t, c.got).w) < t.tol.abs]
    assume(extrema)
    _check_simple_roots(extrema)


@settings(max_examples=60, deadline=None)
@given(alpha=_unit, beta=_unit, z=_unit, r=_event_step, size=_slope, sign=_sign, depth=_depth, tangential=st.booleans())
def test_backward_run_refines_to_the_reference_double(alpha, beta, z, r, size, sign, depth, tangential):
    # d = -1: f's s-derivative is -w' for w and -w'' for w', so a sign slip there shows
    if tangential:
        t, calls = _refinements_through(Params(alpha, 0.0), z, (depth, 0.0, sign * size), r, -1.0)
        roots = [c for c in calls if c.f.__name__ == "slope_rate" and abs(dense_eval_param(t, c.got).w) < t.tol.abs]
    else:
        t, calls = _refinements_through(Params(alpha, beta), z, (0.0, sign * size, 0.5), r, -1.0)
        roots = [c for c in calls if c.f.__name__ == "w_rate"]
    assume(roots)
    assert t.direction == -1.0
    _check_simple_roots(roots)


@settings(max_examples=60, deadline=None)
@given(
    alpha=_unit, beta=_unit, z=st.complex_numbers(max_magnitude=1.0), r=_event_step, depth=st.complex_numbers(max_magnitude=1e-11),
    slope=_slope, slope_angle=st.floats(0.0, 2.0 * math.pi), w2=st.complex_numbers(max_magnitude=2.0),
    path_angle=st.floats(0.0, 2.0 * math.pi),
)  # fmt: skip
def test_complex_path_minimum_refines_to_the_reference_double(alpha, beta, z, r, depth, slope, slope_angle, w2, path_angle):
    # q = Re(conj(w) w' d) rises through 0 at the minimum of |w| on the path
    d = cmath.exp(1j * path_angle)
    at_event = (complex(depth), cmath.rect(slope, slope_angle), complex(w2))
    _, calls = _refinements_through(Params(alpha, beta), complex(z), at_event, r, d, ScalarField.COMPLEX)
    minima = [c for c in calls if c.f.__name__ == "q_rate"]
    assume(minima)
    _check_simple_roots(minima)


def test_readme_sweep_events_land_on_the_reference_doubles():
    # every root the zero search refines in the README sweep is the double the
    # halving reference returns, so all 106 events keep every bit
    grid = cli._grid("alpha", -2.0, 2.0, 11)
    with _beside_the_reference() as calls:
        cells = cli.run_sweep(K.PIV, grid, grid, InitialData.nonzero(-1.0, 0.5, 0.0), 2.0, Tolerances())
    assert sum(len(cell.events) for cell in cells) == 106
    assert [c.got.hex() for c in calls] == [c.want.hex() for c in calls]
    assert max(c.trials for c in calls) <= 8
    assert sum(c.trials for c in calls) <= 6 * len(calls)


def _newton_misled(s):
    # f = s - 0.3 with a rate that points Newton the wrong way, and then nowhere
    return s - 0.3, (-1.0 if s < 0.5 else 0.0)


@pytest.mark.parametrize(
    "f,lo,hi",
    [
        (lambda s: (s * s - 2.0, 2.0 * s), 1.0, 2.0),
        (lambda s: (s - 0.75, 1.0), 0.5, 1.0),  # an exact zero, met on the first trial
        (_newton_misled, 0.0, 1.0),
        (lambda s: (math.copysign(1.0, s - 0.1), 0.0), 0.0, 1.0),  # a step: no rate at all
    ],
    ids=["sqrt2", "exact-zero", "misleading-rate", "step"],
)
def test_refine_keeps_the_bisection_contract(f, lo, hi):
    # an exact zero, or adjacent doubles and the endpoint with the smaller |f|,
    # within _BISECT_ITERS trials, however poor the rate is
    trials = 0

    def counted(s):
        nonlocal trials
        trials += 1
        return f(s)

    got = zeros._refine(counted, lo, hi, f(lo), f(hi))
    assert trials <= zeros._BISECT_ITERS
    assert got == _bisect(lambda s: f(s)[0], lo, hi, f(lo)[0], f(hi)[0])
    assert _ends_a_sign_change(f, got)


def test_refine_reaches_a_root_that_halving_runs_out_before():
    # a root at 1e-300 is about 1,000 halvings from [-1, 1]: bisection stops
    # after _BISECT_ITERS of them, on the endpoint 0.0, while Newton lands on it
    def f(s):
        return s - 1e-300, 1.0

    assert _bisect(lambda s: f(s)[0], -1.0, 1.0, -1.0, 1.0) == 0.0
    assert zeros._refine(f, -1.0, 1.0, f(-1.0), f(1.0)) == 1e-300


def _clusters_by_halving(jet_at, lo: float, hi: float, bound2: float, abs_tol: float, real_mode: bool) -> list:
    """The cluster search before its w'' certificate: the reference for `zeros._clusters`.

    Halves every piece that is not monotone until `_MAX_DEPTH`.
    """
    clusters: list[list] = []
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        c, r = 0.5 * (a + b), 0.5 * (b - a)
        w, w1, _ = jet_at(c)
        if abs(w) - abs(w1) * r - 0.5 * bound2 * r * r >= abs_tol:
            continue
        if real_mode and abs(w1) > bound2 * r:
            piece = (a, b, True)
        elif depth < zeros._MAX_DEPTH:
            stack.append((c, b, depth + 1))
            stack.append((a, c, depth + 1))
            continue
        else:
            piece = (a, b, False)
        if clusters and clusters[-1][-1][1] == a:
            clusters[-1].append(piece)
        else:
            clusters.append([piece])
    return clusters


def _zero_search(runs, reference: bool) -> tuple[list[str], int]:
    """Each run's events, and the jet reads of all their zero searches, by `zeros._clusters` or by the reference."""
    reads = 0

    def counting_kernel(size):
        jet = _jet_kernel(size)

        def counted(coeffs, t):
            nonlocal reads
            reads += 1
            return jet(coeffs, t)

        return counted

    def by_halving(jet_at, lo, hi, bound2, bound3, abs_tol, real_mode):
        return _clusters_by_halving(jet_at, lo, hi, bound2, abs_tol, real_mode)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zeros, "_jet_kernel", counting_kernel)
        if reference:
            patch.setattr(zeros, "_clusters", by_halving)
        events = [repr(locate_zeros(t)) for t in runs]
    return events, reads


def test_certified_pieces_keep_the_events_of_drawn_tangencies():
    # beta = 0 tangencies as in the benchmark's pool, w'' = +-10^u, crossed both
    # ways: the w'' certificate stops the halving around each one early
    rng = random.Random(28)
    runs = [
        piv0_through_zero(sign * 10.0 ** rng.uniform(-1.0, 1.0), d)
        for sign in (1.0, -1.0) for _ in range(50) for d in (1.0, -1.0)
    ]  # fmt: skip
    want, reference_reads = _zero_search(runs, reference=True)
    got, reads = _zero_search(runs, reference=False)
    assert "()" not in got  # every run finds its tangency
    assert got == want
    assert reads <= 0.6 * reference_reads


def test_certified_pieces_keep_the_events_of_the_readme_sweep():
    grid = cli._grid("alpha", -2.0, 2.0, 11)
    runs = [integrate(K.PIV, Params(a, b), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0) for a in grid for b in grid]
    want, reference_reads = _zero_search(runs, reference=True)
    got, reads = _zero_search(runs, reference=False)
    assert got == want
    assert reads <= reference_reads


def test_pieces_halve_to_max_depth_where_w1_and_w2_vanish_together():
    # w = (z - 0.3)^4 on one node interval of length 1: at 0.3, w' and w''
    # vanish together, so neither the monotone test nor the w'' certificate
    # stops the pieces around it before 12 halvings
    coeffs = tuple([math.comb(4, k) * (-0.3) ** (4 - k) for k in range(5)] + [0.0] * (ORDER - 4))
    jet = _jet_kernel(ORDER + 1)
    nodes = (
        TrajectoryNode(Jet3(0.0, *jet(coeffs, 0.0)), 0.0, 0.0, 0.0, 0.0),
        TrajectoryNode(Jet3(1.0, *jet(coeffs, 1.0)), 1.0, 0.0, 0.0, 1.0, coeffs),
    )
    t = Trajectory(K.PIV0, Params(), ScalarField.REAL, 1.0, Tolerances(), nodes, TrajectoryStatus.COMPLETED)
    pieces = []
    clusters = zeros._clusters

    def spy(*args):
        found = clusters(*args)
        pieces.extend(piece for cluster in found for piece in cluster)
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zeros, "_clusters", spy)
        locate_zeros(t)
    assert min(b - a for a, b, _ in pieces) == 1.0 / 4096

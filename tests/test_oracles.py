import ast
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from painleve4 import (
    DiscriminantViolation,
    EquationKind,
    InitialData,
    Jet3,
    MultipleZeros,
    NegativeW,
    Params,
    ScalarField,
    SingularInput,
    WrongKind,
    ZeroBranch,
    ZeroEvent,
    complete_initial_data,
    dense_eval,
    eval_quadratic,
    fit_quadratic,
    integrate,
    locate_zeros,
    residual2,
    sqrt_lift,
    square_push,
    xxix_integrals,
    xxix_pole_family,
    xxxii_u_integral,
)

K = EquationKind


class TestQuadratics:
    # fit_quadratic reads only z, w and w'; the jets' w'' = 0 is never used
    def test_fit_xxxii_hand_values(self):
        q = fit_quadratic(K.XXXII, Jet3(0.0, 1.0, 1.0, 0.0))
        assert (q.a, q.b, q.c) == (0.0, 1.0, 1.0)
        assert q.discriminant == 1.0
        q = fit_quadratic(K.XXXII, Jet3(0.0, 2.0, 3.0, 0.0))
        assert (q.a, q.b, q.c) == (1.0, 3.0, 2.0)
        assert q.discriminant == 1.0

    def test_fit_xvii_hand_values(self):
        q = fit_quadratic(K.XVII, Jet3(0.0, 1.0, 2.0, 0.0))
        assert (q.a, q.b, q.c) == (1.0, 2.0, 1.0)
        assert q.discriminant == 0.0

    def test_fit_rejects_w_zero(self):
        with pytest.raises(SingularInput):
            fit_quadratic(K.XXXII, Jet3(0.0, 0.0, 1.0, 0.0))

    def test_fit_rejects_other_kinds(self):
        with pytest.raises(WrongKind):
            fit_quadratic(K.PIV, Jet3(0.0, 1.0, 1.0, 0.0))

    def test_ill_conditioned_jet_trips_discriminant_gate(self):
        # cancellation at scale b^2 ~ 1e9 dwarfs the 1e-10 gate
        with pytest.raises(DiscriminantViolation):
            fit_quadratic(K.XXXII, Jet3(5.0, 1e-3, 10.0, 0.0))

    @given(
        z0=st.floats(min_value=-2.0, max_value=2.0),
        w0=st.floats(min_value=0.1, max_value=3.0),
        w1=st.floats(min_value=-3.0, max_value=3.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=150)
    # b^2 - 4ac is off by 1.8e-12 here, for xxxii at sign = 1 and xvii at sign = -1
    @example(z0=1.9020967278524434, w0=0.1, w1=3.0, sign=1.0)
    @example(z0=1.9020967278524434, w0=0.1, w1=3.0, sign=-1.0)
    # xvii's a = w1^2 / (4 w) is subnormal here, and b^2 - 4ac = -2e-323
    @example(z0=0.0, w0=2.0, w1=1.3147143510523162e-158, sign=1.0)
    @example(z0=0.0, w0=2.0, w1=1.3147143510523162e-158, sign=-1.0)
    def test_fitted_discriminant_holds(self, z0, w0, w1, sign):
        # b^2 - 4ac of the fitted (a, b, c) carries rounding in proportion to
        # the terms that cancel, with |c| <= |w| + |a| z0^2 + |b z0|; over
        # 200,000 fits drawn from this domain it stayed below 2 eps times them.
        # Gradual underflow adds up to 2^-1075 to each product or quotient
        # whatever its scale: to a = w1 w1 / (2w) / 2 at three operations,
        # which 4ac scales by 4|c|, and to b b and (4a) c at one each
        w = sign * w0
        for kind, target in ((K.XXXII, 1.0), (K.XVII, 0.0)):
            q = fit_quadratic(kind, Jet3(z0, w, w1, 0.0))
            terms = q.b * q.b + 4.0 * abs(q.a) * (abs(w) + abs(q.a) * z0 * z0 + abs(q.b * z0))
            underflow = 2.0 ** -1074 * (1.0 + 2.0 * abs(q.c) * (1.5 + 0.25 / abs(w)))
            assert abs(q.discriminant - target) <= 8.0 * 2.0 ** -52 * terms + underflow

    def test_eval_quadratic(self):
        q = fit_quadratic(K.XXXII, Jet3(0.0, 2.0, 3.0, 0.0))
        j = eval_quadratic(q, 0.0)
        assert (j.z, j.w, j.w1, j.w2) == (0.0, 2.0, 3.0, 2.0)
        q = fit_quadratic(K.XXXII, Jet3(0.0, 1.0, 1.0, 0.0))
        j = eval_quadratic(q, 5.0)
        assert (j.z, j.w, j.w1, j.w2) == (5.0, 6.0, 1.0, 0.0)

    def test_eval_quadratic_at_root(self):
        # w = z^2 - 1/4 at its positive root
        from painleve4 import QuadraticSolution

        q = QuadraticSolution(1.0, 0.0, -0.25, K.XXXII)
        j = eval_quadratic(q, 0.5)
        assert (j.w, j.w1, j.w2) == (0.0, 1.0, 2.0)


class TestXXIXIntegrals:
    def test_hand_values(self):
        v = xxix_integrals(Jet3(0.0, 1.0, 1.0, 2.0))
        assert (v.k, v.K, v.L) == (0.0, 0.0, 0.0)
        v = xxix_integrals(Jet3(0.0, 1.0, 2.0, 2.0))
        assert (v.k, v.K, v.L) == (0.0, 0.0, 3.0)
        v = xxix_integrals(Jet3(0.0, 1.0, 0.0, 3.0))
        assert (v.k, v.K, v.L) == (1.0, 2.0, -3.0)

    def test_pole_family_jets(self):
        j = xxix_pole_family(1.0, 0.0)
        assert (j.z, j.w, j.w1, j.w2) == (0.0, 1.0, 1.0, 2.0)
        j = xxix_pole_family(1.0, 0.5)
        assert (j.z, j.w, j.w1, j.w2) == (0.5, 2.0, 4.0, 16.0)

    def test_pole_family_singular_at_pole(self):
        with pytest.raises(SingularInput):
            xxix_pole_family(1.0, 1.0)

    @given(c=st.floats(min_value=-2, max_value=2), dz=st.floats(min_value=0.3, max_value=2.0), side=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=100)
    def test_pole_family_solves_xxix(self, c, dz, side):
        j = xxix_pole_family(c, c + side * dz)
        assert abs(residual2(K.XXIX, Params(), j)) < 1e-10
        v = xxix_integrals(j)
        scale = 1.0 + abs(j.w2) + abs(j.w) ** 4
        assert abs(v.k) < 1e-12 * scale
        assert abs(v.L) < 1e-12 * scale


class TestUIntegral:
    # xxxii_u_integral reads only w and w'; the jets' w'' = 0 is never used
    def test_hand_values(self):
        # w = z^2 + z at z = 1: K = (9 - 1)/8 = 1 = leading coefficient
        assert xxxii_u_integral(Jet3(1.0, 2.0, 3.0, 0.0)) == 1.0
        assert xxxii_u_integral(Jet3(0.0, 1.0, 1.0, 0.0)) == 0.0

    def test_rejects_nonpositive_w(self):
        with pytest.raises(SingularInput):
            xxxii_u_integral(Jet3(0.0, 0.0, 1.0, 0.0))
        with pytest.raises(SingularInput):
            xxxii_u_integral(Jet3(0.0, -1.0, 1.0, 0.0))

    @pytest.mark.parametrize("w,w1", [(2.0 + 0j, 3.0), (2.0, 3.0 + 0j)])
    def test_rejects_a_complex_jet(self, w, w1):
        with pytest.raises(SingularInput, match="REAL mode"):
            xxxii_u_integral(Jet3(1.0, w, w1, 0.0))

    def test_constant_along_trajectory_and_equals_a(self):
        q = fit_quadratic(K.XXXII, Jet3(0.0, 2.0, 3.0, 0.0))
        t = integrate(K.XXXII, Params(), InitialData.nonzero(0.0, 2.0, 3.0), 4.0)
        ks = [xxxii_u_integral(n.jet) for n in t.nodes if n.jet.w > 0]
        assert len(ks) == len(t.nodes)
        assert max(abs(k - q.a) for k in ks) < 1e-8


@pytest.fixture(scope="module")
def tangency_run():
    p = Params()
    back = integrate(K.PIV0, p, InitialData.raw(0.0, 0.0, 0.0, 2.0), -0.6)
    j = back.nodes[-1].jet
    traj = integrate(K.PIV0, p, InitialData.raw(j.z, j.w, j.w1, j.w2), 1.2)
    return traj, locate_zeros(traj)[0]


class TestSqrtTransform:
    def test_square_push_hand_values(self):
        j = square_push(0.0, 2.0, 3.0)
        assert (j.z, j.w, j.w1, j.w2) == (0.0, 4.0, 12.0, 114.0)
        # cross-check: w'' completed by piv0 at (0, 4, 12) is 144/8 + 1.5*64 = 114
        assert complete_initial_data(K.PIV0, Params(), InitialData.nonzero(0.0, 4.0, 12.0)).w2 == 114.0

    def test_square_push_at_f_zero(self):
        for sigma in (0.5, -2.0):
            j = square_push(1.0, 0.0, sigma)
            assert (j.w, j.w1, j.w2) == (0.0, 0.0, 2.0 * sigma * sigma)

    @given(
        t=st.floats(min_value=-2, max_value=2),
        f=st.floats(min_value=-2, max_value=2),
        fdot=st.floats(min_value=-2, max_value=2),
    )
    @settings(max_examples=200)
    def test_square_push_residual_is_roundoff(self, t, f, fdot):
        j = square_push(t, f, fdot)
        scale = 1.0 + abs(2 * j.w * j.w2) + j.w1 * j.w1 + 3 * abs(j.w) ** 4 + abs(8 * j.z * j.w ** 3) + 4 * j.z * j.z * j.w * j.w
        assert abs(residual2(K.PIV0, Params(), j)) < 1e-13 * scale

    def test_lift_of_zero_solution_is_zero(self):
        t = integrate(K.PIV0, Params(), InitialData.raw(0.0, 0.0, 0.0, 0.0), 1.0)
        lift = sqrt_lift(t, None, (0.0, 1.0))
        assert all(sm.f == 0.0 and sm.fdot == 0.0 for sm in lift.samples)

    def test_lift_slope_limit_at_zero(self, tangency_run):
        traj, event = tangency_run
        lift = sqrt_lift(traj, event, (-0.5, 0.5))
        at_zero = [sm for sm in lift.samples if sm.f == 0.0]
        assert len(at_zero) == 1
        # w''(a) = 2, so the square root passes through with slope 1
        assert abs(at_zero[0].fdot - 1.0) < 1e-6
        assert lift.fdot_jump < 1e-7

    def test_lift_sign_rule(self, tangency_run):
        traj, event = tangency_run
        lift = sqrt_lift(traj, event, (-0.5, 0.5))
        for sm in lift.samples:
            if sm.t < event.a:
                assert sm.f <= 0.0
            if sm.t > event.a:
                assert sm.f >= 0.0

    def test_round_trip_squares_back(self, tangency_run):
        traj, event = tangency_run
        lift = sqrt_lift(traj, event, (-0.5, 0.5))
        worst = 0.0
        for sm in lift.samples:
            w_true = dense_eval(traj, sm.t).w
            worst = max(worst, abs(sm.f * sm.f - w_true))
        assert worst < 1e-9

    def test_missing_event_claim_raises(self, tangency_run):
        traj, _ = tangency_run
        with pytest.raises(MultipleZeros):
            sqrt_lift(traj, None, (-0.5, 0.5))

    @pytest.mark.parametrize(
        "w0,a", [(0.763157894736842, -1.3057727208590257), (0.8105263157894737, -0.6168225878011064)]
    )
    def test_lift_beside_a_pole_run_minimum(self, w0, a):
        # a is a |w| minimum with w ~ 3 on a pole-terminated run; it is no zero,
        # so the zero-free lift over its neighbourhood must not see a stray zero
        t = integrate(K.PIV0, Params(), InitialData.nonzero(-3.0, w0, 0.0), 6.0)
        lift = sqrt_lift(t, None, (a - 0.05, a + 0.05))
        assert lift.zero_t is None
        assert all(sm.f > 1.0 for sm in lift.samples)
        assert all(abs(sm.f * sm.f - dense_eval(t, sm.t).w) < 1e-9 for sm in lift.samples)

    def test_negative_w_raises(self):
        t = integrate(K.PIV0, Params(), InitialData.nonzero(0.0, -0.5, 0.0), 0.5)
        with pytest.raises(NegativeW):
            sqrt_lift(t, None, (0.0, 0.4))

    def test_wrong_kind_raises(self):
        t = integrate(K.XXXII, Params(), InitialData.nonzero(0.0, 2.0, 3.0), 1.0)
        with pytest.raises(WrongKind):
            sqrt_lift(t, None, (0.0, 1.0))

    def test_complex_path_raises(self):
        init = InitialData.raw(0.0, 0.5, 0.0, 0.0, field=ScalarField.COMPLEX, direction=1j)
        t = integrate(K.PIV0, Params(), init, 0.5)
        with pytest.raises(WrongKind, match="REAL"):
            sqrt_lift(t, None, (0.0, 0.4))

    @pytest.mark.parametrize("interval", [(0.3, 0.3), (0.4, 0.1)])
    def test_empty_interval_raises(self, tangency_run, interval):
        traj, _ = tangency_run
        with pytest.raises(ValueError, match="need lo < hi"):
            sqrt_lift(traj, None, interval)

    def test_interval_past_the_covered_span_raises(self, tangency_run):
        traj, _ = tangency_run
        with pytest.raises(ValueError, match="exceeds the covered span"):
            sqrt_lift(traj, None, (0.1, 0.7))

    def test_a_stated_zero_that_the_search_does_not_find_raises(self):
        # w stays at or above 0.5, so no lift may switch sign at the claimed zero
        t = integrate(K.PIV0, Params(), InitialData.nonzero(0.0, 0.5, 0.0), 1.0)
        assert locate_zeros(t) == ()
        with pytest.raises(ValueError, match="no zero of w"):
            sqrt_lift(t, ZeroEvent(0.5, 0.0, 1.0, ZeroBranch.PLUS_BETA, True), (0.2, 0.8))

    def test_event_outside_the_interval_raises(self, tangency_run):
        traj, event = tangency_run
        with pytest.raises(ValueError, match="outside the interval"):
            sqrt_lift(traj, event, (0.1, 0.5))

    def test_lift_residual_against_sqrt_equation(self, tangency_run):
        # f'' recovered from the w-jet must satisfy 4 f'' = f (3f^2+2t)(f^2+2t)
        traj, event = tangency_run
        lift = sqrt_lift(traj, event, (-0.5, 0.5))
        worst = 0.0
        checked = 0
        for sm in lift.samples:
            if abs(sm.f) < 0.05:
                continue  # the 1/f reconstruction amplifies dense-output noise
            checked += 1
            jet = dense_eval(traj, sm.t)
            fdd = (jet.w2 - 2.0 * sm.fdot * sm.fdot) / (2.0 * sm.f)
            res = 4.0 * fdd - sm.f * (3.0 * sm.f ** 2 + 2.0 * sm.t) * (sm.f ** 2 + 2.0 * sm.t)
            worst = max(worst, abs(res))
        # the samples sit at the nodes and the interval ends: a handful of long Taylor steps
        assert checked >= 4
        assert worst < 1e-7


def _strays(traj, event, interval):
    """The zeros of w in interval other than event that `sqrt_lift` reports as MultipleZeros, or None."""
    try:
        sqrt_lift(traj, event, interval)
    except MultipleZeros as error:
        head, strays = str(error).split(": ", 1)
        assert head == f"additional zeros inside {interval!r}"
        return ast.literal_eval(strays)
    except NegativeW:
        pass  # raised after the stray check
    return None


#: how far the zero search may put a run's tangency from the z_e it is built through: w' there is
#: c (z - z_e) plus the round trip's drift, of the order of the tolerances 1e-10, over |c| >= 0.5;
#: the search lands within 1.1e-14 of z_e on these runs
_TANGENCY_SLACK = 1e-9


def test_stray_zeros_are_the_tangency_each_run_is_built_through():
    # piv0 runs through a tangential zero at a drawn z_e, w'' = c there (c < 0 makes w
    # negative, which the lift refuses after its stray check), built by integrating back
    # from the zero jet at z_e and then forward over it; over drawn intervals and intervals
    # that end at nodes, a stray is reported exactly where no zero is claimed and z_e lies
    # inside, and it is the tangency.  The claimed event is built from z_e too, so nothing
    # here reads the zero search that sqrt_lift runs
    rng = random.Random(30)
    verdicts = {True: 0, False: 0}
    for _ in range(16):
        z_e, c, r = rng.uniform(-1.0, 1.0), rng.choice([1.0, -1.0]) * rng.uniform(0.5, 4.0), rng.uniform(0.3, 0.8)
        j = integrate(K.PIV0, Params(), InitialData.zero(z_e, +1, c), -r).nodes[-1].jet
        traj = integrate(K.PIV0, Params(), InitialData.raw(j.z, j.w, j.w1, j.w2), 2.0 * r)
        zs = [n.jet.z for n in traj.nodes]
        ends = [sorted(rng.uniform(zs[0], zs[-1]) for _ in range(2)) for _ in range(6)]
        ends += [sorted(rng.sample(zs, 2)) for _ in range(4)] + [(zs[0], zs[-1])]
        claim = ZeroEvent(z_e, 0.0, c, ZeroBranch.PLUS_BETA, True)
        for lo, hi in ends:
            if min(abs(lo - z_e), abs(hi - z_e)) <= _TANGENCY_SLACK:
                continue  # which side of an end the tangency lands is rounding
            inside = lo < z_e < hi
            for event in (None, claim) if inside else (None,):
                strays = _strays(traj, event, (lo, hi))
                if event is None and inside:
                    assert strays is not None and len(strays) == 1, (z_e, c, r, lo, hi, strays)
                    assert abs(strays[0] - z_e) <= _TANGENCY_SLACK, (z_e, c, r, lo, hi, strays)
                else:
                    assert strays is None, (z_e, c, r, lo, hi, event, strays)
                verdicts[strays is not None] += 1
    # some intervals hold a zero that is not claimed, and the lift still raises there
    assert min(verdicts.values()) >= 50, verdicts

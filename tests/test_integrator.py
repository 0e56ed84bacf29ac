import ast
import cmath
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from cmath import isfinite
from functools import reduce
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from painleve4 import (
    EquationKind,
    InitialData,
    InvalidInitialData,
    Jet3,
    OutOfSpan,
    Params,
    ScalarField,
    Tolerances,
    TrajectoryNode,
    TrajectoryStatus,
    complete_initial_data,
    constraint_c,
    dense_eval,
    dense_eval_param,
    integrate,
    residual2,
)
from painleve4.equations import KINDS, ORDER, compile_kernel, rhs3, series_lines
from painleve4.integrator import (
    _H_MIN,
    _STEP_ARGS,
    _cauchy_square,
    _jet_kernel,
    _newton_root,
    _reciprocal,
    _step_kernel,
    _step_lines,
    _tail,
    skip_bound_kernel,
)
from painleve4 import zeros
from painleve4.oracles import eval_quadratic, fit_quadratic, xxix_pole_family

K = EquationKind


def quadratic_jet(z):
    # w = z^2 + 3z + 2 solves xxxii (disc = 9 - 8 = 1)
    return Jet3(z, z * z + 3 * z + 2, 2 * z + 3, 2.0)


def _newton_step_to_pole(kind, j):
    """One Newton step from the jet j onto the simple zero u(a) = 0 at the pole a.

    piv and piv0 use u = 1/(w + z): their Laurent series
    w = e/(z - a) - a + O(z - a), e = +-1, makes u = e (z - a) + O((z - a)^3),
    so a = z + (w + z)/(w' + 1) is off by O((z - a)^3).  sqrt-piv0 takes the
    same step on the piv0 solution it squares to, w = f^2 and w' = 2 f f'.
    xxix uses u = 1/w, a = z + w/w', exact on its family 1/(c - z).
    """
    z, w, w1 = j.z, j.w, j.w1
    if kind is K.SQRT_PIV0:
        w, w1 = w * w, 2.0 * w * w1
    if kind is K.XXIX:
        return z + w / w1
    return z + (w + z) / (w1 + 1.0)


def _reference_pole(kind, p, init, estimate):
    """An independent pole location: `_newton_step_to_pole` from the end of a
    rel = abs = 1e-13 run on the real line that stops min(1e-7, 1e-3 d) short
    of `estimate`, d = |estimate - z0|: close enough that the step's
    O((z - a)^3) error is below rounding, and on the same side of z0."""
    span = estimate - init.z0
    short = span - math.copysign(min(1e-7, 1e-3 * abs(span)), span)
    assert short * span > 0
    tight = Tolerances(rel=1e-13, abs=1e-13)
    ref = integrate(kind, p, init, short, tight)
    assert ref.status is TrajectoryStatus.COMPLETED
    return _newton_step_to_pole(kind, ref.nodes[-1].jet)


def coefficients(kind, p, z, w, w1, w2):
    """a_0 .. a_p of the kind's series about the jet (z, w, w', w''), as its step kernel returns them."""
    return _step_kernel(KINDS[kind].series)(p.alpha, z, w, w1, w2, 0.0, 1.0, 1.0, _H_MIN, 1e-10, 1e-10)[0]


def _tail_error(coeffs, h, bound):
    """err_est: the largest tail term |a_k| h^k, k = p-3 .. p, over bound; 0.0 on a series that ends below them.

    A zero a_k's term is 0.0, its power of h, which may overflow, not taken.
    """
    terms = [abs(coeffs[k]) * h ** k if coeffs[k] else 0.0 for k in range(ORDER - 3, len(coeffs))]
    return max(terms, default=0.0) / bound


def _step_length(coeffs, bound: float) -> float | None:
    """Jorba-Zou step 0.5 min_k (bound / |a_k|)^(1/k) over k = p-3 .. p; None if a coefficient is not finite.

    inf when all four coefficients vanish: the series ends below them.
    """
    h = math.inf
    for k in range(ORDER - 3, ORDER + 1):
        m = abs(coeffs[k])
        if not m < math.inf:
            return None
        if m:
            h = min(h, (bound / m) ** (1.0 / k))
    return 0.5 * h


def _reference_step(coeffs, s, total, d, h_min, abs_tol, rel_tol):
    """A step from coeffs as three calls, `_step_length`, `_jet_kernel` and `_tail_error`: the reference for the step
    `_step_kernel` takes after its series."""
    bound = abs_tol + rel_tol * abs(coeffs[0])
    h = _step_length(coeffs, bound)
    if h is None:
        return None
    hit_end = h >= total - s
    if hit_end:
        h = total - s
    elif h < h_min:
        return None
    w, w1, w2 = _jet_kernel(len(coeffs))(coeffs, h * d)
    if not (isfinite(w) and isfinite(w1) and isfinite(w2)):
        return None
    return (total if hit_end else s + h), h, _tail_error(coeffs, h, bound), w, w1, w2


def _reference_dense_eval_param(traj, s):
    """`dense_eval_param` before it bisected and built its jet unchecked: a binary
    search, `_jet_kernel` and the validating `Jet3`; the reference for the new one."""
    nodes = traj.nodes
    s_end = nodes[-1].s
    pad = 1e-12 * max(1.0, s_end)
    if s < -pad or s > s_end + pad:
        raise OutOfSpan(f"s = {s!r} outside covered span [0, {s_end!r}]")
    s = min(max(s, 0.0), s_end)
    lo, hi = 0, len(nodes) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if nodes[mid].s <= s:
            lo = mid
        else:
            hi = mid
    if nodes[lo].s == s:
        return nodes[lo].jet
    if nodes[hi].s == s:
        return nodes[hi].jet
    left, series = nodes[lo], nodes[hi].series
    t = (s - left.s) * traj.direction
    return Jet3(left.jet.z + t, *_jet_kernel(len(series))(series, t))


def taylor_step(kind, j, h):
    """One Taylor step of signed length h from j: the new jet, and the tail error in units of the default tolerance."""
    coeffs = coefficients(kind, Params(), j.z, j.w, j.w1, j.w2)
    tol = Tolerances()
    return Jet3(j.z + h, *_jet_kernel(len(coeffs))(coeffs, h)), _tail_error(coeffs, abs(h), tol.abs + tol.rel * abs(j.w))


class TestTolerances:
    def test_defaults(self):
        import painleve4.integrator as integrator

        t = Tolerances()
        assert (t.rel, t.abs, integrator._H_MIN) == (1e-10, 1e-10, 1e-12)
        # no pole threshold to set: a run ends `pole` only at its series root
        with pytest.raises(TypeError):
            Tolerances(pole_cutoff=1e4)
        # the shortest step is a constant, not a tolerance
        with pytest.raises(TypeError):
            Tolerances(h_min=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel": 1e-15},
            {"abs": 0.0},
            {"rel": math.nan},
            {"rel": math.inf},
            {"abs": math.inf},
            {"abs": 2.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            Tolerances(**kwargs)


class TestCompleteInitialData:
    def test_zero_branch_uses_beta_slope(self):
        j = complete_initial_data(K.PIV, Params(0, 1), InitialData.zero(0.0, +1, 0.0))
        assert (j.z, j.w, j.w1, j.w2) == (0.0, 0.0, 1.0, 0.0)
        j = complete_initial_data(K.PIV, Params(0, 2.5), InitialData.zero(1.0, -1, 0.25))
        assert (j.z, j.w, j.w1, j.w2) == (1.0, 0.0, -2.5, 0.25)

    def test_nonzero_completes_curvature(self):
        j = complete_initial_data(K.PIV, Params(0, 0), InitialData.nonzero(0.0, 1.0, 0.0))
        assert (j.z, j.w, j.w1, j.w2) == (0.0, 1.0, 0.0, 1.5)

    def test_piv0_zero_seed_is_null_jet(self):
        j = complete_initial_data(K.PIV0, Params(), InitialData.zero(0.3, +1, 0.0))
        assert (j.w, j.w1, j.w2) == (0.0, 0.0, 0.0)

    def test_zero_mode_rejected_off_piv(self):
        with pytest.raises(InvalidInitialData):
            complete_initial_data(K.XXXII, Params(), InitialData.zero(0.0, +1, 0.0))

    def test_nonzero_mode_rejects_w0_zero(self):
        with pytest.raises(InvalidInitialData):
            InitialData.nonzero(0.0, 0.0, 1.0)

    @pytest.mark.parametrize("entry", ["z0", "w0", "w1", "w2"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)])
    def test_a_non_finite_entry_is_refused_by_its_own_name(self, entry, bad):
        # not by the jet's field it would fill, nor as a w'' the equation cannot complete
        values = {"z0": 0.5, "w0": 1.0, "w1": -2.0, "w2": 0.25, entry: bad}
        with pytest.raises(InvalidInitialData, match=f"^{entry}: must be finite, got "):
            InitialData(**values, field=ScalarField.COMPLEX)
        # in REAL mode too, where the entries not given stay None
        with pytest.raises(InvalidInitialData, match=f"^{entry}: must be finite, got "):
            InitialData(**{k: v for k, v in values.items() if k == entry or k in ("z0", "w0")})

    def test_real_mode_rejects_complex_entries(self):
        with pytest.raises(InvalidInitialData):
            InitialData.raw(0.0, 1.0 + 1.0j, 0.0, 0.0)

    @pytest.mark.parametrize("d", [-1.0, 2.0, 1j, complex(1.0, 0.0), 0.0, math.nan])
    def test_a_real_mode_direction_other_than_one_is_rejected(self, d):
        # a REAL path runs along the sign of its span: any other direction was once ignored, and the run went forward
        with pytest.raises(InvalidInitialData, match="^direction: "):
            InitialData.raw(0.0, 0.5, 0.0, 0.0, direction=d)

    def test_raw_passthrough(self):
        j = complete_initial_data(K.PIV, Params(1, 2), InitialData.raw(0.5, 1.0, 2.0, 3.0))
        assert (j.z, j.w, j.w1, j.w2) == (0.5, 1.0, 2.0, 3.0)

    def test_raw_sqrt_recomputes_second_derivative(self):
        j = complete_initial_data(K.SQRT_PIV0, Params(), InitialData.raw(0.0, 2.0, 0.0, 99.0))
        assert j.w2 == 24.0

    def test_the_entries_given_decide_the_kind_of_data(self):
        # a branch makes a zero seed, else a w2 a raw jet, else a regular point
        p = Params(0.0, 2.0)
        assert complete_initial_data(K.PIV, p, InitialData(0.0, branch=-1, w2=0.5)) == (0.0, 0.0, -2.0, 0.5)
        assert complete_initial_data(K.PIV, p, InitialData(0.0, w2=0.5)) == (0.0, 0.0, 0.0, 0.5)
        assert complete_initial_data(K.PIV, p, InitialData(0.0, 1.0)) == complete_initial_data(
            K.PIV, p, InitialData.nonzero(0.0, 1.0, 0.0)
        )

    @pytest.mark.parametrize("given", [{"w0": 1.0}, {"w1": 0.0}, {"w0": 0.0, "w1": 2.0}])
    def test_a_zero_seed_takes_no_w0_or_w1(self, given):
        with pytest.raises(InvalidInitialData, match="^branch: "):
            InitialData(0.0, branch=+1, **given)

    @pytest.mark.parametrize("w0", [None, -0.0])
    def test_a_regular_point_needs_a_nonzero_w0(self, w0):
        with pytest.raises(InvalidInitialData, match="^w0: "):
            InitialData(0.0, w0, 1.0)

    @pytest.mark.parametrize("kind", [K.PIV, K.XXIX])
    @pytest.mark.parametrize("w0", [1e80, -1e80, complex(1e80, -1e80)], ids=["plus", "minus", "complex"])
    def test_a_w0_whose_fourth_power_overflows_is_refused_by_name(self, kind, w0):
        # w'' is solved from res2, whose w ** 4 raises where w ** 3 alone would not
        field = ScalarField.COMPLEX if isinstance(w0, complex) else ScalarField.REAL
        with pytest.raises(InvalidInitialData, match="^w0: initial data overflows floating point$"):
            complete_initial_data(kind, Params(), InitialData(0.0, w0, 0.0, field=field))

    @pytest.mark.parametrize("kind", list(K))
    def test_completion_refuses_every_overflow_by_name(self, kind):
        # never a bare OverflowError, whichever entry is large
        for z0, w0, w1 in itertools.product([0.5, -1e200], [0.5, 1e40, -1e78, 1e160], [0.0, 1e160]):
            try:
                complete_initial_data(kind, Params(), InitialData(z0, w0, w1))
            except InvalidInitialData as exc:
                assert str(exc).startswith(("z0: ", "w0: ", "w1: ")), exc

    def test_signed_zeros_enter_as_positive_zeros(self):
        # as the command line has always written them: w0 = w1 = -0 gives node 0 the row of +0
        j = complete_initial_data(K.PIV, Params(), InitialData.raw(0.0, -0.0, -0.0, 0.5))
        assert [math.copysign(1.0, x) for x in j] == [1.0, 1.0, 1.0, 1.0]


class TestStep:
    def test_exact_on_quadratic(self):
        for h in (0.1, -0.4, 1.7):
            new, err = taylor_step(K.XXXII, quadratic_jet(0.0), h)
            exact = quadratic_jet(h)
            assert abs(new.w - exact.w) < 1e-12
            assert abs(new.w1 - exact.w1) < 1e-12
            assert abs(new.w2 - exact.w2) < 1e-12
            # err is measured in tolerance units; roundoff-level here
            assert err < 1e-5

    def test_zero_jet_stays_zero(self):
        new, err = taylor_step(K.PIV0, Jet3(0.0, 0.0, 0.0, 0.0), 0.5)
        assert (new.w, new.w1, new.w2) == (0.0, 0.0, 0.0)
        assert err == 0.0

    def test_xxix_agrees_with_pole_family_locally(self):
        # w = 1/(1-z): jet at 0 is (1, 1, 2)
        new, _ = taylor_step(K.XXIX, Jet3(0.0, 1.0, 1.0, 2.0), 1e-3)
        u = 1.0 / (1.0 - 1e-3)
        assert abs(new.w - u) < 1e-12
        assert abs(new.w1 - u * u) < 1e-12
        assert abs(new.w2 - 2 * u ** 3) < 1e-11

    def test_nonfinite_state_raises(self):
        # a series that overflows gives no step length, and its polynomial no finite state
        for kind, jet in (
            (K.XXIX, Jet3(0.0, 1e100, 1e100, 1e100)),
            (K.PIV, Jet3(0.0, 1e100 + 1e100j, 1e100j, -1e100 + 0j)),
            (K.SQRT_PIV0, Jet3(0.0, 1e100, 1e100, 0.0)),
        ):
            coeffs = coefficients(kind, Params(), jet.z, jet.w, jet.w1, jet.w2)
            for h in (10.0, -10.0):
                assert _step_length(coeffs, 1e-10) is None
                assert not all(map(isfinite, _jet_kernel(len(coeffs))(coeffs, h)))

    @pytest.mark.parametrize("h", [1e-2, -1e-2])
    def test_sqrt_residual_is_conserved(self, h):
        # 4 (f'' - F(t, f)) is a first integral of the sqrt-piv0 third-order flow
        j = Jet3(0.2, 0.7, -0.3, 1.0)
        r0 = residual2(K.SQRT_PIV0, Params(), j)
        assert abs(r0 - 2.835) < 1e-3
        new, _ = taylor_step(K.SQRT_PIV0, j, h)
        assert abs(residual2(K.SQRT_PIV0, Params(), new) - r0) < 1e-9

    @pytest.mark.parametrize("h", [1e-2, -1e-2])
    def test_complex_jet_with_real_step(self, h):
        # xxix pole family w = 1/(c - z) with a pole off the real line
        c = 1.0 + 0.5j

        def exact(z):
            u = 1.0 / (c - z)
            return Jet3(z, u, u * u, 2.0 * u ** 3)

        new, err = taylor_step(K.XXIX, exact(0.0), h)
        ref = exact(h)
        assert new.z == h
        assert isinstance(new.w, complex)
        for a, b in ((new.w, ref.w), (new.w1, ref.w1), (new.w2, ref.w2)):
            assert abs(a - b) < 1e-12
        assert math.isfinite(err)

    def test_order_p_convergence_on_pole_family(self):
        # w = 1/(1 - z) has a_k = 1 for every k, so a step of length h from
        # z = 0 drops sum over k > p of h^k = h^(p+1) / (1 - h): the local
        # error of an order-p step, here known exactly
        for h in (0.5, 0.4, 0.3):
            new, _ = taylor_step(K.XXIX, Jet3(0.0, 1.0, 1.0, 2.0), h)
            dropped = h ** (ORDER + 1) / (1.0 - h)
            assert abs((1.0 / (1.0 - h) - new.w) / dropped - 1.0) < 1e-3


class TestIntegrate:
    def test_xxxii_reproduces_quadratic(self):
        t = integrate(K.XXXII, Params(), InitialData.nonzero(0.0, 2.0, 3.0), 4.0)
        assert t.status is TrajectoryStatus.COMPLETED
        assert t.nodes[-1].jet.z == 4.0
        worst = max(abs(n.jet.w - (n.jet.z ** 2 + 3 * n.jet.z + 2)) for n in t.nodes)
        assert worst < 1e-9

    @pytest.mark.parametrize(
        "kind, init, span, w_end",
        [
            (K.XXXII, InitialData.nonzero(0.0, 2.0, 3.0), 200.0, 40602.0),  # w = z^2 + 3z + 2
            (K.XVII, InitialData.nonzero(0.0, 1.0, 4.0), 100.0, 40401.0),  # w = (2z + 1)^2
        ],
    )
    def test_quadratic_kinds_have_no_pole_backstop(self, kind, init, span, w_end):
        # one exact step takes |w| past 1e4: a quadratic has no pole, and w_bound still stops the run
        t = integrate(kind, Params(), init, span)
        assert (t.status, t.pole_estimate, len(t.nodes)) == (TrajectoryStatus.COMPLETED, None, 2)
        assert (t.nodes[-1].jet.z, t.nodes[-1].jet.w) == (span, w_end)
        t = integrate(kind, Params(), init, span, w_bound=1e3)
        assert (t.status, t.pole_estimate, len(t.nodes)) == (TrajectoryStatus.W_BOUND, None, 1)

    def test_piv_zero_seed_residual_both_sides(self):
        p = Params(0.0, 1.0)
        for span in (1.0, -1.0):
            t = integrate(K.PIV, p, InitialData.zero(0.0, +1, 0.0), span)
            assert t.status is TrajectoryStatus.COMPLETED
            assert max(abs(n.res2) for n in t.nodes) < 1e-8

    def test_xxix_pole_detection(self):
        t = integrate(K.XXIX, Params(), InitialData.nonzero(0.0, 1.0, 1.0), 2.0)
        assert t.status is TrajectoryStatus.POLE
        assert abs(t.pole_estimate - 1.0) < 1e-10

    @pytest.mark.parametrize("c", [0.7, -1.3, 1.0 + 0.5j])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_pole_estimate_exact_on_xxix_family(self, c, side):
        # one Newton step on 1/w is exact on w = 1/(c - z)
        assert abs(_newton_step_to_pole(K.XXIX, xxix_pole_family(c, c - side * 1e-4)) - c) < 1e-14

    def test_constant_xxix_jet_completes(self):
        # w = 2e4 is a constant solution of the third-order form: u = 1/w has
        # no root, so no large |w| alone ends a run
        t = integrate(K.XXIX, Params(), InitialData.raw(0.0, 2e4, 0.0, 0.0), 1.0)
        assert (t.status, t.pole_estimate) == (TrajectoryStatus.COMPLETED, None)
        # the constant series is exact: one step to the end of the span
        assert len(t.nodes) == 2 and t.stats["accepted"] == 1
        assert (t.nodes[-1].jet.z, t.nodes[-1].jet.w) == (1.0, 2e4)

    def test_piv_pole_estimates_match_tight_reference(self):
        # every pole cell of the README 11 x 11 sweep (z0 = -1, w0 = 0.5, span 2)
        grid = [-2.0 + 4.0 * i / 10 for i in range(11)]
        init = InitialData.nonzero(-1.0, 0.5, 0.0)
        poles = 0
        for alpha in grid:
            for beta in grid:
                t = integrate(K.PIV, Params(alpha, beta), init, 2.0)
                if t.status is not TrajectoryStatus.POLE:
                    continue
                poles += 1
                error = abs(t.pole_estimate - _reference_pole(K.PIV, Params(alpha, beta), init, t.pole_estimate))
                assert error < 1e-12
                # the estimate carries its own bound
                assert error <= t.pole_bound <= t.tol.abs + t.tol.rel * abs(t.pole_estimate)
        assert poles == 52

    @pytest.mark.parametrize(
        "eq, w0",
        [
            ("piv", 1000.0), ("piv", 5000.0), ("piv", 8000.0), ("piv", 1e4), ("piv", 1e5),
            ("piv", 1e6), ("piv", 1e7), ("piv", 1e8), ("sqrt-piv0", 100.0),
        ],
    )  # fmt: skip
    def test_large_amplitude_pole_matches_tight_reference(self, eq, w0, caplog):
        # from a turning point (f' = f'' = 0 for sqrt-piv0, whose f^2 starts
        # at 1e4) the jet is far from the Laurent regime: from 5000 on |w|
        # passes 1e4 before the series rule trusts a root, and the run steps
        # on until it does
        kind = K(eq)
        init = InitialData.raw(0.0, w0, 0.0, 0.0) if kind is K.SQRT_PIV0 else InitialData.nonzero(0.0, w0, 0.0)
        with caplog.at_level("INFO", logger="painleve4.integrator"):
            t = integrate(kind, Params(), init, 1.0)
        assert t.status is TrajectoryStatus.POLE
        assert "pole by series root" in caplog.text
        error = abs(t.pole_estimate - _reference_pole(kind, Params(), init, t.pole_estimate))
        assert error < 1e-12
        assert error <= t.pole_bound

    def test_monotone_nodes_and_metadata(self):
        t = integrate(K.PIV, Params(0.5, 0.5), InitialData.nonzero(0.0, 1.0, 0.0), -0.8)
        zs = [n.jet.z for n in t.nodes]
        assert all(b < a for a, b in zip(zs, zs[1:]))
        ss = [n.s for n in t.nodes]
        assert all(b > a for a, b in zip(ss, ss[1:]))
        assert all(n.err_est <= 1.0 for n in t.nodes[1:])

    def test_identically_zero_solution(self):
        t = integrate(K.PIV0, Params(), InitialData.raw(0.0, 0.0, 0.0, 0.0), 2.0)
        assert t.status is TrajectoryStatus.COMPLETED
        assert t.max_abs_w() == 0.0

    def test_determinism_bit_identical(self):
        runs = [integrate(K.PIV, Params(0.3, 0.7), InitialData.nonzero(0.0, 0.8, -0.2), 1.5) for _ in range(2)]
        a, b = runs
        assert len(a.nodes) == len(b.nodes)
        for na, nb in zip(a.nodes, b.nodes):
            assert (na.jet, na.h, na.err_est, na.c, na.res2, na.s) == (nb.jet, nb.h, nb.err_est, nb.c, nb.res2, nb.s)

    def test_reversibility(self):
        tol = Tolerances()
        p = Params(0.2, 1.1)
        fwd = integrate(K.PIV, p, InitialData.nonzero(0.0, 0.9, 0.1), 1.0, tol)
        assert fwd.status is TrajectoryStatus.COMPLETED
        end = fwd.nodes[-1].jet
        back = integrate(K.PIV, p, InitialData.raw(end.z, end.w, end.w1, end.w2), -1.0, tol)
        ret = back.nodes[-1].jet
        start = fwd.nodes[0].jet
        dist = max(
            abs(a - b) / (tol.abs + tol.rel * max(abs(a), abs(b)))
            for a, b in ((ret.w, start.w), (ret.w1, start.w1), (ret.w2, start.w2))
        )
        assert dist <= 1e2

    def test_constraint_drift_budget(self):
        # 1e3 * rel * span on desk-scale trajectories, C = 0 and C != 0 alike
        tol = Tolerances()
        for init in (
            InitialData.nonzero(-1.0, 0.9, 0.1),
            InitialData.raw(-1.0, 0.4, -0.3, 0.8),
        ):
            t = integrate(K.PIV, Params(0.2, 1.1), init, 2.0, tol)
            assert t.status is TrajectoryStatus.COMPLETED
            c0 = t.nodes[0].c
            drift = max(abs(n.c - c0) for n in t.nodes)
            assert drift <= 1e3 * tol.rel * 2.0

    def test_step_underflow_status(self, monkeypatch):
        # the step falls below an h_min of 0.05 at |w| = 2.7, before the series is searched for the pole
        import painleve4.integrator as integrator

        monkeypatch.setattr(integrator, "_H_MIN", 0.05)
        t = integrate(K.XXIX, Params(), InitialData.nonzero(0.0, 1.0, 1.0), 2.0)
        assert t.status is TrajectoryStatus.STEP_UNDERFLOW

    def test_step_budget_status_keeps_partial_trajectory(self, monkeypatch):
        import painleve4.integrator as integrator

        monkeypatch.setattr(integrator, "_MAX_STEPS", 5)
        t = integrate(K.PIV, Params(0.3, 0.7), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0)
        assert t.status is TrajectoryStatus.STEP_BUDGET
        assert t.status.value == "step_budget"
        assert len(t.nodes) == 6
        assert 0.0 < t.nodes[-1].s < 2.0

    def test_span_validation(self):
        with pytest.raises(ValueError):
            integrate(K.PIV, Params(), InitialData.nonzero(0.0, 1.0, 0.0), 0.0)

    def test_sqrt_rejects_complex(self):
        init = InitialData.raw(0.0, 0.5, 0.0, 0.0, field=ScalarField.COMPLEX, direction=1.0 + 0.0j)
        with pytest.raises(InvalidInitialData):
            integrate(K.SQRT_PIV0, Params(), init, 1.0)


class TestRejectedSteps:
    # a step is rejected when the rule asks for h below _H_MIN (on error) or
    # when the series is not finite; either ends the run STEP_UNDERFLOW
    def test_error_rejection_on_a_regular_run(self, monkeypatch):
        # this pole-free run completes with steps falling from 0.27 to 0.08;
        # with _H_MIN = 0.1 the first step the tolerance sets below it is
        # rejected, and the run keeps the nodes before it, bit for bit
        import painleve4.integrator as integrator

        init = InitialData.nonzero(-1.0, 0.5, 0.0)
        ref = integrate(K.PIV, Params(), init, 2.0)
        monkeypatch.setattr(integrator, "_H_MIN", 0.1)
        t = integrate(K.PIV, Params(), init, 2.0)
        assert ref.status is TrajectoryStatus.COMPLETED
        assert t.status is TrajectoryStatus.STEP_UNDERFLOW and t.pole_estimate is None
        n = len(t.nodes)
        assert 5 < n < len(ref.nodes) - 1
        assert [_node_bits(a) for a in t.nodes] == [_node_bits(b) for b in ref.nodes[:n]]
        assert ref.nodes[n].h < 0.1 <= min(node.h for node in t.nodes[1:])

    def test_non_finite_rejections_end_in_underflow(self):
        # w0 = 1e20: the coefficients (c - z0)^-(k+1) of 1/(c - z) overflow,
        # so the first step is refused and the run ends at its seed
        j = xxix_pole_family(1e-20, 0.0)
        t = integrate(K.XXIX, Params(), InitialData.raw(j.z, j.w, j.w1, j.w2), 1.0)
        assert t.status is TrajectoryStatus.STEP_UNDERFLOW
        assert len(t.nodes) == 1 and t.pole_estimate is None
        assert t.stats == {"accepted": 0, "h_min": None, "h_max": None}


@pytest.fixture
def series_builds(monkeypatch):
    """Count the series that `integrate` builds, one per trial step: the calls of its step kernel."""
    import painleve4.integrator as integrator

    calls = [0]
    build = integrator._step_kernel

    def counting_step_kernel(name):
        kernel = build(name)

        def counted(*args):
            calls[0] += 1
            return kernel(*args)

        return counted

    monkeypatch.setattr(integrator, "_step_kernel", counting_step_kernel)
    return calls


def _raw(j):
    return InitialData.raw(j.z, j.w, j.w1, j.w2)


# name -> (kind, params, initial data, span, _H_MIN or None, w_bound, _MAX_STEPS or None)
_STATS_RUNS = {
    "piv-pole": (K.PIV, Params(-1.2, 0.4), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0, None, math.inf, None),
    "piv-completed": (K.PIV, Params(0.3, 0.7), InitialData.nonzero(0.0, 0.8, -0.2), 1.5, None, math.inf, None),
    "xxix-non-finite-underflow": (K.XXIX, Params(), _raw(xxix_pole_family(1e-20, 0.0)), 1.0, None, math.inf, None),
    "piv-w-bound": (K.PIV, Params(-1.2, 2.0), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0, None, 3.0, None),
    "piv-budget": (K.PIV, Params(0.3, 0.7), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0, None, math.inf, 5),
    "piv-budget-after-a-single-step": (K.PIV, Params(), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0, None, math.inf, 1),
    # rejected on error: the step the tolerance asks for falls below _H_MIN,
    # on a regular run and on the way to the pole of 1/(1 - z)
    "piv-error-rejection": (K.PIV, Params(), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0, 0.1, math.inf, None),
    "xxix-pole-rejection": (K.XXIX, Params(), InitialData.nonzero(0.0, 1.0, 1.0), 2.0, 0.05, math.inf, None),
    # the series rule accepts a root only at the sixth node, |w| = 7515
    "piv-large-amplitude-pole": (K.PIV, Params(), InitialData.nonzero(0.0, 5000.0, 0.0), 1.0, None, math.inf, None),
}  # fmt: skip


def _run_stats_case(name, monkeypatch):
    import painleve4.integrator as integrator

    kind, p, init, span, h_min, bound, max_steps = _STATS_RUNS[name]
    if h_min is not None:
        monkeypatch.setattr(integrator, "_H_MIN", h_min)
    if max_steps is not None:
        monkeypatch.setattr(integrator, "_MAX_STEPS", max_steps)
    return integrate(kind, p, init, span, w_bound=bound)


class TestStats:
    @pytest.mark.parametrize("name", list(_STATS_RUNS))
    def test_counts_match_the_trial_steps_and_rhs_calls(self, name, series_builds, monkeypatch, caplog):
        # each trial step evaluates the right-hand side once, on series: one
        # build; a step the rule refuses ends the run STEP_UNDERFLOW, a step
        # that crosses w_bound ends it W_BOUND, neither is stored, and a pole
        # read off the last node's series ends the run with no step taken
        with caplog.at_level("INFO", logger="painleve4.integrator"):
            t = _run_stats_case(name, monkeypatch)
        by_root = "pole by series root" in caplog.text
        assert by_root == (t.status is TrajectoryStatus.POLE) == (name in ("piv-pole", "piv-large-amplitude-pole"))
        # the counters are those of the stored steps, whatever ended the run
        hs = [n.h for n in t.nodes[1:]]
        assert t.stats == {"accepted": len(t.nodes) - 1, "h_min": min(hs, default=None), "h_max": max(hs, default=None)}
        unstored = t.status in (TrajectoryStatus.STEP_UNDERFLOW, TrajectoryStatus.W_BOUND) or by_root
        assert series_builds[0] == t.stats["accepted"] + unstored
        if name == "piv-large-amplitude-pole":
            assert len(t.nodes) == 6

    @pytest.mark.parametrize(
        "name, error, non_finite",
        [("piv-error-rejection", 1, 0), ("xxix-pole-rejection", 1, 0), ("xxix-non-finite-underflow", 0, 1)],
    )
    def test_rejections_of_the_rejected_step_runs(self, name, error, non_finite, monkeypatch):
        # the one rejected step that ends each run, read off its last node:
        # on error the rule's h is below _H_MIN, non-finite it gives no h;
        # the kernel refuses both, and the test-local rule tells them apart
        import painleve4.integrator as integrator

        t = _run_stats_case(name, monkeypatch)
        assert t.status is TrajectoryStatus.STEP_UNDERFLOW
        j = t.nodes[-1].jet
        coeffs, step = _step_kernel(KINDS[t.kind].series)(
            t.params.alpha, j.z, j.w, j.w1, j.w2, 0.0, 1.0, t.direction, integrator._H_MIN, t.tol.abs, t.tol.rel
        )
        h = _step_length(coeffs, t.tol.abs + t.tol.rel * abs(j.w))
        assert (int(h is not None and h < integrator._H_MIN), int(h is None)) == (error, non_finite)
        assert step is None

    def test_a_rerun_has_the_same_stats(self):
        runs = [integrate(K.PIV, Params(0.3, 0.7), InitialData.nonzero(0.0, 0.8, -0.2), 1.5) for _ in range(2)]
        assert runs[0].stats == runs[1].stats

    def test_end_of_run_info_line_carries_the_counters(self, caplog):
        with caplog.at_level("INFO", logger="painleve4.integrator"):
            t = integrate(K.PIV, Params(-1.2, 0.4), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0)
        (record,) = [r for r in caplog.records if r.name == "painleve4.integrator"]
        assert record.levelname == "INFO"
        msg = record.getMessage()
        assert f"{len(t.nodes)} nodes, status pole" in msg
        assert f"; {t.stats!r}; " in msg
        r = abs(t.pole_estimate - t.nodes[-1].jet.z)
        n = len(t.nodes) - 1
        assert msg.endswith(f"; pole by series root at distance {r:.3g} from node {n}, within {t.pole_bound:.3g}")


    def test_warning_level_never_reads_the_stats(self, monkeypatch, caplog):
        # the end-of-run INFO line, stats included, is only built when INFO is enabled
        import painleve4.integrator as integrator

        def unread(traj):
            raise AssertionError("Trajectory.stats read with INFO disabled")

        monkeypatch.setattr(integrator.Trajectory, "stats", property(unread))
        with caplog.at_level("WARNING", logger="painleve4.integrator"):
            t = integrate(K.PIV, Params(-1.2, 0.4), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0)
        assert t.status is TrajectoryStatus.POLE
        assert not [r for r in caplog.records if r.name == "painleve4.integrator"]


def _node_bits(node):
    j = node.jet
    return [_bits(v) for v in (j.z, j.w, j.w1, j.w2, node.h, node.err_est, node.c, node.res2, node.s)]


# name -> (kind, params, initial data, span, _H_MIN or None)
_FSAL_RUNS = {
    "piv-real-pole": (K.PIV, Params(-1.2, 0.4), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0, None),
    "piv-complex-path": (
        K.PIV, Params(0.5, 0.25),
        InitialData.raw(0.0, 0.7, -0.1, 0.4, field=ScalarField.COMPLEX, direction=complex(math.cos(0.3), math.sin(0.3))),
        1.0, None,
    ),
    "sqrt-piv0": (K.SQRT_PIV0, Params(), InitialData.raw(0.0, 1.0, 0.0, 0.0), 2.0, None),
    "piv-backward": (K.PIV, Params(), InitialData.nonzero(1.0, 0.5, 0.0), -2.0, None),
    "piv-error-rejection": (K.PIV, Params(), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0, 0.1),
}  # fmt: skip


@pytest.mark.parametrize("name", list(_FSAL_RUNS))
def test_reused_stage_gives_the_nodes_of_a_fresh_kernel_per_step(name, monkeypatch):
    # each node stores the series of the step that reached it; the zero search
    # and dense output reuse it, so it must be the series a fresh build from
    # the previous node's jet gives, and it must end on the node
    import painleve4.integrator as integrator

    kind, p, init, span, h_min = _FSAL_RUNS[name]
    if h_min is not None:
        monkeypatch.setattr(integrator, "_H_MIN", h_min)
    t = integrate(kind, p, init, span)
    assert len(t.nodes) > 5
    assert t.nodes[0].series == ()
    for left, node in zip(t.nodes, t.nodes[1:]):
        j = left.jet
        fresh = coefficients(kind, p, j.z, j.w, j.w1, j.w2)
        assert [_bits(v) for v in node.series] == [_bits(v) for v in fresh]
        end = _jet_kernel(len(fresh))(fresh, node.h * t.direction)
        assert [_bits(v) for v in end] == [_bits(v) for v in (node.jet.w, node.jet.w1, node.jet.w2)]


def test_nodes_are_immutable_and_hashable():
    t = integrate(K.PIV, Params(0.3, 0.7), InitialData.nonzero(0.0, 0.8, -0.2), 0.1)
    node = t.nodes[-1]
    with pytest.raises(AttributeError):
        node.h = 1.0
    with pytest.raises(AttributeError):
        node.jet = t.nodes[0].jet
    assert hash(node) == hash(t.nodes[-1]) and node in set(t.nodes)


# one run per kind: name -> (kind, params, initial data, span)
_MONITOR_RUNS = {
    "piv": (K.PIV, Params(-1.2, 0.4), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0),
    "piv0": (K.PIV0, Params(), InitialData.nonzero(-3.0, 0.5, 0.0), 6.0),
    "xvii": (K.XVII, Params(), InitialData.nonzero(0.0, 1.0, 4.0), 2.0),
    "xxix": (K.XXIX, Params(), InitialData.nonzero(0.0, 1.0, 1.0), 2.0),
    "xxxii": (K.XXXII, Params(), InitialData.nonzero(0.0, 2.0, 3.0), 4.0),
    "sqrt-piv0": (K.SQRT_PIV0, Params(), InitialData.raw(0.0, 1.0, 0.0, 0.0), 2.0),
}


@pytest.mark.parametrize("name", list(_MONITOR_RUNS))
def test_each_node_stores_one_monitor(name):
    # res2 is the only stored monitor; c reads it, and off piv/piv0 it is the
    # kind's own residual, not the piv constraint
    kind, p, init, span = _MONITOR_RUNS[name]
    t = integrate(kind, p, init, span)
    assert TrajectoryNode._fields == ("jet", "h", "err_est", "res2", "s", "series")
    for node in t.nodes:
        assert node.c is node.res2
        monitor = constraint_c(p, node.jet) if kind in (K.PIV, K.PIV0) else residual2(kind, p, node.jet)
        assert _bits(node.res2) == _bits(monitor)


@pytest.mark.parametrize("name, calls", [("piv", (1, 0)), ("xxix", (0, 1))])
def test_one_monitor_call_per_node(name, calls, monkeypatch):
    # piv reads constraint_c, every other kind residual2, once per stored node
    import painleve4.integrator as integrator

    counts = {"constraint_c": 0, "residual2": 0}

    def counting(fn_name):
        fn = getattr(integrator, fn_name)

        def wrapped(*args):
            counts[fn_name] += 1
            return fn(*args)

        return wrapped

    for fn_name in counts:
        monkeypatch.setattr(integrator, fn_name, counting(fn_name))
    t = integrate(*_MONITOR_RUNS[name])
    assert len(t.nodes) > 3
    assert (counts["constraint_c"], counts["residual2"]) == tuple(n * len(t.nodes) for n in calls)


class TestWBound:
    # a README-sweep pole cell: |w| passes 3 well before its series root
    P = Params(-1.2, 2.0)
    INIT = InitialData.nonzero(-1.0, 0.5, 0.0)

    def test_bounded_run_is_a_prefix_of_the_unbounded_run(self):
        full = integrate(K.PIV, self.P, self.INIT, 2.0)
        assert full.status is TrajectoryStatus.POLE
        bounded = integrate(K.PIV, self.P, self.INIT, 2.0, w_bound=3.0)
        assert bounded.status is TrajectoryStatus.W_BOUND
        assert bounded.status.value == "w_bound"
        assert bounded.pole_estimate is None
        n = len(bounded.nodes)
        assert 1 < n < len(full.nodes)
        assert bounded.nodes == full.nodes[:n]
        assert bounded.max_abs_w() <= 3.0
        # the step that crossed the bound is not stored
        assert abs(full.nodes[n].jet.w) > 3.0

    def test_bound_above_every_node_changes_nothing(self):
        full = integrate(K.PIV, self.P, self.INIT, 2.0)
        for bound in (math.inf, 1e6):
            t = integrate(K.PIV, self.P, self.INIT, 2.0, w_bound=bound)
            assert (t.status, t.nodes, t.pole_estimate) == (full.status, full.nodes, full.pole_estimate)

    def test_sqrt_bound_is_on_f_and_cutoff_on_f_squared(self):
        init = InitialData.raw(0.0, 1.0, 0.0, 0.0)
        full = integrate(K.SQRT_PIV0, Params(), init, 2.0)
        assert full.status is TrajectoryStatus.POLE
        # the series root ends the full run at |f| = 1.8, |f^2| = 3.2
        bounded = integrate(K.SQRT_PIV0, Params(), init, 2.0, w_bound=1.7)
        assert bounded.status is TrajectoryStatus.W_BOUND
        n = len(bounded.nodes)
        assert bounded.nodes == full.nodes[:n]
        # stored |f| passes sqrt(1.7): the bound is not applied to f^2
        assert math.sqrt(1.7) < bounded.max_abs_w() <= 1.7
        assert abs(full.nodes[n].jet.w) > 1.7
        # the pole rule reads f^2, so the run ends at its series root long
        # before |f| reaches a bound of 200
        t = integrate(K.SQRT_PIV0, Params(), init, 2.0, w_bound=200.0)
        assert (t.status, t.nodes, t.pole_estimate) == (full.status, full.nodes, full.pole_estimate)

    def test_step_crossing_bound_and_cutoff_ends_pole(self):
        full = integrate(K.XXIX, Params(), InitialData.nonzero(0.0, 1.0, 1.0), 2.0)
        assert full.status is TrajectoryStatus.POLE
        # a bound just above the last stored |w|: the series root ends the run
        # at that node, before any step could cross the bound
        bound = 1.01 * abs(full.nodes[-1].jet.w)
        t = integrate(K.XXIX, Params(), InitialData.nonzero(0.0, 1.0, 1.0), 2.0, w_bound=bound)
        assert t.status is TrajectoryStatus.POLE
        assert t.pole_estimate == full.pole_estimate
        assert abs(t.pole_estimate - 1.0) < 1e-10
        assert t.nodes == full.nodes

    @pytest.mark.parametrize("bound", [0.0, -1.0, math.nan])
    def test_bad_bound_rejected(self, bound):
        with pytest.raises(ValueError, match="w_bound"):
            integrate(K.PIV, self.P, self.INIT, 2.0, w_bound=bound)


class TestComplexMode:
    D = complex(math.cos(0.3), math.sin(0.3))

    def _xxix_run(self, c, z0):
        j = xxix_pole_family(c, z0)
        init = InitialData.raw(j.z, j.w, j.w1, j.w2, field=ScalarField.COMPLEX, direction=self.D)
        return integrate(K.XXIX, Params(), init, 1.0)

    def test_path_past_a_pole_ends_as_without_the_series_rule(self, monkeypatch):
        # the path passes the pole of 1/(c - z) at distance 1e-2, so |w|
        # reaches 100 and u = c - z has its root 1e-2 off the path
        import painleve4.integrator as integrator

        c = 0.5 * self.D + 0.01j * self.D
        t = self._xxix_run(c, 0j)
        assert t.status is TrajectoryStatus.COMPLETED
        assert 50.0 < t.max_abs_w() <= 200.0
        monkeypatch.setattr(integrator, "_SERIES_POLE_FROM", math.inf)
        without = self._xxix_run(c, 0j)
        assert (t.status, t.nodes, t.pole_estimate) == (without.status, without.nodes, without.pole_estimate)

    def test_path_through_a_pole_ends_at_it(self):
        c = 0.2 + 0.1j
        t = self._xxix_run(c, c - 0.5 * self.D)
        assert t.status is TrajectoryStatus.POLE
        assert abs(t.pole_estimate - c) < 1e-12
        # ended at the series root of the first stored node with |w| > 3, with no step taken to the pole
        assert 3.0 < abs(t.nodes[-1].jet.w) < 10.0

    @pytest.mark.parametrize("delta,status,nodes", [(5e-4, "completed", 129), (5e-5, "pole", 9)])
    def test_a_pole_off_the_path_ends_the_run_only_within_off_path(self, delta, status, nodes):
        # the pole of 1/(c - z) lies delta off the path from 0 along 1: at 5e-4
        # the path passes it (a pole only with _OFF_PATH raised to 1e-3), and at
        # 5e-5 it runs into it (and past it with _OFF_PATH lowered to 1e-5)
        c = complex(1.0, delta)
        j = xxix_pole_family(c, 0j)
        init = InitialData.raw(j.z, j.w, j.w1, j.w2, field=ScalarField.COMPLEX, direction=1.0 + 0.0j)
        t = integrate(K.XXIX, Params(), init, 2.0)
        assert (t.status.value, len(t.nodes)) == (status, nodes)
        if status == "pole":
            assert abs(t.pole_estimate - c) < 2e-15

    def test_straight_path_constraint_conserved(self):
        d = complex(math.cos(0.3), math.sin(0.3))
        init = InitialData.raw(0.0, 0.7, -0.1, 0.4, field=ScalarField.COMPLEX, direction=d)
        p = Params(0.5, 0.25)
        t = integrate(K.PIV, p, init, 1.0)
        assert t.status is TrajectoryStatus.COMPLETED
        assert isinstance(t.nodes[-1].jet.w, complex)
        c0 = t.nodes[0].c
        assert max(abs(n.c - c0) for n in t.nodes) < 1e-7
        # path is the straight line z0 + s*d
        for n in t.nodes:
            assert abs(n.jet.z - n.s * d) < 1e-14

    def test_direction_must_be_unit(self):
        with pytest.raises(InvalidInitialData):
            InitialData.raw(0.0, 1.0, 0.0, 0.0, field=ScalarField.COMPLEX, direction=2.0 + 0.0j)

    @pytest.mark.parametrize("d", [complex(math.nan, 0.0), complex(1.0, math.nan)])
    def test_nan_direction_rejected(self, d):
        with pytest.raises(InvalidInitialData, match="direction"):
            InitialData.raw(0.0, 1.0, 0.0, 0.0, field=ScalarField.COMPLEX, direction=d)

    def test_negative_span_rejected(self):
        init = InitialData.raw(0.0, 1.0, 0.0, 0.0, field=ScalarField.COMPLEX, direction=1j)
        with pytest.raises(ValueError):
            integrate(K.PIV0, Params(), init, -1.0)


# name -> a trajectory; dense output is checked against `_reference_dense_eval_param` on each
_DENSE_RUNS = {
    "piv-forward": lambda: integrate(K.PIV, Params(0.3, 0.7), InitialData.nonzero(0.0, 0.8, -0.2), 1.5),
    "piv-backward": lambda: integrate(K.PIV, Params(), InitialData.nonzero(1.0, 0.5, 0.0), -2.0),
    "piv-pole": lambda: integrate(K.PIV, Params(-1.2, 0.4), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0),
    "piv-complex-path": lambda: integrate(
        K.PIV, Params(0.5, 0.25),
        InitialData.raw(0.0, 0.7, -0.1, 0.4, field=ScalarField.COMPLEX, direction=complex(math.cos(0.3), math.sin(0.3))),
        1.0,
    ),
    "sqrt-piv0": lambda: integrate(K.SQRT_PIV0, Params(), InitialData.raw(0.0, 1.0, 0.0, 0.0), 2.0),
    # the first step's coefficients overflow: the run ends STEP_UNDERFLOW at its seed
    "one-node-underflow": lambda: integrate(
        K.XXIX, Params(), InitialData.raw(*vars(xxix_pole_family(1e-20, 0.0)).values()), 1.0
    ),
}  # fmt: skip


class TestDenseEval:
    def test_nodes_reproduced_exactly(self):
        t = integrate(K.PIV, Params(0, 1), InitialData.zero(0.0, +1, 0.0), 1.0)
        for n in t.nodes:
            assert dense_eval(t, n.jet.z) == n.jet

    def test_quadratic_reproduced_between_nodes(self):
        t = integrate(K.XXXII, Params(), InitialData.nonzero(0.0, 2.0, 3.0), 4.0)
        for frac in (0.1, 0.37, 0.5, 0.93):
            z = 4.0 * frac
            j = dense_eval(t, z)
            assert abs(j.w - (z * z + 3 * z + 2)) < 1e-9
            assert abs(j.w1 - (2 * z + 3)) < 1e-9
            assert abs(j.w2 - 2.0) < 1e-9

    def test_midpoint_residual_consistent_with_step_tolerances(self):
        # the interpolant's curvature error scales like tol / h^2, so the
        # midpoint residual is budgeted against that, floored by the node level
        p = Params(0.0, 1.0)
        t = integrate(K.PIV, p, InitialData.zero(0.0, +1, 0.0), 1.0)
        node_level = max(abs(n.res2) for n in t.nodes)
        for a, b in zip(t.nodes[:-1], t.nodes[1:]):
            mid = dense_eval_param(t, 0.5 * (a.s + b.s))
            h = b.s - a.s
            scale = 1.0 + abs(mid.w)
            budget = 100.0 * (node_level + (t.tol.abs + t.tol.rel * scale) / (h * h))
            assert abs(residual2(K.PIV, p, mid)) < budget

    def test_out_of_span(self):
        t = integrate(K.XXXII, Params(), InitialData.nonzero(0.0, 2.0, 3.0), 4.0)
        with pytest.raises(OutOfSpan):
            dense_eval(t, 4.5)
        with pytest.raises(OutOfSpan):
            dense_eval(t, -0.5)

    def test_complex_path_takes_the_arc_parameter(self):
        d = complex(math.cos(0.3), math.sin(0.3))
        init = InitialData.raw(0.0, 0.7, -0.1, 0.4, field=ScalarField.COMPLEX, direction=d)
        t = integrate(K.PIV, Params(0.5, 0.25), init, 1.0)
        for n in t.nodes:
            assert dense_eval(t, n.s) == n.jet
        for s in (0.1, 0.37, 0.5, 0.93):
            assert dense_eval(t, s) == dense_eval_param(t, s)
            assert abs(dense_eval(t, s).z - s * d) < 1e-14

    @pytest.mark.parametrize("name", list(_DENSE_RUNS))
    def test_same_jets_as_the_reference(self, name):
        # at every node, at random points within each step and across the
        # span, and at the padded ends, the bisected lookup and the unchecked
        # jet give what the binary search and the validating Jet3 gave
        t = _DENSE_RUNS[name]()
        if name == "one-node-underflow":
            assert t.status is TrajectoryStatus.STEP_UNDERFLOW and len(t.nodes) == 1
        rng = random.Random(name)
        s_end = t.nodes[-1].s
        pad = 1e-12 * max(1.0, s_end)
        points = [n.s for n in t.nodes] + [-0.5 * pad, s_end + 0.5 * pad]
        points += [rng.uniform(0.0, s_end) for _ in range(50)]
        for left, right in zip(t.nodes, t.nodes[1:]):
            points += [rng.uniform(left.s, right.s) for _ in range(3)]
        for s in points:
            new, ref = dense_eval_param(t, s), _reference_dense_eval_param(t, s)
            assert new == ref and hash(new) == hash(ref), s
            assert [_bits(v) for v in vars(new).values()] == [_bits(v) for v in vars(ref).values()], s
        # the nodes' own jets, built unchecked by integrate, are validated ones
        for n in t.nodes:
            checked = Jet3(**vars(n.jet))
            assert n.jet == checked and hash(n.jet) == hash(checked)

    @pytest.mark.parametrize("name", ["piv-forward", "piv-complex-path"])
    def test_nan_arc_parameter_is_out_of_span(self, name):
        # NaN fails every comparison, so the span check is written to be false for it
        t = _DENSE_RUNS[name]()
        with pytest.raises(OutOfSpan, match="s = nan outside"):
            dense_eval_param(t, math.nan)
        with pytest.raises(OutOfSpan, match="nan outside"):
            dense_eval(t, math.nan)

    def test_backward_span_lookup(self):
        t = integrate(K.XXXII, Params(), InitialData.nonzero(0.0, 2.0, 3.0), -2.0)
        j = dense_eval(t, -1.0)  # root of the quadratic
        assert abs(j.w) < 1e-10
        assert abs(j.w1 - 1.0) < 1e-10


def test_cleared_residual_stays_flat_along_xxix_flow():
    # residual2 differentiates to zero along the flow, so it stays at the
    # integration noise floor over the whole (bounded) run
    t = integrate(K.XXIX, Params(), InitialData.nonzero(0.0, 1.0, 1.0), 0.5)
    assert t.status is TrajectoryStatus.COMPLETED
    assert max(abs(n.res2) for n in t.nodes) < 1e-8


def test_constraint_is_conserved_even_off_the_zero_set():
    # raw data with C != 0 still conserves C along the third-order flow
    p = Params(1.0, 0.5)
    init = InitialData.raw(-1.2, -0.5, 0.3, -1.0)
    t = integrate(K.PIV, p, init, 2.0)
    assert t.status is TrajectoryStatus.COMPLETED
    c0 = t.nodes[0].c
    assert abs(c0) > 0.5  # genuinely off the solution set
    assert max(abs(n.c - c0) for n in t.nodes) < 1e-8
    # and the jet never satisfies the second-order equation (res2 = C for piv)
    assert min(abs(n.res2) for n in t.nodes) > 0.5


# A plain reference for the series kernels: the right-hand side of each kind
# expanded term by term with a generic Cauchy product, and its squares by
# half sums (`_square`), in the order the kernels sum, so the two agree bit
# for bit.  Its sums add left to right from 0 with reduce(): from Python 3.12
# on, sum() of floats is compensated.


def _left_sum(terms):
    return reduce(add, terms, 0)


def _nested_reference(a, t):
    """p(t), p'(t) and p''(t) of p = sum a_k t^k by nested multiplication, in a loop over k = p-1 .. 0.

    The value is w = w t + a_k; each derivative is updated before the one
    below it, w2 = w2 t + w1 and w1 = w1 t + w, and starts as that one's
    value where it would be its product by zero plus it.
    """
    w, w1, w2 = a[-1], None, None
    for c in reversed(a[:-1]):
        if w1 is not None:
            w2 = w1 if w2 is None else w2 * t + w1
        w1 = w if w1 is None else w1 * t + w
        w = w * t + c
    return w, w1, 2.0 * w2


def _cauchy(x, y, k):
    return _left_sum(x[i] * y[k - i] for i in range(k + 1))


def _square(x, k):
    """Coefficient k of x^2 as the series square: each product below the middle once, the sum doubled, then the middle."""
    half = 2.0 * _left_sum(x[i] * x[k - i] for i in range((k + 1) // 2))
    return half + x[k // 2] * x[k // 2] if k % 2 == 0 else half


def reference_series(kind, p, z, w, w1, w2):
    a = [w, w1, 0.5 * w2]
    for k in range(ORDER - 2):
        dw = [(i + 1) * a[i + 1] for i in range(k + 1)]
        sq = [_square(a, i) for i in range(k + 1)]
        if kind in (K.XVII, K.XXXII):
            r = 0.0
        elif kind is K.XXIX:
            r = 6.0 * _cauchy(sq, dw, k)
        elif kind is K.SQRT_PIV0:
            # t as the series (z, 1, 0, ...); 4 t^2 as (4 z^2, 8 z, 4, 0, ...)
            t = [z, 1.0] + [0.0] * k
            tt = ([4.0 * z * z, 8.0 * z, 4.0] + [0.0] * k)[: k + 1]
            quad = [15.0 * _square(sq, i) + 24.0 * (t[0] * sq[i] + (sq[i - 1] if i else 0.0)) for i in range(k + 1)]
            quad = [qi + tti if i < 3 else qi for i, (qi, tti) in enumerate(zip(quad, tt))]
            tf = z * a[k] + a[k - 1] if k else z * w
            r = 2.0 * (_cauchy(a, sq, k) + tf) + 0.25 * _cauchy(quad, dw, k)
        else:
            zw = [z * a[i] + a[i - 1] if i else z * w for i in range(k + 1)]
            poly = [4.0 * (z * z - p.alpha), 8.0 * z, 4.0]
            big_p = [6.0 * sq[i] + 12.0 * zw[i] + poly[i] if i < 3 else 6.0 * sq[i] + 12.0 * zw[i] for i in range(k + 1)]
            r = _cauchy(big_p, dw, k) + 4.0 * (sq[k] + zw[k])
        a.append(r / ((k + 1) * (k + 2) * (k + 3)))
    return a


def _bits(v):
    if isinstance(v, complex):
        return v.real.hex(), v.imag.hex()
    return v.hex()


# mode -> (complex jet entries, complex path direction)
_MODES = {"real": (False, False), "complex": (True, True), "complex-jet-real-h": (True, False)}


@pytest.mark.parametrize(
    "kind, mode",
    [(kind, mode) for kind in K for mode in _MODES],
)
def test_kernel_bit_identical_to_reference_step(kind, mode):
    complex_jet, complex_dir = _MODES[mode]
    rng = random.Random(f"{kind.value}/{mode}")

    def draw():
        x = rng.uniform(-1.5, 1.5)
        return complex(x, rng.uniform(-1.5, 1.5)) if complex_jet else x

    def edge():
        # signed zeros, and entries near 1e40 whose products overflow to inf and nan
        x = rng.choice([0.0, -0.0, rng.uniform(-1.5, 1.5), rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(39.0, 41.0)])
        return complex(x, rng.choice([0.0, -0.0, rng.uniform(-1.5, 1.5)])) if complex_jet else x

    def direction(sign):
        if not complex_dir:
            return sign
        theta = rng.uniform(0.0, 2.0 * math.pi)
        return sign * complex(math.cos(theta), math.sin(theta))

    def params():
        return Params(rng.uniform(-1, 1), rng.uniform(-1, 1)) if kind is K.PIV else Params()

    kernel = _step_kernel(KINDS[kind].series)

    def same_bits(p, z0, y, h, d):
        t = h * d
        got = coefficients(kind, p, z0, *y)
        want = reference_series(kind, p, z0, *y)
        # xvii and xxxii's series ends at a_2: each reader of those three gives the bits that
        # the reference gives on the whole order, their a_3 .. a_p zeros included
        n = len(got)
        assert n == (3 if KINDS[kind].series is None else ORDER + 1)
        assert type(got) is tuple and [_bits(v) for v in got] == [_bits(v) for v in want[:n]]
        assert [_bits(v) for v in want[n:]] == [_bits(0.0)] * (ORDER + 1 - n)
        # the step and the zero search: the polynomial at z0 + t, with its derivatives
        ref = _nested_reference(want, t)
        assert [_bits(v) for v in _jet_kernel(n)(got, t)] == [_bits(v) for v in ref]
        # the zero search's bounds over a step of length |t|: the skip bound, and
        # the curvature bound, w'' of the polynomial on |a_k|
        h = abs(t)
        m = abs(want[-1])
        for c in reversed(want[1:-1]):
            m = m * h + abs(c)
        skip = abs(want[0]) - m * h
        bound2 = _nested_reference([abs(c) for c in want], h)[2]
        got_bounds = skip_bound_kernel(n)(got, h), _jet_kernel(n)([abs(c) for c in got], h)[2]
        assert [_bits(v) for v in got_bounds] == [_bits(skip), _bits(bound2)]
        # the series pole rule on the whole order: the Cauchy square, the reciprocal, and u and u' at t
        assert [_bits(v) for v in _cauchy_square()(want)] == [_bits(_cauchy(want, want, k)) for k in range(ORDER + 1)]
        if want[0] != 0:
            u = [1.0 / want[0]]
            for k in range(1, ORDER + 1):
                u.append(-u[0] * _left_sum(want[i] * u[k - i] for i in range(1, k + 1)))
            assert [_bits(v) for v in _reciprocal()(want)] == [_bits(v) for v in u]
            assert [_bits(v) for v in _jet_kernel(len(u))(u, t)[:2]] == [_bits(v) for v in _nested_reference(u, t)[:2]]
        # the step kernel from s = 0.5 with |h| of the span left: at its end,
        # before it, and refused where h_min is half the span left; the same
        # series with each, and the step that the reference takes from it
        for h_min in (_H_MIN, 0.5 * h):
            args = (0.5, 0.5 + h, d, h_min, 1e-10, 1e-10)
            coeffs, step = kernel(p.alpha, z0, *y, *args)
            assert [_bits(v) for v in coeffs] == [_bits(v) for v in want[:n]]
            want_step = _reference_step(want, *args)
            assert (step is None) == (want_step is None)
            if step is not None:
                assert [_bits(v) for v in step] == [_bits(v) for v in want_step]
        return want

    for sign in (1.0, -1.0):
        for _ in range(20):
            p, z0 = params(), draw()
            d = direction(sign)
            y = (draw(), draw(), draw())
            want = same_bits(p, z0, y, 10.0 ** rng.uniform(-4.0, -0.5), d)
            # 6 a_3 is the right-hand side at the jet
            w3 = rhs3(kind, p, z0, y[0], y[1])
            assert abs(6.0 * want[3] - w3) <= 1e-14 * (1.0 + abs(w3) + sum(abs(v) for v in y) ** 5)
    for sign in (1.0, -1.0):
        for _ in range(20):
            h = rng.choice([0.0, -0.0, 10.0 ** rng.uniform(-4.0, -0.5), 10.0 ** rng.uniform(1.0, 3.0)])
            same_bits(params(), edge(), (edge(), edge(), edge()), h, direction(sign))


# multiplications and additions in one step kernel, by series template: piv and piv0, xxix, sqrt-piv0,
# and xvii and xxxii; a square's Cauchy sum written in full, or a power table, or a second evaluation
# pass, would raise them.  The step's end point takes 58 and 57 of them: nested multiplication (57 each)
# and the doubling of p''/2.  xvii and xxxii's series ends at a_2, so their step takes 5 and 4 there,
# nested multiplication of three terms from +0.0 t + a_2 and the doubling, and reads no tail order
_STEP_OPERATIONS = {"piv": (436, 394), "xxix": (379, 320), "sqrt_piv0": (751, 672), None: (7, 4)}


@pytest.mark.parametrize("name", list(_STEP_OPERATIONS), ids=str)
def test_the_work_of_a_step_is_pinned_as_a_count(name):
    assert {row.series for row in KINDS.values()} == set(_STEP_OPERATIONS)
    source = "def step():\n" + "".join(f"    {line}\n" for line in _step_lines(name))
    ops = Counter(type(node.op) for node in ast.walk(ast.parse(source)) if isinstance(node, ast.BinOp))
    assert (ops[ast.Mult], ops[ast.Add]) == _STEP_OPERATIONS[name]


def _injected_kernel(k, value):
    """piv's step kernel with a_k = value once its series is set: a tail coefficient injected."""
    series = series_lines("piv")
    lines = _step_lines("piv")
    assert lines[: len(series)] == series
    lines = [*series, f"a{k} = value", *lines[len(series) :]]
    return compile_kernel("step", _STEP_ARGS, lines, inf=math.inf, isfinite=isfinite, value=value)


def test_nan_error_component_is_not_accepted(monkeypatch):
    # a NaN among the four tail coefficients of the step rule must not read
    # as a vanishing tail, which would allow an unbounded step; nor may a
    # complex one whose modulus is past the largest double, where abs() raises
    import painleve4.integrator as integrator

    # alpha, piv's zero jet (z, w, w', w'') = (0, 0, 1, 0), whose a_18 .. a_20 vanish, then s, total, d, h_min, abs
    # and rel
    args = (0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, _H_MIN, 1e-10, 1e-10)
    coeffs, step = _step_kernel("piv")(*args)
    assert coeffs[ORDER] == 0.0 and step is not None
    assert _injected_kernel(ORDER, 0.0)(*args) == (coeffs, step)
    for k in range(ORDER - 3, ORDER + 1):
        for bad in (math.nan, math.inf, complex(0.0, math.nan), complex(1.5e308, 1.5e308)):
            coeffs, step = _injected_kernel(k, bad)(*args)
            assert coeffs[k] is bad and step is None, (k, bad)

    monkeypatch.setattr(integrator, "_step_kernel", lambda name: _injected_kernel(ORDER, math.nan))
    t = integrate(K.PIV, Params(0.0, 1.0), InitialData.zero(0.0, +1, 0.0), 1.0)
    assert t.status is TrajectoryStatus.STEP_UNDERFLOW and len(t.nodes) == 1


def test_quadratic_step_crosses_the_span_left():
    # xvii and xxxii's series is (a_0, a_1, a_2): no tail order to read, so one
    # step crosses the span left, with err_est 0.0; it is refused only where
    # the end state is not finite
    args = (0.0, 1.0, 1.0, 0.5, 0.5)  # alpha and the jet (z, w, w', w'') = (1, 1, 0.5, 0.5)
    rest = (1.0, 5.0, 1.0, _H_MIN, 1e-10, 1e-10)  # s, total, d, h_min, abs and rel
    coeffs, step = _step_kernel(None)(*args, *rest)
    assert coeffs == (1.0, 0.5, 0.25) and step == (5.0, 4.0, 0.0, 7.0, 2.5, 0.5)
    assert _step_kernel(None)(0.0, 1.0, 1.0, 1e308, 0.5, *rest)[1] is None


@pytest.mark.parametrize("kind", [K.PIV, K.XVII])
def test_a_complex_w0_whose_modulus_overflows_is_refused_by_name(kind):
    # each entry is finite, so InitialData takes it; |w0| is past the largest double
    init = InitialData(0.0, complex(1.5e308, 1.5e308), 0.0, 0.0, field=ScalarField.COMPLEX)
    with pytest.raises(InvalidInitialData, match="^w0: initial data overflows floating point$"):
        integrate(kind, Params(), init, 1.0)


def test_a_step_to_a_complex_w_whose_modulus_overflows_ends_step_underflow():
    # xvii's one exact step ends near (1.56 + 1.56j)e308: both parts finite, |w| past the largest double
    init = InitialData(0.0, 1.0 + 0j, 9e153 * cmath.exp(1j * cmath.pi / 8), field=ScalarField.COMPLEX)
    traj = integrate(K.XVII, Params(), init, 3.3)
    assert traj.status is TrajectoryStatus.STEP_UNDERFLOW
    assert len(traj.nodes) == 1  # the overflowing state is not stored
    w = eval_quadratic(fit_quadratic(K.XVII, traj.nodes[0].jet), 3.3).w
    assert isfinite(w.real) and isfinite(w.imag)
    with pytest.raises(OverflowError):
        abs(w)


def _zero_search_reads(traj, abs_tol):
    """What `zeros._interval_roots` reads on the one step of traj, the skip bound and then bound2 and bound3, and its roots.

    At abs_tol = inf every piece would survive: the bounds are recorded and no piece is searched.
    """
    reads = []
    skip_bound, clusters = zeros.skip_bound_kernel, zeros._clusters

    def recorded_skip(size):
        kernel = skip_bound(size)

        def skip(coeffs, h):
            reads.append(kernel(coeffs, h))
            return reads[-1]

        return skip

    def recorded_clusters(jet_at, lo, hi, bound2, bound3, abs_tol, real_mode):
        reads.extend((bound2, bound3()))
        return [] if abs_tol == math.inf else clusters(jet_at, lo, hi, bound2, bound3, abs_tol, real_mode)

    left, right = traj.nodes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zeros, "skip_bound_kernel", recorded_skip)
        patch.setattr(zeros, "_clusters", recorded_clusters)
        roots = zeros._interval_roots(left, right, traj.direction, traj.field is ScalarField.REAL, abs_tol)
    return [_bits(v) for v in reads], [_bits(v) for v in roots]


_entry = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-4.0, 4.0)
_complex_entry = st.builds(complex, _entry, _entry)


@example(K.XVII, False, 1.0, -1.0, 0.0, None, 1.0, 0.0)  # w'' = 0.0 / (2 w) = -0.0, crossed forwards
@example(K.XVII, False, -1.0, -1.0, 0.0, None, 1.0, 0.0)  # and backwards
@example(K.XXXII, False, 1.0, 3.75, -4.0, None, 4.0, 0.0)  # w = (z - 2)^2 - 1/4 from z = 0: two crossings
@given(
    kind=st.sampled_from([K.XVII, K.XXXII]),
    on_complex_path=st.booleans(),
    sign=st.sampled_from([1.0, -1.0]),
    w0=st.floats(0.25, 4.0) | st.floats(-4.0, -0.25),
    w1=_entry,
    w2=st.none() | st.sampled_from([0.0, -0.0]) | st.floats(-4.0, 4.0),
    length=st.floats(1e-3, 1e3) | st.just(1e100),
    theta=st.floats(0.0, 2.0 * math.pi),
)
@settings(max_examples=150, deadline=None)
def test_quadratic_series_reads_the_bits_of_its_zero_padded_series(kind, on_complex_path, sign, w0, w1, w2, length, theta):
    # xvii and xxxii's step holds a_0, a_1 and a_2 alone.  Each reader of it,
    # the step's end point, dense output, the skip bound, bound2, bound3 and the
    # zero search, gives the bits that the readers of the whole order give on
    # the same series padded with zeros to a_p, as every step held it before
    if on_complex_path:
        d = sign * complex(math.cos(theta), math.sin(theta))
        w0, w1 = complex(w0, 0.5 * w1), complex(w1, -0.0 if w2 is None else w2)
        init = InitialData(0.5 - 0.25j, w0, w1, None if w2 is None else complex(w2, -0.0), field=ScalarField.COMPLEX,
                           direction=d)  # fmt: skip
        span = length
    else:
        init, span = InitialData(0.5, w0, w1, w2), sign * length
    t = integrate(kind, Params(), init, span)
    assert t.status is TrajectoryStatus.COMPLETED and len(t.nodes) == 2
    left, right = t.nodes
    assert len(right.series) == 3
    padded = t._replace(nodes=(left, right._replace(series=right.series + (0.0,) * (ORDER - 2))))
    # the step's end, as the rule of the whole order takes it from the padded series
    tol = t.tol
    want = _reference_step(padded.nodes[1].series, 0.0, abs(span), t.direction, _H_MIN, tol.abs, tol.rel)
    assert [_bits(v) for v in (right.s, right.h, right.err_est, *right.jet[1:])] == [_bits(v) for v in want]
    for s in (0.1 * right.s, 0.5 * right.s, 0.999 * right.s):
        assert [_bits(v) for v in dense_eval_param(t, s)] == [_bits(v) for v in dense_eval_param(padded, s)]
    for abs_tol in (tol.abs, math.inf):
        assert _zero_search_reads(t, abs_tol) == _zero_search_reads(padded, abs_tol)
    assert repr(zeros.locate_zeros(t)) == repr(zeros.locate_zeros(padded))


def test_step_rule_reads_four_tail_coefficients():
    # criterion 3's zero seed has period-4 sparsity: of a_17 .. a_20 only a_17
    # is nonzero, so a rule on the last two orders would take the whole span
    coeffs, step = _step_kernel(KINDS[K.PIV].series)(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, _H_MIN, 1e-10, 1e-10)
    assert coeffs[ORDER - 3] != 0.0 and coeffs[ORDER - 2 :] == (0.0, 0.0, 0.0)
    # w = 0 at the seed, so the bound abs + rel |w| is abs
    h = step[1]
    assert h == 0.5 * (1e-10 / abs(coeffs[ORDER - 3])) ** (1.0 / (ORDER - 3)) < 1.0
    t = integrate(K.PIV, Params(0.0, 1.0), InitialData.zero(0.0, +1, 0.0), 1.0)
    assert t.nodes[1].h == h and len(t.nodes) > 3


def test_tail_vanishes_below_the_series_and_is_inf_where_it_is_not_finite():
    # the pole search passes a root where u's tail is 0.0 (u = c - z on xxix
    # is exact) and rejects one where a tail coefficient, or a power of the
    # root's distance, is not finite
    tail = range(ORDER - 3, ORDER + 1)
    exact = [0.7, -1.0] + [0.0] * (ORDER - 1)
    assert _tail(exact, 0.0) == _tail(exact, 1e3) == 0.0
    for k in tail:
        for bad in (math.nan, math.inf, complex(0.0, math.nan)):
            u = list(exact)
            u[k] = bad
            assert _tail(u, 0.5) == math.inf, (k, bad)
    # 1e20 ** 17 overflows a float
    assert _tail([1.0] * (ORDER + 1), 1e20) == math.inf
    assert _tail([1.0] * (ORDER + 1), 0.5) == 0.5 ** (ORDER - 3)


@pytest.mark.parametrize("x", [1e20, 1e200, 1e308, math.inf])
def test_tail_of_zero_coefficients_takes_no_power(x):
    # a zero coefficient adds 0.0 at any distance, however far x ** k
    # overflows; a non-finite coefficient still reads inf there
    exact = [0.7, -1.0] + [0.0] * (ORDER - 1)
    assert _tail(exact, x) == 0.0
    assert _tail([0.0] * (ORDER + 1), x) == 0.0
    for k in range(ORDER - 3, ORDER + 1):
        for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(math.nan, math.nan)):
            u = list(exact)
            u[k] = bad
            assert _tail(u, x) == math.inf, (k, bad)


def test_tail_skips_only_the_zero_terms_whose_power_overflows():
    # 1e18 ** 17 = 1e306 is finite and 1e18 ** 18 overflows: with u_18 .. u_20
    # zero, the tail is u_17's term alone
    u = [1.0, -1.0] + [0.0] * (ORDER - 1)
    u[ORDER - 3] = 1e-300
    assert _tail(u, 1e18) == 1e-300 * 1e18 ** (ORDER - 3)
    u[ORDER] = 1e-300
    assert _tail(u, 1e18) == math.inf


def test_tail_screen_is_twice_the_jorba_zou_step_of_u():
    # u's tail at Newton's first iterate v_0/v_1 is within abs + rel |u_0|
    # exactly where that iterate lies within twice u's Jorba-Zou step, on the
    # series of u = 1/v that the pole search divides out near a pole
    rng = random.Random(23)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        kind = rng.choice([K.PIV, K.PIV0, K.XXIX])
        complex_pole = rng.random() < 0.5
        turn = complex(math.cos(theta := rng.uniform(0.0, 2.0 * math.pi)), math.sin(theta))
        a = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) if complex_pole else rng.uniform(-2.0, 2.0)
        z = a - rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-3.0, 0.3) * (turn if complex_pole else 1.0)
        e = rng.choice([1.0, -1.0])
        # near the Laurent jet of w = e/(z - a) - a
        w, w1, w2 = e / (z - a) - a + rng.gauss(0.0, 0.1), -e / (z - a) ** 2 + rng.gauss(0.0, 0.1), 2.0 * e / (z - a) ** 3
        p = Params(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) if kind is K.PIV else Params()
        v = coefficients(kind, p, z, w, w1, w2)
        if kind is not K.XXIX:
            v = [v[0] + z, v[1] + 1.0, *v[2:]]
        first, u = v[0] / v[1], _reciprocal()(v)
        for tol in (1e-8, 1e-10, 1e-14):
            bound = tol + tol * abs(u[0])
            passes = _tail(u, abs(first)) <= bound
            h = _step_length(u, bound)
            assert passes == (h is not None and abs(first) <= 2.0 * h), (kind, z, w, w1, w2, tol)
            outcomes[passes] += 1
    assert min(outcomes.values()) > 200, outcomes


@pytest.mark.parametrize("c", [0.7, -1.3, 1.0 + 0.5j])
def test_xxix_pole_family_steps_and_dense_output_exactly(c):
    # w = 1/(c - z) has a_k = (c - z0)^-(k+1); each node and dense value sits
    # on the family to rounding
    z_end = 0.5 if (c.real if isinstance(c, complex) else c) > 0 else -0.5
    j = xxix_pole_family(c, 0.0)
    field = ScalarField.COMPLEX if isinstance(c, complex) else ScalarField.REAL
    # the sign of span sets a REAL path's direction; the complex c lies ahead along 1
    init = InitialData.raw(j.z, j.w, j.w1, j.w2, field=field)
    if field is ScalarField.COMPLEX:
        t = integrate(K.XXIX, Params(), init, abs(z_end))
    else:
        t = integrate(K.XXIX, Params(), init, z_end)
    assert t.status is TrajectoryStatus.COMPLETED
    for n in t.nodes:
        exact = xxix_pole_family(c, n.jet.z)
        assert abs(n.jet.w - exact.w) <= 1e-12 * abs(exact.w)
    for frac in (0.13, 0.5, 0.77):
        jet = dense_eval_param(t, frac * abs(z_end))
        exact = xxix_pole_family(c, jet.z)
        for a, b in ((jet.w, exact.w), (jet.w1, exact.w1), (jet.w2, exact.w2)):
            assert abs(a - b) <= 1e-12 * abs(b)


def test_each_step_kernel_is_compiled_under_its_template_name():
    # a profiler keys a function by its file, line and name: each template's kernel has its own
    codes = {row.series: _step_kernel(row.series).__code__ for row in KINDS.values()}
    names = {"piv": "step_piv", "xxix": "step_xxix", "sqrt_piv0": "step_sqrt_piv0", None: "step_quadratic"}
    assert {series: code.co_name for series, code in codes.items()} == names
    assert len({(code.co_filename, code.co_firstlineno, code.co_name) for code in codes.values()}) == len(names)


def _exact_derivatives(a, t):
    """p(t), p'(t) and p''(t) of p = sum a_k t^k as power sums in exact arithmetic, each value a pair (re, im) of
    Fractions: the oracle for the jet kernel."""
    a = [(Fraction(c.real), Fraction(c.imag)) for c in a]
    powers = [(Fraction(1), Fraction(0))]
    for _ in range(ORDER):
        (x, y), (u, v) = powers[-1], (Fraction(t.real), Fraction(t.imag))
        powers.append((x * u - y * v, x * v + y * u))

    def power_sum(weight, shift):
        terms = [(weight(k), c, powers[k - shift]) for k, c in enumerate(a) if k >= shift]
        return (sum(f * (x * u - y * v) for f, (x, y), (u, v) in terms),
                sum(f * (x * v + y * u) for f, (x, y), (u, v) in terms))  # fmt: skip

    return power_sum(lambda k: 1, 0), power_sum(lambda k: k, 1), power_sum(lambda k: k * (k - 1), 2)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_jet_kernel_is_within_the_error_bound_of_nested_multiplication(field):
    # each term of p, p' or p''/2 reaches the result through at most 2p roundings: on
    # real values the error is at most gamma_2p times the same sum on |a_k| and |t|
    # (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed., sec. 5.1); a
    # complex product rounds by at most sqrt(2) gamma_2, so complex values take gamma_4p
    # (2 sqrt(2) + 1 < 4 roundings a term), and each part is held to it
    rng = random.Random(f"nested/{field}")
    units = (2 if field == "real" else 4) * ORDER
    gamma = units * 2.0 ** -53 / (1.0 - units * 2.0 ** -53)
    worst = 0.0
    for _ in range(150):
        if field == "real":
            a = [rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-8, 8) for _ in range(ORDER + 1)]
            t = rng.uniform(-1.5, 1.5)
        else:
            a = [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(ORDER + 1)]
            t = cmath.rect(rng.uniform(0.0, 1.5), rng.uniform(0.0, 2.0 * math.pi))
        got = _jet_kernel(ORDER + 1)(tuple(a), t)
        exact = _exact_derivatives(a, t)
        scale = _exact_derivatives([abs(c) for c in a], abs(t))
        for value, (re, im), (bound, _) in zip(got, exact, scale):
            for part, want in ((value.real, re), (value.imag, im)):
                error = abs(Fraction(part) - want)
                assert error <= gamma * bound, (field, a, t)
                worst = max(worst, float(error / bound))
    # the bound is not vacuous: the kernel rounds, at a few units of 2^-53 at most
    assert 0.0 < worst < 8.0 * 2.0 ** -53 < gamma


@pytest.mark.parametrize("kind, w0, w1", [(K.XVII, 1.0, 2.0), (K.XXXII, 2.0, 3.0)])
def test_quadratic_kinds_cross_a_span_of_1e16_in_one_step(kind, w0, w1):
    # w''' = 0, so the whole span is one step; its end point is nested multiplication, and its
    # err_est takes no power of a zero tail coefficient, where h ** k would overflow from h ~ 2.59e15
    init = InitialData.nonzero(0.0, w0, w1)
    quadratic = fit_quadratic(kind, complete_initial_data(kind, Params(), init))
    for span in (1e16, -1e16):
        t = integrate(kind, Params(), init, span)
        assert (t.status, len(t.nodes), t.nodes[-1].err_est) == (TrajectoryStatus.COMPLETED, 2, 0.0)
        end = t.nodes[-1].jet
        exact = eval_quadratic(quadratic, end.z)
        assert end.z == span
        for got, want in ((end.w, exact.w), (end.w1, exact.w1), (end.w2, exact.w2)):
            assert abs(got - want) <= 1e-15 * abs(want)
    # w = 1 on xvii: any span a double reaches
    for span in (1e16, 1e100, 1e300):
        t = integrate(K.XVII, Params(), InitialData.nonzero(0.0, 1.0, 0.0), span)
        assert (t.status, len(t.nodes), t.nodes[-1].jet.w) == (TrajectoryStatus.COMPLETED, 2, 1.0)


def test_complex_xxix_path_past_the_pole_stays_on_its_exact_solution():
    # `compare_outputs.py`'s integrate-complex-xxix-past-pole: the path passes the pole of
    # w = 1/(1 - z) at distance 5e-3, where |w| reaches 200, and every node stays on w
    d = complex(0.9999875000260416, 0.004999979166692708)
    init = InitialData.raw(0.0, 1.0, 1.0, 2.0, field=ScalarField.COMPLEX, direction=d)
    t = integrate(K.XXIX, Params(), init, 2.0)
    assert t.status is TrajectoryStatus.COMPLETED and t.max_abs_w() > 190.0
    worst = max(abs(n.jet.w - 1.0 / (1.0 - n.jet.z)) * abs(1.0 - n.jet.z) for n in t.nodes)
    assert worst <= 1e-6


def test_newton_steps_cover_the_most_the_readme_sweep_takes(monkeypatch):
    # the pole rule's Newton search takes at most 5 iterations on the README
    # sweep: at 5 the cells are those of `_NEWTON_STEPS`, at 4 some roots are
    # given up and 16 cells end elsewhere
    import painleve4.integrator as integrator
    from painleve4.cli import _grid, run_sweep

    grid = _grid("alpha", -2.0, 2.0, 11)

    def cells():
        swept = run_sweep(K.PIV, grid, grid, InitialData.nonzero(-1.0, 0.5, 0.0), 2.0, Tolerances())
        return [(c.status, c.node_count, c.pole_estimate) for c in swept]

    full = cells()
    monkeypatch.setattr(integrator, "_NEWTON_STEPS", 5)
    assert cells() == full
    monkeypatch.setattr(integrator, "_NEWTON_STEPS", 4)
    assert sum(a != b for a, b in zip(cells(), full)) == 16


@pytest.mark.parametrize("u1", [0.0, -0.0])
def test_newton_root_gives_up_where_a_slope_vanishes(u1):
    # u = 1 + t^2 has u'(0) = 0, so the first Newton step has no slope to divide by
    u = [1.0, u1, 1.0, *[0.0] * (ORDER - 2)]
    assert _newton_root(u) is None

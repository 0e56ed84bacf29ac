import math
import random

import pytest

from painleve4 import (
    EquationKind,
    InitialData,
    InvalidInitialData,
    Jet3,
    NonFiniteState,
    OutOfSpan,
    Params,
    ScalarField,
    Tolerances,
    TrajectoryStatus,
    complete_initial_data,
    constraint_c,
    dense_eval,
    dense_eval_param,
    integrate,
    residual2,
    step,
)
from painleve4.equations import is_finite_scalar, rhs3, rhs_fn
from painleve4.integrator import _dp3, _pole_estimate
from painleve4.oracles import xxix_pole_family

K = EquationKind


def quadratic_jet(z):
    # w = z^2 + 3z + 2 solves xxxii (disc = 9 - 8 = 1)
    return Jet3(z, z * z + 3 * z + 2, 2 * z + 3, 2.0)


class TestTolerances:
    def test_defaults(self):
        t = Tolerances()
        assert (t.rel, t.abs, t.h_init, t.h_min, t.pole_cutoff) == (1e-10, 1e-10, 1e-3, 1e-12, 1e4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel": 1e-15},
            {"abs": 0.0},
            {"h_min": 2e-3},
            {"h_min": -1.0},
            {"pole_cutoff": 10.0},
            {"pole_cutoff": 1e10},
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

    def test_real_mode_rejects_complex_entries(self):
        with pytest.raises(InvalidInitialData):
            InitialData.raw(0.0, 1.0 + 1.0j, 0.0, 0.0)

    def test_raw_passthrough(self):
        j = complete_initial_data(K.PIV, Params(1, 2), InitialData.raw(0.5, 1.0, 2.0, 3.0))
        assert (j.z, j.w, j.w1, j.w2) == (0.5, 1.0, 2.0, 3.0)

    def test_raw_sqrt_recomputes_second_derivative(self):
        j = complete_initial_data(K.SQRT_PIV0, Params(), InitialData.raw(0.0, 2.0, 0.0, 99.0))
        assert j.w2 == 24.0


class TestStep:
    def test_exact_on_quadratic(self):
        for h in (0.1, -0.4, 1.7):
            new, err = step(K.XXXII, Params(), quadratic_jet(0.0), h)
            exact = quadratic_jet(h)
            assert abs(new.w - exact.w) < 1e-12
            assert abs(new.w1 - exact.w1) < 1e-12
            assert abs(new.w2 - exact.w2) < 1e-12
            # err is measured in tolerance units; roundoff-level here
            assert err < 1e-5

    def test_zero_jet_stays_zero(self):
        new, err = step(K.PIV0, Params(), Jet3(0.0, 0.0, 0.0, 0.0), 0.5)
        assert (new.w, new.w1, new.w2) == (0.0, 0.0, 0.0)
        assert err == 0.0

    def test_xxix_agrees_with_pole_family_locally(self):
        # w = 1/(1-z): jet at 0 is (1, 1, 2)
        new, _ = step(K.XXIX, Params(), Jet3(0.0, 1.0, 1.0, 2.0), 1e-3)
        u = 1.0 / (1.0 - 1e-3)
        assert abs(new.w - u) < 1e-12
        assert abs(new.w1 - u * u) < 1e-12
        assert abs(new.w2 - 2 * u ** 3) < 1e-11

    def test_rejects_zero_step(self):
        with pytest.raises(ValueError):
            step(K.PIV, Params(), quadratic_jet(0.0), 0.0)

    def test_nonfinite_state_raises(self):
        for kind, jet in (
            (K.XXIX, Jet3(0.0, 1e100, 1e100, 1e100)),
            (K.PIV, Jet3(0.0, 1e100 + 1e100j, 1e100j, -1e100 + 0j)),
            (K.SQRT_PIV0, Jet3(0.0, 1e100, 1e100, 0.0)),
        ):
            for h in (10.0, -10.0):
                with pytest.raises(NonFiniteState):
                    step(kind, Params(), jet, h)

    @pytest.mark.parametrize("h", [1e-2, -1e-2])
    def test_sqrt_residual_is_conserved(self, h):
        # 4 (f'' - F(t, f)) is a first integral of the sqrt-piv0 third-order flow
        j = Jet3(0.2, 0.7, -0.3, 1.0)
        r0 = residual2(K.SQRT_PIV0, Params(), j)
        assert abs(r0 - 2.835) < 1e-3
        new, _ = step(K.SQRT_PIV0, Params(), j, h)
        assert abs(residual2(K.SQRT_PIV0, Params(), new) - r0) < 1e-9

    @pytest.mark.parametrize("h", [1e-2, -1e-2])
    def test_complex_jet_with_real_step(self, h):
        # xxix pole family w = 1/(c - z) with a pole off the real line
        c = 1.0 + 0.5j

        def exact(z):
            u = 1.0 / (c - z)
            return Jet3(z, u, u * u, 2.0 * u ** 3)

        new, err = step(K.XXIX, Params(), exact(0.0), h)
        ref = exact(h)
        assert new.z == h
        assert isinstance(new.w, complex)
        for a, b in ((new.w, ref.w), (new.w1, ref.w1), (new.w2, ref.w2)):
            assert abs(a - b) < 1e-12
        assert math.isfinite(err)

    def test_fifth_order_convergence_on_pole_family(self):
        # fixed steps along w = 1/(1 - z) over [0, 0.5]: halving h must cut
        # the global error by about 2^5
        def global_error(n):
            j = Jet3(0.0, 1.0, 1.0, 2.0)
            for _ in range(n):
                j, _ = step(K.XXIX, Params(), j, 0.5 / n)
            return abs(j.w - 1.0 / (1.0 - j.z))

        errors = [global_error(n) for n in (10, 20, 40)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 25.0 <= coarse / fine <= 40.0


class TestIntegrate:
    def test_xxxii_reproduces_quadratic(self):
        t = integrate(K.XXXII, Params(), InitialData.nonzero(0.0, 2.0, 3.0), 4.0)
        assert t.status is TrajectoryStatus.COMPLETED
        assert t.nodes[-1].jet.z == 4.0
        worst = max(abs(n.jet.w - (n.jet.z ** 2 + 3 * n.jet.z + 2)) for n in t.nodes)
        assert worst < 1e-9

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
        assert all(abs(n.jet.w) <= t.tol.pole_cutoff for n in t.nodes)

    @pytest.mark.parametrize("c", [0.7, -1.3, 1.0 + 0.5j])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_pole_estimate_exact_on_xxix_family(self, c, side):
        # one Newton step on 1/w is exact on w = 1/(c - z)
        assert abs(_pole_estimate(K.XXIX, xxix_pole_family(c, c - side * 1e-4)) - c) < 1e-14

    def test_pole_estimate_without_a_newton_step_is_the_jet(self):
        # a constant xxix jet above the cutoff: u = 1/w has u' = 0
        t = integrate(K.XXIX, Params(), InitialData.raw(0.0, 2e4, 0.0, 0.0), 1.0)
        assert t.status is TrajectoryStatus.POLE
        assert t.pole_estimate == t.tol.h_init
        assert _pole_estimate(K.PIV, Jet3(0.5, 2e4, -1.0, 0.0)) == 0.5

    def test_piv_pole_estimates_match_tight_reference(self):
        # cells of the README 11 x 11 sweep (z0 = -1, w0 = 0.5, span 2) with
        # alpha in [-1.2, 0]; beta enters only as beta^2, so beta >= 0 suffices
        grid = [-2.0 + 4.0 * i / 10 for i in range(11)]
        init = InitialData.nonzero(-1.0, 0.5, 0.0)
        ref_tol = Tolerances(rel=1e-13, abs=1e-13, pole_cutoff=1e6)
        poles = 0
        for alpha in grid[2:6]:
            for beta in grid[5:]:
                t = integrate(K.PIV, Params(alpha, beta), init, 2.0)
                if t.status is not TrajectoryStatus.POLE:
                    continue
                poles += 1
                ref = integrate(K.PIV, Params(alpha, beta), init, 2.0, ref_tol)
                assert ref.status is TrajectoryStatus.POLE
                assert abs(t.pole_estimate - ref.pole_estimate) < 1e-10
        assert poles == 13

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

    def test_step_underflow_status(self):
        tol = Tolerances(rel=1e-10, abs=1e-10, h_init=1e-3, h_min=9e-4)
        t = integrate(K.XXIX, Params(), InitialData.nonzero(0.0, 1.0, 1.0), 2.0, tol)
        assert t.status is TrajectoryStatus.STEP_UNDERFLOW

    def test_step_budget_status_keeps_partial_trajectory(self, monkeypatch):
        import painleve4.integrator as integrator

        monkeypatch.setattr(integrator, "_MAX_STEPS", 50)
        t = integrate(K.PIV, Params(0.3, 0.7), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0)
        assert t.status is TrajectoryStatus.STEP_BUDGET
        assert t.status.value == "step_budget"
        assert 1 < len(t.nodes) <= 51
        assert 0.0 < t.nodes[-1].s < 2.0

    def test_span_validation(self):
        with pytest.raises(ValueError):
            integrate(K.PIV, Params(), InitialData.nonzero(0.0, 1.0, 0.0), 0.0)

    def test_sqrt_rejects_complex(self):
        init = InitialData.raw(0.0, 0.5, 0.0, 0.0, field=ScalarField.COMPLEX, direction=1.0 + 0.0j)
        with pytest.raises(InvalidInitialData):
            integrate(K.SQRT_PIV0, Params(), init, 1.0)


@pytest.fixture
def trial_steps(monkeypatch):
    """Record each trial step of `integrate` as 'passed', 'error' or 'non-finite'."""
    import painleve4.integrator as integrator

    seen = []
    make_kernel = integrator._dp3

    def counting(*args):
        kernel = make_kernel(*args)

        def counted(s, y, h):
            out = kernel(s, y, h)
            seen.append("non-finite" if out is None else "error" if out[1] > 1.0 else "passed")
            return out

        return counted

    monkeypatch.setattr(integrator, "_dp3", counting)
    return seen


class TestRejectedSteps:
    # a large h_init forces the controller to reject trial steps, then regrow h
    def test_error_rejection_on_a_regular_run(self, trial_steps):
        init = InitialData.nonzero(-1.0, 0.5, 0.0)
        t = integrate(K.PIV, Params(), init, 2.0, Tolerances(h_init=0.5))
        assert trial_steps.count("error") == 2 and "non-finite" not in trial_steps
        assert t.status is TrajectoryStatus.COMPLETED
        assert all(n.err_est <= 1.0 for n in t.nodes)
        ref = integrate(K.PIV, Params(), init, 2.0).nodes[-1].jet
        end = t.nodes[-1].jet
        assert end.z == ref.z
        for a, b in ((end.w, ref.w), (end.w1, ref.w1), (end.w2, ref.w2)):
            assert abs(a - b) < 1e-9 * max(1.0, abs(b))

    def test_error_rejections_on_a_pole_run(self, trial_steps):
        j = xxix_pole_family(0.01, 0.0)
        t = integrate(K.XXIX, Params(), InitialData.raw(j.z, j.w, j.w1, j.w2), 1.0, Tolerances(h_init=0.9))
        assert trial_steps.count("error") == 6 and "non-finite" not in trial_steps
        assert t.status is TrajectoryStatus.POLE
        assert abs(t.pole_estimate - 0.01) < 1e-10

    def test_non_finite_rejections_end_in_underflow(self, trial_steps):
        # w0 = 1e20: every trial step overflows until h falls below h_min
        j = xxix_pole_family(1e-20, 0.0)
        t = integrate(K.XXIX, Params(), InitialData.raw(j.z, j.w, j.w1, j.w2), 1.0, Tolerances(h_init=0.9))
        assert trial_steps == ["non-finite"] * 18
        assert t.status is TrajectoryStatus.STEP_UNDERFLOW
        assert len(t.nodes) == 1 and t.pole_estimate is None


@pytest.fixture
def rhs_calls(monkeypatch):
    """Count every call of the right-hand side that `integrate` binds."""
    import painleve4.integrator as integrator

    calls = [0]
    bind = integrator.rhs_fn

    def counting_rhs_fn(kind, p):
        rhs = bind(kind, p)

        def counted(z, w, w1):
            calls[0] += 1
            return rhs(z, w, w1)

        return counted

    monkeypatch.setattr(integrator, "rhs_fn", counting_rhs_fn)
    return calls


def _raw(j):
    return InitialData.raw(j.z, j.w, j.w1, j.w2)


# name -> (kind, params, initial data, span, tolerances, w_bound, _MAX_STEPS or None)
_STATS_RUNS = {
    "piv-pole": (K.PIV, Params(-1.2, 0.4), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0, Tolerances(), math.inf, None),
    "piv-completed": (K.PIV, Params(0.3, 0.7), InitialData.nonzero(0.0, 0.8, -0.2), 1.5, Tolerances(), math.inf, None),
    "piv-error-rejections": (
        K.PIV, Params(), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0, Tolerances(h_init=0.5), math.inf, None,
    ),
    "xxix-pole-rejections": (
        K.XXIX, Params(), _raw(xxix_pole_family(0.01, 0.0)), 1.0, Tolerances(h_init=0.9), math.inf, None,
    ),
    "xxix-non-finite-underflow": (
        K.XXIX, Params(), _raw(xxix_pole_family(1e-20, 0.0)), 1.0, Tolerances(h_init=0.9), math.inf, None,
    ),
    "piv-w-bound": (K.PIV, Params(-1.2, 2.0), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0, Tolerances(), 3.0, None),
    "piv-budget": (K.PIV, Params(0.3, 0.7), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0, Tolerances(), math.inf, 50),
    "piv-budget-after-a-rejection": (
        K.PIV, Params(), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0, Tolerances(h_init=0.5), math.inf, 1,
    ),
}  # fmt: skip


def _run_stats_case(name, monkeypatch):
    import painleve4.integrator as integrator

    kind, p, init, span, tol, bound, max_steps = _STATS_RUNS[name]
    if max_steps is not None:
        monkeypatch.setattr(integrator, "_MAX_STEPS", max_steps)
    return integrate(kind, p, init, span, tol, w_bound=bound)


class TestStats:
    @pytest.mark.parametrize("name", list(_STATS_RUNS))
    def test_counts_match_the_trial_steps_and_rhs_calls(self, name, trial_steps, rhs_calls, monkeypatch):
        t = _run_stats_case(name, monkeypatch)
        st = t.stats
        assert st.accepted == trial_steps.count("passed")
        assert st.rejected_error == trial_steps.count("error")
        assert st.rejected_nonfinite == trial_steps.count("non-finite")
        assert st.rhs_evals == rhs_calls[0]
        # the step that ends a run POLE or W_BOUND is accepted but not stored
        unstored = t.status in (TrajectoryStatus.POLE, TrajectoryStatus.W_BOUND)
        assert len(t.nodes) == 1 + st.accepted - unstored
        hs = [n.h for n in t.nodes[1:]]
        if hs:
            assert st.h_min <= min(hs) and st.h_max >= max(hs)
            if not unstored:
                assert (st.h_min, st.h_max) == (min(hs), max(hs))
        elif st.accepted == 0:
            assert st.h_min is None and st.h_max is None

    @pytest.mark.parametrize("name", ["piv-pole", "piv-completed", "piv-w-bound", "piv-budget"])
    def test_first_same_as_last_saves_one_rhs_call_per_step(self, name, trial_steps, rhs_calls, monkeypatch):
        t = _run_stats_case(name, monkeypatch)
        assert set(trial_steps) == {"passed"}
        assert t.stats.rhs_evals == rhs_calls[0] == 7 + 6 * (len(trial_steps) - 1)

    @pytest.mark.parametrize(
        "name, error, non_finite",
        [("piv-error-rejections", 2, 0), ("xxix-pole-rejections", 6, 0), ("xxix-non-finite-underflow", 0, 18)],
    )
    def test_rejections_of_the_rejected_step_runs(self, name, error, non_finite, monkeypatch):
        st = _run_stats_case(name, monkeypatch).stats
        assert (st.rejected_error, st.rejected_nonfinite) == (error, non_finite)

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
        assert f"accepted={t.stats.accepted}," in msg
        assert f"rhs_evals={t.stats.rhs_evals}," in msg


def _node_bits(node):
    j = node.jet
    return [_bits(v) for v in (j.z, j.w, j.w1, j.w2, node.h, node.err_est, node.c, node.res2, node.s)]


# name -> (kind, params, initial data, span, tolerances)
_FSAL_RUNS = {
    "piv-real-pole": (K.PIV, Params(-1.2, 0.4), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0, Tolerances()),
    "piv-complex-path": (
        K.PIV, Params(0.5, 0.25),
        InitialData.raw(0.0, 0.7, -0.1, 0.4, field=ScalarField.COMPLEX, direction=complex(math.cos(0.3), math.sin(0.3))),
        1.0, Tolerances(),
    ),
    "sqrt-piv0": (K.SQRT_PIV0, Params(), InitialData.raw(0.0, 1.0, 0.0, 0.0), 2.0, Tolerances()),
    "piv-error-rejections": (K.PIV, Params(), InitialData.nonzero(-1.0, 0.5, 0.0), 2.0, Tolerances(h_init=0.5)),
}  # fmt: skip


@pytest.mark.parametrize("name", list(_FSAL_RUNS))
def test_reused_stage_gives_the_nodes_of_a_fresh_kernel_per_step(name, monkeypatch):
    import painleve4.integrator as integrator

    kind, p, init, span, tol = _FSAL_RUNS[name]
    reused = integrate(kind, p, init, span, tol)
    make_kernel = integrator._dp3
    # the reference loop: a new kernel for every trial step, so stage 1 is always evaluated
    monkeypatch.setattr(integrator, "_dp3", lambda *args: lambda s, y, h: make_kernel(*args)(s, y, h))
    fresh = integrate(kind, p, init, span, tol)
    assert fresh.status is reused.status
    assert len(fresh.nodes) == len(reused.nodes) > 50
    assert [_node_bits(n) for n in reused.nodes] == [_node_bits(n) for n in fresh.nodes]
    if reused.pole_estimate is not None:
        assert _bits(reused.pole_estimate) == _bits(fresh.pole_estimate)


def test_nodes_are_immutable_and_hashable():
    t = integrate(K.PIV, Params(0.3, 0.7), InitialData.nonzero(0.0, 0.8, -0.2), 0.1)
    node = t.nodes[-1]
    with pytest.raises(AttributeError):
        node.h = 1.0
    with pytest.raises(AttributeError):
        node.jet = t.nodes[0].jet
    assert hash(node) == hash(t.nodes[-1]) and node in set(t.nodes)


class TestWBound:
    # a README-sweep pole cell: |w| passes 3 well before the 1e4 cutoff
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
        bounded = integrate(K.SQRT_PIV0, Params(), init, 2.0, w_bound=3.0)
        assert bounded.status is TrajectoryStatus.W_BOUND
        n = len(bounded.nodes)
        assert bounded.nodes == full.nodes[:n]
        # stored |f| passes sqrt(3): the bound is not applied to f^2
        assert math.sqrt(3.0) < bounded.max_abs_w() <= 3.0
        assert abs(full.nodes[n].jet.w) > 3.0
        # |f| = 200 lies beyond the cutoff f^2 = 1e4, so the pole ends the run
        t = integrate(K.SQRT_PIV0, Params(), init, 2.0, w_bound=200.0)
        assert (t.status, t.nodes, t.pole_estimate) == (full.status, full.nodes, full.pole_estimate)

    def test_step_crossing_bound_and_cutoff_ends_pole(self):
        full = integrate(K.XXIX, Params(), InitialData.nonzero(0.0, 1.0, 1.0), 2.0)
        assert full.status is TrajectoryStatus.POLE
        last = abs(full.nodes[-1].jet.w)
        bound = 0.5 * (last + full.tol.pole_cutoff)
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


# The generic tableau-driven Dormand-Prince step that the unrolled kernels
# replaced, kept as their reference.  Sums accumulate left to right from 0,
# as the builtin sum did for floats up to Python 3.11.
_REF_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_REF_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_REF_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_REF_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _ref_sum(terms):
    acc = 0
    for t in terms:
        acc = acc + t
    return acc


def reference_dp_step(kind, p, z0, d, s, y, h, tol):
    """(y5, mixed-norm error) of one step from arc parameter s, or None on a non-finite stage."""

    def deriv(s, y):
        return (d * y[1], d * y[2], d * rhs3(kind, p, z0 + s * d, y[0], y[1]))

    k = [deriv(s, y)]
    n = len(y)
    for i in range(1, 7):
        yi = tuple(y[j] + h * _ref_sum(_REF_A[i][m] * k[m][j] for m in range(i)) for j in range(n))
        if not all(is_finite_scalar(v) for v in yi):
            return None
        k.append(deriv(s + _REF_C[i] * h, yi))
    y_new = tuple(y[j] + h * _ref_sum(_REF_B5[m] * k[m][j] for m in range(7)) for j in range(n))
    err = tuple(h * _ref_sum(_REF_E[m] * k[m][j] for m in range(7)) for j in range(n))
    if not all(is_finite_scalar(v) for v in y_new):
        return None
    worst = 0.0
    for e, a, b in zip(err, y, y_new):
        worst = max(worst, abs(e) / (tol.abs + tol.rel * max(abs(a), abs(b))))
    return y_new, worst


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
    tol = Tolerances()

    def draw():
        x = rng.uniform(-1.5, 1.5)
        return complex(x, rng.uniform(-1.5, 1.5)) if complex_jet else x

    for sign in (1.0, -1.0):
        for _ in range(20):
            p = Params(rng.uniform(-1, 1), rng.uniform(-1, 1)) if kind is K.PIV else Params()
            z0 = draw()
            if complex_dir:
                theta = rng.uniform(0.0, 2.0 * math.pi)
                d = sign * complex(math.cos(theta), math.sin(theta))
            else:
                d = sign
            y = (draw(), draw(), draw())
            s = rng.uniform(0.0, 2.0)
            h = 10.0 ** rng.uniform(-4.0, -0.5)
            got = _dp3(rhs_fn(kind, p), z0, d, tol.abs, tol.rel)(s, y, h)
            want = reference_dp_step(kind, p, z0, d, s, y, h, tol)
            assert want is not None and got is not None
            assert [_bits(v) for v in got[0]] == [_bits(v) for v in want[0]]
            assert _bits(got[1]) == _bits(want[1])


def test_nan_error_component_is_not_accepted():
    # only the seventh stage turns NaN; it enters the error estimate but not
    # y5, and a NaN must not read as a zero error
    def rhs_nan_at(stage):
        calls = []

        def rhs(z, w, w1):
            calls.append(z)
            return math.nan if len(calls) == stage else 0.0

        return rhs

    y = (1.0, 0.5, 0.25)
    y5, err = _dp3(rhs_nan_at(0), 0.0, 1.0, 1e-10, 1e-10)(0.0, y, 0.1)
    assert all(math.isfinite(v) for v in y5) and math.isfinite(err)
    assert _dp3(rhs_nan_at(7), 0.0, 1.0, 1e-10, 1e-10)(0.0, y, 0.1) is None

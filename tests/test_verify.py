import math
from itertools import takewhile

import pytest

import painleve4.verify as verify
from painleve4 import EquationKind, TrajectoryStatus, integrate
from painleve4.verify import DEFAULT_COUNTS, SUITE_NAMES, run_suite

#: a sqrt draw set whose 12 runs end completed (9), at a pole (2) and at the bound (1)
_SQRT_SEED = 33


def test_suite_names_cover_cli_contract():
    # both are read off one table: the CLI lists the suites, and prints the
    # counts in its help, in this order
    assert SUITE_NAMES == ("identities", "constraint", "closed-forms", "xxix-integrals", "sqrt")
    assert list(DEFAULT_COUNTS.items()) == [
        ("identities", 1000), ("constraint", 50), ("closed-forms", 200), ("xxix-integrals", 200), ("sqrt", 25),
    ]


@pytest.mark.parametrize(
    "suite,count",
    [
        ("identities", 200),
        ("constraint", 6),
        ("closed-forms", 30),
        ("xxix-integrals", 40),
        ("sqrt", 4),
    ],
)
def test_suites_pass_at_small_counts(suite, count):
    results = run_suite(suite, seed=3, count=count)
    assert results
    for r in results:
        assert r.passed, r.line()
        assert r.worst < r.budget


def test_results_are_deterministic():
    a = run_suite("identities", seed=11, count=50)
    b = run_suite("identities", seed=11, count=50)
    assert [(r.name, r.worst) for r in a] == [(r.name, r.worst) for r in b]
    c = run_suite("identities", seed=12, count=50)
    assert [r.worst for r in a] != [r.worst for r in c]


def test_constraint_suite_exercises_off_manifold_runs():
    results = run_suite("constraint", seed=0, count=8)
    (r,) = results
    # raw random jets essentially never satisfy C = 0 exactly
    assert "8/8 runs started off the C = 0 set" in r.note


def _record_runs(monkeypatch, suite, seed, count, change=lambda traj: traj):
    """Run a suite with verify.integrate wrapped; its results and every (args, kwargs, run)."""
    calls = []

    def recording(*args, **kwargs):
        traj = change(integrate(*args, **kwargs))
        calls.append((args, kwargs, traj))
        return traj

    monkeypatch.setattr(verify, "integrate", recording)
    return run_suite(suite, seed=seed, count=count), calls


def _record_constraint_runs(monkeypatch, count, change=lambda traj: traj):
    """Run the constraint suite at seed 0 with verify.integrate wrapped; its result and every (args, kwargs, run)."""
    (result,), calls = _record_runs(monkeypatch, "constraint", 0, count, change)
    return result, calls


def test_constraint_suite_integrates_each_draw_once(monkeypatch):
    result, calls = _record_constraint_runs(monkeypatch, 12)
    assert len(calls) == 12
    assert result.passed, result.line()


def test_constraint_suite_checks_the_bounded_prefix_of_every_draw(monkeypatch):
    # the nodes checked are those of the same draw without a bound, up to the first with |w| > 3
    _, calls = _record_constraint_runs(monkeypatch, 12)
    statuses = set()
    for args, kwargs, traj in calls:
        assert kwargs == {"w_bound": 3.0}
        free = integrate(*args)
        assert traj.nodes == tuple(takewhile(lambda n: abs(n.jet.w) <= 3.0, free.nodes))
        statuses.add(traj.status)
    assert statuses == {TrajectoryStatus.COMPLETED, TrajectoryStatus.W_BOUND}


def test_constraint_suite_checks_the_nodes_of_runs_stopped_at_the_bound(monkeypatch):
    shifted = []

    def shift_first_bounded(traj):
        # move C by twice the budget at the last node of the first run that stopped at the bound
        if traj.status is TrajectoryStatus.W_BOUND and not shifted:
            last = traj.nodes[-1]
            traj = traj._replace(nodes=(*traj.nodes[:-1], last._replace(res2=last.res2 + 2e-7)))
            shifted.append(traj)
        return traj

    # unshifted, the same draws pass (test_constraint_suite_integrates_each_draw_once)
    result, _ = _record_constraint_runs(monkeypatch, 12, shift_first_bounded)
    assert shifted
    assert not result.passed, result.line()


def test_constraint_note_counts_the_runs_stopped_at_the_bound(monkeypatch):
    result, calls = _record_constraint_runs(monkeypatch, 12)
    stopped = sum(traj.status is TrajectoryStatus.W_BOUND for _, _, traj in calls)
    assert 0 < stopped < 12
    assert result.note.endswith(f"; {stopped}/12 stopped where |w| passed 3")


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus", seed=0, count=1)
    with pytest.raises(ValueError):
        run_suite("identities", seed=0, count=0)


@pytest.mark.parametrize(
    "suite,seed,count,draws,statuses",
    [
        ("xxix-integrals", 0, 40, 4, {TrajectoryStatus.COMPLETED}),
        ("sqrt", _SQRT_SEED, 12, 12, {TrajectoryStatus.COMPLETED, TrajectoryStatus.POLE, TrajectoryStatus.W_BOUND}),
    ],
)
def test_every_draw_is_integrated_once_and_checked_up_to_the_bound(monkeypatch, suite, seed, count, draws, statuses):
    # each draw is one run with w_bound=3, whose nodes are those of the same draw without a bound up to the
    # first with |w| > 3 (|f| for sqrt-piv0); a pole or the bound stops a run, which is checked, not redrawn
    results, calls = _record_runs(monkeypatch, suite, seed, count)
    bounded = [(args, traj) for args, kwargs, traj in calls if kwargs]
    assert all(kwargs == {"w_bound": 3.0} for _, kwargs, _ in calls if kwargs)
    assert len(bounded) == draws
    for args, traj in bounded:
        free = integrate(*args)
        assert traj.nodes == tuple(takewhile(lambda n: abs(n.jet.w) <= 3.0, free.nodes))
    assert {traj.status for _, traj in bounded} == statuses
    for r in results:
        assert r.passed and not r.note, r.line()


def test_sqrt_lifts_each_run_over_the_arc_it_covered(monkeypatch):
    _, calls = _record_runs(monkeypatch, "sqrt", _SQRT_SEED, 12)
    # each sqrt run is followed by its piv0 lift, with no bound
    pairs = list(zip(calls[::2], calls[1::2]))
    assert len(pairs) == 12 and len(calls) == 24
    for (drawn, bound, traj), (lift, free, lifted) in pairs:
        assert bound == {"w_bound": 3.0} and free == {}
        assert lift[0] is EquationKind.PIV0 and lift[2].z0 == drawn[2].z0
        span = lift[3]
        assert span == math.copysign(traj.nodes[-1].s, drawn[3])
        assert lifted.status is TrajectoryStatus.COMPLETED
        if traj.status is TrajectoryStatus.COMPLETED:
            # bit for bit the drawn span
            assert span == drawn[3]
        else:
            assert abs(span) < abs(drawn[3])
        assert lifted.nodes[-1].jet.z == traj.nodes[-1].jet.z


def test_a_lifted_run_that_does_not_complete_fails_the_round_trip(monkeypatch):
    # the piv0 lift ends step_underflow after its first node; the sqrt runs themselves are untouched
    def cut_lift(traj):
        if traj.kind is not EquationKind.PIV0:
            return traj
        return traj._replace(nodes=traj.nodes[:1], status=TrajectoryStatus.STEP_UNDERFLOW)

    (residual, round_trip), _ = _record_runs(monkeypatch, "sqrt", _SQRT_SEED, 12, cut_lift)
    assert residual.passed, residual.line()
    assert not round_trip.passed and round_trip.worst == math.inf
    assert round_trip.note == "12/12 runs lifted to piv0 did not complete"


def test_a_sqrt_run_of_one_node_is_not_lifted(monkeypatch):
    # a run that stored only node 0 covered no arc, and integrate refuses a span of 0
    def first_node_only(traj):
        return traj._replace(nodes=traj.nodes[:1], status=TrajectoryStatus.W_BOUND)

    results, calls = _record_runs(monkeypatch, "sqrt", _SQRT_SEED, 3, first_node_only)
    assert [kwargs for _, kwargs, _ in calls] == [{"w_bound": 3.0}] * 3
    assert results[1].worst == 0.0
    assert all(r.passed for r in results)


@pytest.mark.parametrize("suite,count,runs", [("constraint", 6, 6), ("xxix-integrals", 40, 4), ("sqrt", 4, 4)])
@pytest.mark.parametrize("status", [TrajectoryStatus.STEP_UNDERFLOW, TrajectoryStatus.STEP_BUDGET])
def test_a_run_that_does_not_stop_fails_its_property(monkeypatch, suite, count, runs, status):
    # the first drawn run ends step_underflow or step_budget after its first node; every other run is as drawn
    # (sqrt's piv0 lifts too, and a run of one node is not lifted)
    cut = []

    def cut_first(traj):
        if cut or traj.kind is EquationKind.PIV0:
            return traj
        cut.append(traj)
        return traj._replace(nodes=traj.nodes[:1], status=status)

    results, _ = _record_runs(monkeypatch, suite, 3, count, cut_first)
    failed = [r for r in results if not r.passed]
    assert len(failed) == 1
    (r,) = failed
    assert r.worst == math.inf
    assert r.note.endswith(f"1/{runs} runs ended step_underflow or step_budget")

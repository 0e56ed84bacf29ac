import random
from itertools import takewhile

import pytest

import painleve4.verify as verify
from painleve4 import PainleveError, TrajectoryStatus, integrate
from painleve4.verify import _VERIFY_TOL, DEFAULT_COUNTS, SUITE_NAMES, _constraint_draw, _draw_bounded_run, run_suite


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


def _record_constraint_runs(monkeypatch, count, change=lambda traj: traj):
    """Run the constraint suite at seed 0 with verify.integrate wrapped; its result and every (args, kwargs, run)."""
    calls = []

    def recording(*args, **kwargs):
        traj = change(integrate(*args, **kwargs))
        calls.append((args, kwargs, traj))
        return traj

    monkeypatch.setattr(verify, "integrate", recording)
    (result,) = run_suite("constraint", seed=0, count=count)
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


def test_bounded_draws_keep_the_unbounded_acceptance_rule():
    # reference: integrate without a bound, accept a run that completes with max|w| <= 3
    rng = random.Random(5)
    decisions = []
    for _ in range(40):
        drawn = _constraint_draw(rng)
        ref = integrate(*drawn, _VERIFY_TOL)
        ref_accepts = ref.status is TrajectoryStatus.COMPLETED and ref.max_abs_w() <= 3.0
        try:
            traj, _ = _draw_bounded_run(None, lambda _rng: drawn, 3.0, 1, "constraint")
        except PainleveError:
            accepts = False
        else:
            accepts = True
            assert traj.nodes == ref.nodes
        assert accepts == ref_accepts
        decisions.append(accepts)
    assert any(decisions) and not all(decisions)

import random

import pytest

from painleve4 import PainleveError, TrajectoryStatus, integrate
from painleve4.verify import _VERIFY_TOL, DEFAULT_COUNTS, SUITE_NAMES, _constraint_draw, _draw_bounded_run, run_suite


def test_suite_names_cover_cli_contract():
    assert set(SUITE_NAMES) == {"identities", "constraint", "closed-forms", "xxix-integrals", "sqrt"}
    assert set(DEFAULT_COUNTS) == set(SUITE_NAMES)


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

"""Randomized verification suites behind the `verify` CLI command.

Every suite draws its instances from a seeded `random.Random`, so a fixed
(seed, count) pair reproduces bit-identical results.  Suites report one
PropertyResult per checked property with the worst observed deviation.

Jet entries are drawn uniformly from [-10, 10], excluding |w| < 1e-3 where
an operation divides by w.  The suites that integrate (`constraint`,
`xxix-integrals`, `sqrt`) draw at desk scale and integrate each draw once
with ``w_bound=_W_BOUND``, so that every node stored has |w| <= 3 (|f| for
sqrt-piv0): C contains w^4 terms, and an absolute drift bound in double
precision is only meaningful while the terms it cancels stay representable
at that accuracy.  C, xxix's (k, K, L) and the squared sqrt-piv0 residual
are first integrals of the whole flow, so each suite checks every node a
run stores.  A run ending `completed`, `w_bound` or `pole` has stopped (only
a sqrt run can reach a pole: the pole search starts above |w| = 3); one
ending `step_underflow` or `step_budget` fails its property with worst inf,
and the property's note counts such runs where there are any.
"""

import logging
import math
import random
from typing import NamedTuple

from .equations import (
    KINDS,
    EquationKind,
    Jet3,
    Params,
    constraint_c,  # noqa: F401 -- unused here; perfbench/tracing.py patches verify.constraint_c
    jet_identities,
    residual2,
)
from .integrator import (
    InitialData,
    Tolerances,
    TrajectoryStatus,
    complete_initial_data,
    dense_eval,
    integrate,
)
from .oracles import (
    eval_quadratic,
    fit_quadratic,
    square_push,
    xxix_integrals,
    xxix_pole_family,
    xxxii_u_integral,
)

logger = logging.getLogger(__name__)

_VERIFY_TOL = Tolerances(rel=1e-10, abs=1e-10)

#: the bound on |w| (|f| for sqrt-piv0) of every drawn run, and the statuses that stop one without failing it
_W_BOUND = 3.0
_STOPS = (TrajectoryStatus.COMPLETED, TrajectoryStatus.W_BOUND, TrajectoryStatus.POLE)

#: interior points per closed-form run at which dense output is checked too
_DENSE_POINTS = 8


class PropertyResult(NamedTuple):
    name: str
    worst: float
    budget: float
    note: str = ""

    @property
    def passed(self) -> bool:
        """False for a NaN worst as well as for one at or above the budget."""
        return self.worst < self.budget

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        text = f"{self.name}: {verdict} (worst {self.worst:.3e}, budget {self.budget:.1e})"
        if self.note:
            text += f" [{self.note}]"
        return text


def nan_max(*values: float) -> float:
    """The largest of values, or a NaN among them: max() keeps a NaN only when it comes first.

    Star a list, not a generator: CPython starts a tuple built from a
    generator at a guessed size and frees it onto the free list of its final
    size, from which the next such tuple is not taken, so over a long run
    those lists fill with megabytes of cached tuples.
    """
    for x in values:
        if x != x:
            return x
    return max(values)


def _runs_result(
    name: str, worst: float, budget: float, failed: int, runs: int, note: str = "",
    how: str = "ended step_underflow or step_budget",
) -> PropertyResult:
    """The result of a property checked along runs: worst inf, and a note that counts them, where any failed."""
    if failed:
        worst = math.inf
        note = "; ".join(filter(None, (note, f"{failed}/{runs} runs {how}")))
    return PropertyResult(name, worst, budget, note)


def _draw_w(rng: random.Random) -> float:
    # excludes the division-by-w neighbourhood
    while True:
        w = rng.uniform(-10.0, 10.0)
        if abs(w) >= 1e-3:
            return w


def suite_identities(seed: int, count: int) -> list[PropertyResult]:
    rng = random.Random(seed)
    worst1 = 0.0
    worst2 = 0.0
    for _ in range(count):
        z = rng.uniform(-10.0, 10.0)
        w = _draw_w(rng)
        w1 = rng.uniform(-10.0, 10.0)
        w2 = rng.uniform(-10.0, 10.0)
        w3 = rng.uniform(-10.0, 10.0)
        d1, d2 = jet_identities(Jet3(z, w, w1, w2), w3)
        scale1 = max(1.0, abs(2.0 * w1 * w2) + abs(2.0 * w * w3))
        worst1 = nan_max(worst1, abs(d1) / scale1)
        scale2 = max(
            1.0,
            abs(2.0 * w1 * w2 / w) + abs(w1 ** 3 / (w * w)) + abs((w1 / (w * w)) * (2.0 * w * w2 - w1 * w1)),
        )
        worst2 = nan_max(worst2, abs(d2) / scale2)
    budget = 1e-12
    return [
        PropertyResult("derivative of (2*w*w'' - w'^2) equals 2*w*w'''", worst1, budget),
        PropertyResult("derivative of (w'^2/w) equals (w'/w^2)*(2*w*w'' - w'^2)", worst2, budget),
    ]


def _constraint_draw(rng: random.Random):
    """Random third-order piv data over a span-2 run."""
    p = Params(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    z0 = rng.uniform(-1.5, -0.5)
    init = InitialData.raw(z0, rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    return EquationKind.PIV, p, init, 2.0


def suite_constraint(seed: int, count: int) -> list[PropertyResult]:
    rng = random.Random(seed)
    worst = 0.0
    off_manifold = 0
    at_bound = 0
    short = 0
    for _ in range(count):
        # integrate stores no step past the bound, so every node checked has |w| <= 3
        traj = integrate(*_constraint_draw(rng), _VERIFY_TOL, w_bound=_W_BOUND)
        at_bound += traj.status is TrajectoryStatus.W_BOUND
        short += traj.status not in _STOPS
        # res2 of piv is the constraint C
        c0 = traj.nodes[0].res2
        if abs(c0) > 1e-6:
            off_manifold += 1
        worst = nan_max(worst, *[abs(n.res2 - c0) for n in traj.nodes])
    note = f"{off_manifold}/{count} runs started off the C = 0 set; {at_bound}/{count} stopped where |w| passed 3"
    return [_runs_result("constraint C conserved along the third-order flow", worst, 1e-7, short, count, note)]


def _quadratic_closure(kind: EquationKind, rng: random.Random, count: int):
    worst_w = 0.0
    worst_disc = 0.0
    worst_k = 0.0
    has_k = KINDS[kind].zero_slope2(Params()) != 0.0  # xxxii, whose k is 1, has the u-substitution integral
    for _ in range(count):
        # |w0| >= 0.25 and |z0| <= 1.5 keep the b^2 - 4ac cancellation within
        # a few hundred eps, compatible with the absolute discriminant budget
        z0 = rng.uniform(-1.5, 1.5)
        w0 = rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 3.0)
        w1 = rng.uniform(-3.0, 3.0)
        span = rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 3.0)
        traj = integrate(kind, Params(), InitialData.nonzero(z0, w0, w1), span, _VERIFY_TOL)
        q = fit_quadratic(kind, traj.nodes[0].jet)
        worst_disc = nan_max(worst_disc, abs(q.discriminant - q.target_discriminant))
        for node in traj.nodes:
            exact = eval_quadratic(q, node.jet.z)
            worst_w = nan_max(worst_w, abs(node.jet.w - exact.w))
            if has_k and node.jet.w > 1e-3:
                worst_k = nan_max(worst_k, abs(xxxii_u_integral(node.jet) - q.a))
        # one exact step spans the run, so its nodes are only the two ends
        for k in range(_DENSE_POINTS):
            z = z0 + span * (k + 0.5) / _DENSE_POINTS
            worst_w = nan_max(worst_w, abs(dense_eval(traj, z).w - eval_quadratic(q, z).w))
    return worst_w, worst_disc, worst_k


def suite_closed_forms(seed: int, count: int) -> list[PropertyResult]:
    rng = random.Random(seed)
    each = max(1, count // 2)
    w32, disc32, k32 = _quadratic_closure(EquationKind.XXXII, rng, each)
    w17, disc17, _ = _quadratic_closure(EquationKind.XVII, rng, each)
    return [
        PropertyResult("xxxii trajectories reproduce their fitted quadratic", w32, 1e-9),
        PropertyResult("xvii trajectories reproduce their fitted quadratic", w17, 1e-9),
        PropertyResult("fitted discriminants hit 1 (xxxii) and 0 (xvii)", nan_max(disc32, disc17), 1e-12),
        PropertyResult("u-substitution integral equals the leading coefficient", k32, 1e-8),
    ]


def _xxix_draw(rng: random.Random):
    w0 = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.2)
    w1 = rng.uniform(-1.0, 1.0)
    span = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.5)
    return EquationKind.XXIX, Params(), InitialData.nonzero(0.0, w0, w1), span


def suite_xxix_integrals(seed: int, count: int) -> list[PropertyResult]:
    rng = random.Random(seed)
    worst_l = 0.0
    for _ in range(count):
        z0 = rng.uniform(-2.0, 2.0)
        w0 = _draw_w(rng)
        w1 = rng.uniform(-10.0, 10.0)
        init = InitialData.nonzero(z0, w0, w1)
        jet = complete_initial_data(EquationKind.XXIX, Params(), init)
        worst_l = nan_max(worst_l, abs(xxix_integrals(jet).L))

    worst_drift = 0.0
    runs = max(1, count // 10)
    short = 0
    for _ in range(runs):
        traj = integrate(*_xxix_draw(rng), _VERIFY_TOL, w_bound=_W_BOUND)
        short += traj.status not in _STOPS
        first = xxix_integrals(traj.nodes[0].jet)
        for node in traj.nodes:
            vals = xxix_integrals(node.jet)
            worst_drift = nan_max(
                worst_drift,
                abs(vals.k - first.k),
                abs(vals.K - first.K),
                abs(vals.L - first.L),
            )
            worst_l = nan_max(worst_l, abs(vals.L))

    worst_res = 0.0
    for _ in range(count):
        c = rng.uniform(-2.0, 2.0)
        z = c + rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 2.0)
        jet = xxix_pole_family(c, z)
        worst_res = nan_max(worst_res, abs(residual2(EquationKind.XXIX, Params(), jet)))

    return [
        PropertyResult("L vanishes on jets satisfying the xxix equation", worst_l, 1e-8),
        _runs_result("(k, K, L) constant along integrated xxix trajectories", worst_drift, 1e-7, short, runs),
        PropertyResult("pole family 1/(c - z) has zero xxix residual", worst_res, 1e-10),
    ]


def _sqrt_draw(rng: random.Random):
    t0 = rng.uniform(-1.0, 1.0)
    f0 = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.2)
    f1 = rng.uniform(-0.8, 0.8)
    span = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.0)
    return EquationKind.SQRT_PIV0, Params(), InitialData.raw(t0, f0, f1, 0.0), span


def suite_sqrt(seed: int, count: int) -> list[PropertyResult]:
    rng = random.Random(seed)
    worst_res = 0.0
    worst_round = 0.0
    short = 0
    unlifted = 0
    for _ in range(count):
        _, _, _, span = drawn = _sqrt_draw(rng)
        traj = integrate(*drawn, _VERIFY_TOL, w_bound=_W_BOUND)
        short += traj.status not in _STOPS
        pushed = [square_push(n.jet.z, n.jet.w, n.jet.w1) for n in traj.nodes]
        worst_res = nan_max(worst_res, *[abs(residual2(EquationKind.PIV0, Params(), q)) for q in pushed])
        arc = traj.nodes[-1].s
        if arc == 0.0:
            continue  # only node 0 is stored: nothing to lift
        # the piv0 run over the arc the sqrt run covered, on a completed run the drawn span
        init = InitialData.raw(*pushed[0])
        lifted = integrate(EquationKind.PIV0, Params(), init, math.copysign(arc, span), _VERIFY_TOL)
        if lifted.status is not TrajectoryStatus.COMPLETED:
            unlifted += 1
            continue
        worst_round = nan_max(worst_round, *[abs(dense_eval(lifted, n.jet.z).w - n.jet.w**2) for n in traj.nodes])

    return [
        _runs_result("squared sqrt-piv0 samples satisfy the piv0 residual", worst_res, 1e-8, short, count),
        _runs_result("piv0 run matches the square of the sqrt-piv0 run", worst_round, 1e-7, unlifted, count,
                     how="lifted to piv0 did not complete"),
    ]


# name -> (suite, default count), in the order the CLI lists them
_SUITES = {
    "identities": (suite_identities, 1000),
    "constraint": (suite_constraint, 50),
    "closed-forms": (suite_closed_forms, 200),
    "xxix-integrals": (suite_xxix_integrals, 200),
    "sqrt": (suite_sqrt, 25),
}
SUITE_NAMES = tuple(_SUITES)
DEFAULT_COUNTS = {name: count for name, (_, count) in _SUITES.items()}


def run_suite(suite: str, seed: int, count: int | None = None) -> list[PropertyResult]:
    if suite not in _SUITES:
        raise ValueError(f"suite: unknown suite {suite!r}; expected one of {', '.join(SUITE_NAMES)}")
    run, default = _SUITES[suite]
    n = count if count is not None else default
    if n <= 0:
        raise ValueError(f"count: must be positive, got {n}")
    results = run(seed, n)
    for r in results:
        logger.info("%s", r.line())
    return results

"""Zero location along trajectories and classification against the slope condition.

At a zero of w the constraint C = 2 w w'' - w'^2 - 3 w^4 - ... + beta^2
reduces to beta^2 - w'^2.  C is a first integral of the third-order flow,
so a zero on a trajectory whose C has drifted to C* has slope
+-sqrt(beta^2 - C*): exactly +-beta on a consistent solution.  When
beta = 0 an isolated zero additionally has w''(a) != 0 (otherwise the
third-order uniqueness theorem would force w to vanish identically near a).
The locator refines at most one candidate per node interval on the dense
interpolant, in path order and with no merging, and gives each one its
single verdict, a `ZeroBranch`.

A zero of w on the path is a minimum of |w|^2, so the path derivative
q = d|w|^2/ds = 2 Re(conj(w) w' d) rises through 0 across it, and every node
jet already carries q.  One bisection of q refines crossings, tangential
zeros and zeros a complex path meets between nodes alike, to the last bit
of s.  A search on |w| itself could not: |w| is flat around a tangential
zero, which limits the slope reading to about sqrt(abs_tol).  On the real
line a sign change of w over a node interval where q does not rise (one
long step over both a turning point and a root) is bisected on w instead.
A candidate is an event only if it refines onto the zero set,
|w| < abs_tol, so a |w| minimum where w misses zero is not reported.
"""

import cmath
import logging
import math
from dataclasses import dataclass
from enum import Enum

from .equations import EquationKind, Jet3, Scalar, ScalarField
from .errors import WrongKind
from .integrator import Trajectory, TrajectoryNode, dense_eval_param

logger = logging.getLogger(__name__)

#: slope tolerance for branch assignment, relative to max(1, |beta|)
SLOPE_TOL = 1e-6
#: curvature floor for the beta = 0 check
CURV_FLOOR = 1e-8

#: enough halvings to reach adjacent doubles in any node interval not starting at s = 0
_BISECT_ITERS = 100


class ZeroBranch(Enum):
    PLUS_BETA = "plus_beta"
    MINUS_BETA = "minus_beta"
    UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class ZeroEvent:
    """A located zero of w: refined position, slope, curvature, branch."""

    a: Scalar
    slope: Scalar
    curvature: Scalar
    branch: ZeroBranch
    curvature_nonzero: bool | None = None


def _classify(slope: Scalar, beta: float, res2: Scalar, real_mode: bool) -> ZeroBranch:
    # at a zero, res2 (C on piv/piv0) reduces to beta^2 - w'^2; the label is the nearer of +-beta
    target = math.sqrt(max(beta * beta - res2, 0.0)) if real_mode else cmath.sqrt(beta * beta - res2)
    if min(abs(slope - target), abs(slope + target)) > SLOPE_TOL * max(1.0, abs(beta)):
        return ZeroBranch.UNRESOLVED
    return ZeroBranch.PLUS_BETA if abs(slope - beta) <= abs(slope + beta) else ZeroBranch.MINUS_BETA


def _bisect(f, lo: float, hi: float) -> Jet3:
    """Bisect a sign change of f(s) -> (value, jet) on [lo, hi] until the midpoint is an endpoint.

    Returns the jet at an exact zero of f if one is met, otherwise at the
    final endpoint with the smaller |value|.
    """
    v_lo, j_lo = f(lo)
    v_hi, j_hi = f(hi)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        v, jet = f(mid)
        if v == 0:
            return jet
        if (v < 0) == (v_lo < 0):
            lo, v_lo, j_lo = mid, v, jet
        else:
            hi, v_hi, j_hi = mid, v, jet
    return j_lo if abs(v_lo) <= abs(v_hi) else j_hi


def locate_zeros(traj: Trajectory) -> tuple[ZeroEvent, ...]:
    """Locate and classify zeros of w along a trajectory.

    Each node interval (s_i, s_i+1] gives at most one candidate, in path
    order: the closing node if its w is exactly 0; otherwise, if
    q = d|w|^2/ds rises from below 0 to 0 or above, the bisection of q;
    otherwise, in REAL mode, if w changes sign, the bisection of w; and for
    the last interval only, the final node if ``|w| < tol.abs`` and q <= 0
    there, so a path that ends on a zero to rounding reports it.  Node 0
    is a candidate only if w0 is exactly 0.  Nothing is merged: a candidate
    is kept only if ``|w| < tol.abs`` at it.  Slope and curvature are read
    from the refined jet.  The slope must lie within
    ``SLOPE_TOL * max(1, |beta|)`` of +-sqrt(beta^2 - res2*), where res2* is
    the monitor of the node closing the interval (of node 0 for its own
    zero); the branch is then the nearer of +-beta, and UNRESOLVED
    otherwise.  On piv and piv0 res2* is the drifted C*; on xvii and xxix it
    is the kind's own first integral, which reduces to -w'^2 at a zero.

    Two zeros inside one node interval yield at most one event.  The
    identically-zero trajectory yields no events (its zeros are not
    isolated); callers can detect it through ``max_abs_w() == 0``.
    """
    nodes = traj.nodes
    jets = [n.jet for n in nodes]
    ws = [j.w for j in jets]
    if not any(ws):
        return ()
    d = traj.direction
    real_mode = traj.field is ScalarField.REAL
    beta = traj.params.beta

    # q / 2 = Re(conj(w) w' d): the scan and the bisection read only its sign and size ratios
    def q_at(s: float):
        jet = dense_eval_param(traj, s)
        return (jet.w.conjugate() * jet.w1 * d).real, jet

    def w_at(s: float):
        jet = dense_eval_param(traj, s)
        return jet.w, jet

    # each candidate carries the node closing its interval, whose res2 judges it
    candidates: list[tuple[Jet3, TrajectoryNode]] = [(nodes[0].jet, nodes[0])] if ws[0] == 0 else []
    qs = [(w.conjugate() * j.w1 * d).real for w, j in zip(ws, jets)]
    last = len(nodes) - 2
    abs_tol = traj.tol.abs
    for i, node in enumerate(nodes[1:]):
        if ws[i + 1] == 0:
            jet = node.jet
        elif qs[i] < 0 <= qs[i + 1]:
            jet = _bisect(q_at, nodes[i].s, node.s)
        elif real_mode and (ws[i] < 0 < ws[i + 1] or ws[i + 1] < 0 < ws[i]):
            jet = _bisect(w_at, nodes[i].s, node.s)
        elif i == last and qs[i + 1] <= 0 and abs(ws[i + 1]) < abs_tol:
            # the path ends on a zero to rounding: |w| still falls at the final node
            jet = node.jet
        else:
            continue
        candidates.append((jet, node))

    events = []
    for jet, node in candidates:
        if abs(jet.w) >= abs_tol:
            continue  # a |w| minimum off the zero set
        branch = _classify(jet.w1, beta, node.res2, real_mode)
        curvature_nonzero = (abs(jet.w2) > CURV_FLOOR) if beta == 0.0 else None
        events.append(ZeroEvent(jet.z, jet.w1, jet.w2, branch, curvature_nonzero))
    return tuple(events)


@dataclass(frozen=True)
class CurvatureReport:
    """The beta = 0 events that are UNRESOLVED or have vanishing curvature."""

    violations: tuple[ZeroEvent, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_curvature_theorem(events, traj: Trajectory) -> CurvatureReport:
    """Collect the beta = 0 zero events that break the curvature theorem.

    At beta = 0 an isolated zero has slope +-sqrt(-C*), which is 0 on a
    consistent solution, and nonzero curvature.  Both are judged once, by
    `locate_zeros`: an event violates the theorem if its branch is
    UNRESOLVED or its ``curvature_nonzero`` is false.  Valid for real
    piv/piv0 trajectories with beta = 0 that are not identically zero (the
    identically-zero trajectory produces no events, so the report is
    vacuous).  A violation falsifies the integration accuracy or the
    isolation of the zero, never the underlying statement.
    """
    if traj.kind not in (EquationKind.PIV, EquationKind.PIV0):
        raise WrongKind(f"curvature check applies to piv/piv0, not {traj.kind.value}")
    if traj.params.beta != 0.0:
        raise WrongKind(f"curvature check requires beta = 0, got beta = {traj.params.beta}")
    if traj.field is not ScalarField.REAL:
        raise WrongKind("curvature check requires REAL mode")
    report = CurvatureReport(
        tuple(e for e in events if e.branch is ZeroBranch.UNRESOLVED or not e.curvature_nonzero)
    )
    for e in report.violations:
        logger.warning(
            "curvature check violation at a = %r: slope = %r, curvature = %r",
            e.a,
            e.slope,
            e.curvature,
        )
    return report

"""Zero location along trajectories and classification against the slope condition.

At a zero of w the constraint C = 2 w w'' - w'^2 - 3 w^4 - ... + beta^2
reduces to beta^2 - w'^2.  C is a first integral of the third-order flow,
so a zero on a trajectory whose C has drifted to C* has slope
+-sqrt(beta^2 - C*): exactly +-beta on a consistent solution.  When
beta = 0 an isolated zero additionally has w''(a) != 0 (otherwise the
third-order uniqueness theorem would force w to vanish identically near a).

Between two nodes, w is the Taylor polynomial of the step that joins them
(`TrajectoryNode.series`), so every root of w in a node interval is found
on that interval's own polynomial; a long step may hold several.  It is
only ever evaluated pointwise (its expanded products are noisy near
multiple roots), by the kernels `integrator.value_kernel` writes out, so
the bits do not depend on the interpreter.  An interval is skipped at once
when |w_0| - sum_k |a_k| h^k >= abs_tol.  Otherwise it is halved, at most
`_MAX_DEPTH` times, wherever the lower bound |w(c)| - |w'(c)| r - M r^2/2
of |w| on a piece of centre c and radius r (M bounds |w''| on the
interval) stays below abs_tol; the surviving pieces form clusters.

On the real line, a piece where |w'(c)| > M r holds no root of w', so w is
monotone there.  The roots of w' in the other pieces, found by bisecting
w', cut each cluster into monotone parts, and each part holds at most one
root of w, found by bisecting w.  An extremum where |w| < abs_tol is a
tangential zero, reported at the extremum with the slope w' = 0 it has
there.  A root of w in a part next to such an extremum is that zero's,
not a second event: a trajectory whose C* drifted below 0 crosses twice
there, at slopes +-sqrt(-C*), and whose C* drifted above 0 misses zero by
rounding.  On a complex path, each cluster over which
q = d|w|^2/ds = 2 Re(conj(w) w' d) rises through 0 holds a minimum of |w|,
found by bisecting q.  A candidate is an event only if |w| < abs_tol
there, so a |w| minimum where w misses zero is not reported.
"""

import cmath
import logging
import math
from dataclasses import dataclass
from enum import Enum

from .equations import ORDER, EquationKind, Scalar, ScalarField
from .errors import WrongKind
from .integrator import Trajectory, TrajectoryNode, dense_eval_param, derivative, skip_bound_kernel, value_kernel

logger = logging.getLogger(__name__)

#: slope tolerance for branch assignment, relative to max(1, |beta|)
SLOPE_TOL = 1e-6
#: curvature floor for the beta = 0 check
CURV_FLOOR = 1e-8

#: enough halvings to reach adjacent doubles in any node interval not starting at s = 0
_BISECT_ITERS = 100
#: halvings of a node interval in the search for the pieces that may hold a zero
_MAX_DEPTH = 12


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


def _classify(slope: Scalar, beta: float, slope2: Scalar, real_mode: bool) -> ZeroBranch:
    # the slope may sit at +-beta or at the +-sqrt(slope2) the drifted monitor allows
    target = math.sqrt(max(slope2, 0.0)) if real_mode else cmath.sqrt(slope2)
    miss = min(abs(slope - beta), abs(slope + beta), abs(slope - target), abs(slope + target))
    if miss > SLOPE_TOL * max(1.0, abs(beta)):
        return ZeroBranch.UNRESOLVED
    return ZeroBranch.PLUS_BETA if abs(slope - beta) <= abs(slope + beta) else ZeroBranch.MINUS_BETA


def _opposite(u: float, v: float) -> bool:
    return u < 0 < v or v < 0 < u


def _bisect(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Bisect a sign change of f on [lo, hi] until the midpoint is an endpoint.

    Returns an exact zero of f if one is met, otherwise the final endpoint
    with the smaller |f|.
    """
    for _ in range(_BISECT_ITERS):
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


def _clusters(w_and_slope, lo: float, hi: float, bound2: float, abs_tol: float, real_mode: bool) -> list:
    """Runs of adjacent pieces of [lo, hi] on which |w| may fall below abs_tol, in path order.

    Each piece is (lo, hi, monotone); monotone pieces are found in REAL mode
    only.  bound2 bounds |w''| on [lo, hi].
    """
    clusters: list[list] = []
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        c, r = 0.5 * (a + b), 0.5 * (b - a)
        w, w1 = w_and_slope(c)
        if abs(w) - abs(w1) * r - 0.5 * bound2 * r * r >= abs_tol:
            continue
        if real_mode and abs(w1) > bound2 * r:
            piece = (a, b, True)
        elif depth < _MAX_DEPTH:
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


def _real_roots(cluster: list, w_at, slope_at, abs_tol: float) -> list[float]:
    """Roots of w in one REAL cluster: each monotone part's root, and each tangential extremum."""
    extrema = []
    i = 0
    while i < len(cluster):
        j = i
        if not cluster[i][2]:
            while j + 1 < len(cluster) and not cluster[j + 1][2]:
                j += 1
            lo, hi = cluster[i][0], cluster[j][1]
            g_lo, g_hi = slope_at(lo), slope_at(hi)
            if _opposite(g_lo, g_hi):
                extrema.append(_bisect(slope_at, lo, hi, g_lo, g_hi))
        i = j + 1
    tangential = [abs(w_at(x)) < abs_tol for x in extrema]
    ends = [cluster[0][0], *extrema, cluster[-1][1]]
    roots = [x for x, t in zip(extrema, tangential) if t]
    for k, (lo, hi) in enumerate(zip(ends, ends[1:])):
        if (k > 0 and tangential[k - 1]) or (k < len(extrema) and tangential[k]):
            continue  # the tangential zero's own crossing
        v_lo, v_hi = w_at(lo), w_at(hi)
        if _opposite(v_lo, v_hi):
            roots.append(_bisect(w_at, lo, hi, v_lo, v_hi))
    return sorted(roots)


def _interval_roots(left: TrajectoryNode, right: TrajectoryNode, d: Scalar, real_mode: bool, abs_tol: float):
    """Arc parameters of the candidate zeros strictly inside one node interval."""
    coeffs = right.series
    s0, s1 = left.s, right.s
    if skip_bound_kernel()(coeffs, s1 - s0) >= abs_tol:
        return []
    dw = derivative(coeffs)
    bound2 = value_kernel(ORDER - 1)([abs(e) for e in derivative(dw)], s1 - s0)

    def on_step(cs, at_end):
        # the closing node's own value at s1, so that both intervals it joins read one sign there
        value = value_kernel(len(cs))
        return lambda s: at_end if s == s1 else value(cs, (s - s0) * d)

    w_at, slope_at = on_step(coeffs, right.jet.w), on_step(dw, right.jet.w1)
    clusters = _clusters(lambda s: (w_at(s), slope_at(s)), s0, s1, bound2, abs_tol, real_mode)
    if real_mode:
        return [x for cluster in clusters for x in _real_roots(cluster, w_at, slope_at, abs_tol)]

    # q / 2 = Re(conj(w) w' d): only its sign is read
    def q_at(s: float) -> float:
        return (w_at(s).conjugate() * slope_at(s) * d).real

    roots = []
    for cluster in clusters:
        lo, hi = cluster[0][0], cluster[-1][1]
        q_lo, q_hi = q_at(lo), q_at(hi)
        if q_lo < 0 <= q_hi:
            roots.append(_bisect(q_at, lo, hi, q_lo, q_hi))
    return roots


def locate_zeros(traj: Trajectory) -> tuple[ZeroEvent, ...]:
    """Locate and classify zeros of w along a trajectory, in path order.

    A node whose w is exactly 0 is an event.  Inside each node interval,
    the step's own polynomial gives every candidate (see the module
    docstring); a candidate is kept only if ``|w| < tol.abs`` at it.  Slope
    and curvature are read from the jet there.  The slope must lie within
    ``SLOPE_TOL * max(1, |beta|)`` of +-beta or of +-sqrt(k - res2*),
    where res2* is the monitor of the node closing the interval (of the
    node itself for a node zero); the branch is then the nearer of +-beta,
    and UNRESOLVED otherwise.  At a zero res2 reduces to k - w'^2: on piv
    and piv0 it is C, with k = beta^2; on xvii and xxix it is the kind's
    own first integral with k = 0, and on xxxii with k = 1.

    sqrt-piv0 has f'' = 0 and a free slope at its zeros, so each is judged
    on the piv0 solution w = f^2 instead: its slope w' = 2 f f' against 0
    and +-sqrt(-C*), where C* = f^3 res2* is piv0's C at the closing node's
    squared jet, and its curvature w'' = 2 f'^2 + 2 f f''.  The event
    reports f's own slope and curvature.

    The identically-zero trajectory yields no events (its zeros are not
    isolated); callers can detect it through ``max_abs_w() == 0``.
    """
    nodes = traj.nodes
    if not any(n.jet.w for n in nodes):
        return ()
    d = traj.direction
    real_mode = traj.field is ScalarField.REAL
    beta = traj.params.beta
    abs_tol = traj.tol.abs
    k = 1.0 if traj.kind is EquationKind.XXXII else beta * beta

    # each candidate carries the node whose res2 judges it
    candidates = [(nodes[0].jet, nodes[0])] if nodes[0].jet.w == 0 else []
    for left, node in zip(nodes, nodes[1:]):
        for s in _interval_roots(left, node, d, real_mode, abs_tol):
            candidates.append((dense_eval_param(traj, s), node))
        if node.jet.w == 0:
            candidates.append((node.jet, node))

    events = []
    for jet, node in candidates:
        if abs(jet.w) >= abs_tol:
            continue  # a |w| minimum off the zero set
        slope, curvature, slope2 = jet.w1, jet.w2, k - node.res2
        if traj.kind is EquationKind.SQRT_PIV0:  # judged on w = f^2, whose C at the closing node is f^3 res2
            (f, f1, f2), g = (jet.w, jet.w1, jet.w2), node.jet.w
            slope, curvature, slope2 = 2.0 * f * f1, 2.0 * f1 * f1 + 2.0 * f * f2, -g * g * g * node.res2
        branch = _classify(slope, beta, slope2, real_mode)
        curvature_nonzero = (abs(curvature) > CURV_FLOOR) if beta == 0.0 else None
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

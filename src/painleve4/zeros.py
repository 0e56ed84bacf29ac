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
multiple roots), w with w' and w'' by nested multiplication in the
written-out `integrator._jet_kernel`, so the bits do not depend on the
interpreter; near a simple root the computed sign of w may flip, or w be
exactly 0, at more than one double.  An interval is skipped at once when
|w_0| - sum_k |a_k| h^k >= abs_tol, that sum nested on |a_k| as well
(`integrator.skip_bound_kernel`).  Otherwise it is halved, at most
`_MAX_DEPTH` times, wherever the lower bound |w(c)| - |w'(c)| r - M r^2/2
of |w| on a piece of centre c and radius r (M, the same kernel's w'' at h
on the coefficients |a_k|, bounds |w''| on the interval) stays below
abs_tol; the surviving pieces form clusters.

On the real line, a piece where |w'(c)| > M r holds no root of w', so w is
monotone there.  A piece that fails this test is not halved further where
|w''(c)| > M3 r, M3 (the kernel's w'' at h on the coefficients
(k+1)|a_(k+1)| of w', read once per interval) bounding |w'''| on the
interval: w'' keeps its sign on the piece, so w' has at most one root
there, and as two such pieces side by side share an end where w'' != 0,
a run of them holds at most one extremum.  At a beta = 0 zero the
curvature theorem makes w'' != 0, so the pieces around a tangential zero
stop within a few halvings; `_MAX_DEPTH` stops them only where w' and w''
vanish together.  The roots of w' in the non-monotone pieces cut each
cluster into monotone parts, and each part holds at most one root of w.
An extremum where |w| < abs_tol is a tangential zero, reported there with
the slope w' = 0 it has there.  A root of w in a part next to such an
extremum is that zero's, not a second event: a trajectory whose C*
drifted below 0 crosses twice there, at slopes +-sqrt(-C*), and whose C*
drifted above 0 misses zero by rounding.  On a complex path, each cluster
over which q = d|w|^2/ds = 2 Re(conj(w) w' d) rises through 0 holds a
minimum of |w| at the root of q.  A candidate is an event only if
|w| < abs_tol there, so a |w| minimum where w misses zero is not reported.

Each of these roots, of w, of w' or of q, is refined by one routine,
`_refine`: a first point from f and its s-derivative at both ends of the
bracket of a sign change, then Newton steps inside it, safeguarded by
halving, each trial point reading f and its s-derivative from one jet
(d w', d w'', and |w'|^2 + Re(conj(w) w'' d^2) for q / 2).  Like the
bisection it replaced, it stops at adjacent doubles and returns the one
with the smaller |f|, so where f's computed sign changes once in the
bracket, and f is 0 at no double off that change, an event lands on the
double bisection found; it reads about 4 trial points per root where
halving read about 50.
"""

import cmath
import logging
import math
from enum import Enum
from typing import NamedTuple

from .equations import KINDS, Scalar, ScalarField
from .errors import WrongKind
from .integrator import Trajectory, TrajectoryNode, _jet_kernel, dense_eval_param, skip_bound_kernel

logger = logging.getLogger(__name__)

#: slope tolerance for branch assignment, relative to max(1, |beta|)
SLOPE_TOL = 1e-6
#: curvature floor for the beta = 0 check
CURV_FLOOR = 1e-8

#: the most trial points `_refine` reads for one root: enough halvings to reach
#: adjacent doubles in any node interval not starting at s = 0
_BISECT_ITERS = 100
#: halvings of a node interval in the search for the pieces that may hold a zero
_MAX_DEPTH = 12


class ZeroBranch(Enum):
    PLUS_BETA = "plus_beta"
    MINUS_BETA = "minus_beta"
    UNRESOLVED = "unresolved"


class ZeroEvent(NamedTuple):
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


def _refine(f, lo: float, hi: float, at_lo: tuple, at_hi: tuple) -> float:
    """Narrow a sign change of f on [lo, hi] (lo < hi) to adjacent doubles by safeguarded Newton steps.

    f(s) returns the value of f and its s-derivative, and at_lo and at_hi
    are f(lo) and f(hi).  The first trial point is where the cubic that
    matches the inverse function s(f) and its derivative 1/f' at both ends
    reaches f = 0, or the secant's root where a rate at the ends disagrees
    with the sign change.  Each next one is Newton's point from the
    endpoint with the smaller |f|, or, where that step is within one ulp,
    the endpoint's neighbouring double toward the other end.  The midpoint
    is taken instead where Newton's point leaves the open bracket, or where
    its step is longer than four ulps and than half the step two trials
    before.  Stops at an exact zero of f, which it returns, or once lo and
    hi are adjacent doubles, and then returns the endpoint with the smaller
    |f| (lo on a tie); it reads at most `_BISECT_ITERS` trial points.  Where
    f changes sign once in [lo, hi] and is 0 at no double off that change,
    that is the double bisection returns, unless bisection's halvings run
    out first (only in an interval from s = 0).
    """
    (f_lo, r_lo), (f_hi, r_hi) = at_lo, at_hi
    df, u = f_hi - f_lo, f_lo / (f_lo - f_hi)
    if r_lo * df > 0 and r_hi * df > 0:  # inverse cubic Hermite interpolation
        x = lo + (hi - lo) * u * u * (3.0 - 2.0 * u) + df * u * (1.0 - u) * ((1.0 - u) / r_lo - u / r_hi)
    else:
        x = lo + (hi - lo) * u
    before = last = math.inf  # the lengths of the last two Newton steps
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if not lo < x < hi:
            x = mid
        v, rate = f(x)
        if v == 0:
            return x
        if (v < 0) == (f_lo < 0):
            lo, f_lo, r_lo = x, v, rate
        else:
            hi, f_hi, r_hi = x, v, rate
        near, f_near, r_near, far = (lo, f_lo, r_lo, hi) if abs(f_lo) <= abs(f_hi) else (hi, f_hi, r_hi, lo)
        step = -f_near / r_near if r_near else math.nan
        size, ulp = abs(step), math.ulp(near)
        if size <= ulp:
            x = math.nextafter(near, far)
        else:
            # rounding keeps a step of a few ulps from shrinking, so it skips that test
            x = near + step if size <= 0.5 * before or size <= 4.0 * ulp else math.nan
        before, last = last, size
    return lo if abs(f_lo) <= abs(f_hi) else hi


def _clusters(jet_at, lo: float, hi: float, bound2: float, bound3, abs_tol: float, real_mode: bool) -> list:
    """Runs of adjacent pieces of [lo, hi] on which |w| may fall below abs_tol, in path order.

    Each piece is (lo, hi, monotone); monotone pieces are found in REAL mode
    only.  bound2 bounds |w''| on [lo, hi], and bound3() bounds |w'''| there:
    it is called at most once, when a REAL piece first fails the monotone
    test, and a piece where |w''(c)| > bound3() r is not split further.
    """
    clusters: list[list] = []
    stack = [(lo, hi, 0)]
    m3 = None
    while stack:
        a, b, depth = stack.pop()
        c, r = 0.5 * (a + b), 0.5 * (b - a)
        w, w1, w2 = jet_at(c)
        if abs(w) - abs(w1) * r - 0.5 * bound2 * r * r >= abs_tol:
            continue
        monotone = real_mode and abs(w1) > bound2 * r
        if not monotone and depth < _MAX_DEPTH:
            if real_mode and m3 is None:
                m3 = bound3()
            # where w'' keeps its sign on the piece, w' has one root there at most
            if not (real_mode and abs(w2) > m3 * r):
                stack.append((c, b, depth + 1))
                stack.append((a, c, depth + 1))
                continue
        piece = (a, b, monotone)
        if clusters and clusters[-1][-1][1] == a:
            clusters[-1].append(piece)
        else:
            clusters.append([piece])
    return clusters


def _real_roots(cluster: list, jet_at, d: float, abs_tol: float) -> list[float]:
    """Roots of w in one REAL cluster: each monotone part's root, and each tangential extremum."""

    def w_rate(s: float) -> tuple[float, float]:
        w, w1, _ = jet_at(s)
        return w, d * w1

    def slope_rate(s: float) -> tuple[float, float]:
        _, w1, w2 = jet_at(s)
        return w1, d * w2

    extrema = []
    i = 0
    while i < len(cluster):
        j = i
        if not cluster[i][2]:
            while j + 1 < len(cluster) and not cluster[j + 1][2]:
                j += 1
            lo, hi = cluster[i][0], cluster[j][1]
            at_lo, at_hi = slope_rate(lo), slope_rate(hi)
            if _opposite(at_lo[0], at_hi[0]):
                extrema.append(_refine(slope_rate, lo, hi, at_lo, at_hi))
        i = j + 1
    tangential = [abs(jet_at(x)[0]) < abs_tol for x in extrema]
    ends = [cluster[0][0], *extrema, cluster[-1][1]]
    roots = [x for x, t in zip(extrema, tangential) if t]
    for k, (lo, hi) in enumerate(zip(ends, ends[1:])):
        if (k > 0 and tangential[k - 1]) or (k < len(extrema) and tangential[k]):
            continue  # the tangential zero's own crossing
        at_lo, at_hi = w_rate(lo), w_rate(hi)
        if _opposite(at_lo[0], at_hi[0]):
            roots.append(_refine(w_rate, lo, hi, at_lo, at_hi))
    return sorted(roots)


def _interval_roots(left: TrajectoryNode, right: TrajectoryNode, d: Scalar, real_mode: bool, abs_tol: float):
    """Arc parameters of the candidate zeros strictly inside one node interval."""
    coeffs = right.series
    s0, s1 = left.s, right.s
    h = s1 - s0
    # each read by the kernels of the series' own length: 3 for xvii and xxxii, p + 1 otherwise
    size = len(coeffs)
    if skip_bound_kernel(size)(coeffs, h) >= abs_tol:
        return []
    jet = _jet_kernel(size)
    bound2 = jet([abs(a) for a in coeffs], h)[2]
    end = right.jet[1:]  # (w, w', w'') of the closing node

    def bound3() -> float:
        """|w'''| bound on the interval: w'' at h of w' = sum (k + 1) a_(k+1) t^k, on the coefficients' moduli."""
        return jet([*(k * abs(a) for k, a in enumerate(coeffs[1:], 1)), 0.0], h)[2]

    def jet_at(s: float) -> tuple:
        """(w, w', w'') at s; the closing node's own jet at s1, so that both intervals it joins read one sign there."""
        return end if s == s1 else jet(coeffs, (s - s0) * d)

    clusters = _clusters(jet_at, s0, s1, bound2, bound3, abs_tol, real_mode)
    if real_mode:
        return [x for cluster in clusters for x in _real_roots(cluster, jet_at, d, abs_tol)]

    # q / 2 = Re(conj(w) w' d), whose sign is read, and its s-derivative |w'|^2 + Re(conj(w) w'' d^2)
    dd = d * d

    def q_rate(s: float) -> tuple[float, float]:
        w, w1, w2 = jet_at(s)
        return (w.conjugate() * w1 * d).real, (w1 * w1.conjugate()).real + (w.conjugate() * w2 * dd).real

    roots = []
    for cluster in clusters:
        lo, hi = cluster[0][0], cluster[-1][1]
        at_lo, at_hi = q_rate(lo), q_rate(hi)
        if at_lo[0] < 0 <= at_hi[0]:
            roots.append(_refine(q_rate, lo, hi, at_lo, at_hi))
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
    and UNRESOLVED otherwise.  At a zero res2 reduces to k - w'^2, where k
    is res2 at the jet (0, 0, 0, 0) (`KindRow.zero_slope2`): beta^2 on piv
    and piv0, whose res2 is C, 1 on xxxii and 0 on xvii and xxix.

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
    row = KINDS[traj.kind]
    k, squared = row.zero_slope2(traj.params), row.squared

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
        if squared:  # judged on w = f^2, whose C at the closing node is f^3 res2
            (f, f1, f2), g = (jet.w, jet.w1, jet.w2), node.jet.w
            slope, curvature, slope2 = 2.0 * f * f1, 2.0 * f1 * f1 + 2.0 * f * f2, -g * g * g * node.res2
        branch = _classify(slope, beta, slope2, real_mode)
        curvature_nonzero = (abs(curvature) > CURV_FLOOR) if beta == 0.0 else None
        events.append(ZeroEvent(jet.z, jet.w1, jet.w2, branch, curvature_nonzero))
    return tuple(events)


class CurvatureReport(NamedTuple):
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
    UNRESOLVED or its ``curvature_nonzero`` is false.  The theorem's domain,
    real piv/piv0 trajectories with beta = 0, is stated here only: any
    other trajectory raises WrongKind, which is how the ``zeros`` command
    knows to write no report.  The identically-zero trajectory produces no
    events, so its report is vacuous.  A violation falsifies the
    integration accuracy or the isolation of the zero, never the
    underlying statement.
    """
    if not KINDS[traj.kind].res2_is_c:
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

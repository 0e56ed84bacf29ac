"""Zero location along trajectories and classification against the slope condition.

At any zero a of a piv solution the slope satisfies w'(a) = +-beta; when
beta = 0 an isolated zero additionally has w''(a) != 0 (otherwise the
third-order uniqueness theorem would force w to vanish identically near a).
The locator refines candidates on the dense interpolant and classifies the
slope against the two admissible branches.

Real sign changes are refined by bisection.  Tangential zeros (and zeros
a COMPLEX-mode path meets between nodes) are bracketed by golden-section
minimisation of |w| and then polished on the path derivative of |w|^2,
which crosses zero transversally at the minimum; without that polish the
flatness of |w| around a tangential zero limits the slope reading to about
sqrt(abs_tol), far too coarse for the slope checks this module exists to
support.  A candidate is an event only if it refines onto the zero set,
|w| < abs_tol, so a complex |w| minimum where a zero misses the path is not
reported.
"""

import logging
import math
from dataclasses import dataclass
from enum import Enum

from .equations import EquationKind, Jet3, Scalar, ScalarField
from .errors import WrongKind
from .integrator import Trajectory, dense_eval_param

logger = logging.getLogger(__name__)

#: |w| minima are examined only below this fraction of the trajectory's max |w|
TRIGGER_FRACTION = 1e-4
#: default slope tolerance for branch assignment
SLOPE_TOL = 1e-6
#: default curvature floor for the beta = 0 check
CURV_FLOOR = 1e-8
#: events closer than this multiple of the local step size are merged
ISOLATION_STEPS = 10.0

_REFINE_ITERS = 60
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def _classify(slope: Scalar, beta: float, slope_tol: float) -> ZeroBranch:
    d_plus = abs(slope - beta)
    d_minus = abs(slope + beta)
    budget = slope_tol * max(1.0, abs(beta))
    if min(d_plus, d_minus) > budget:
        return ZeroBranch.UNRESOLVED
    return ZeroBranch.PLUS_BETA if d_plus <= d_minus else ZeroBranch.MINUS_BETA


def _refine_bisection(traj: Trajectory, s_lo: float, s_hi: float, abs_tol: float):
    """Bisect a real sign change of w on the dense interpolant; returns (s, jet)."""
    j_lo = dense_eval_param(traj, s_lo)
    j_hi = dense_eval_param(traj, s_hi)
    w_lo, w_hi = j_lo.w, j_hi.w
    best_s, best_jet = (s_lo, j_lo) if abs(w_lo) <= abs(w_hi) else (s_hi, j_hi)
    for _ in range(_REFINE_ITERS):
        if abs(best_jet.w) < abs_tol:
            break
        mid = 0.5 * (s_lo + s_hi)
        if mid == s_lo or mid == s_hi:
            break
        j_mid = dense_eval_param(traj, mid)
        if abs(j_mid.w) < abs(best_jet.w):
            best_s, best_jet = mid, j_mid
        if (w_lo < 0) == (j_mid.w < 0):
            s_lo, w_lo = mid, j_mid.w
        else:
            s_hi, w_hi = mid, j_mid.w
    return best_s, best_jet


def _abs2_slope(traj: Trajectory, s: float) -> float:
    """Path derivative of |w|^2 at s: 2 Re(conj(w) w' d); reduces to 2 w w' d on the real line."""
    jet = dense_eval_param(traj, s)
    return 2.0 * (jet.w.conjugate() * jet.w1 * traj.direction).real if isinstance(jet.w, complex) else 2.0 * jet.w * jet.w1 * traj.direction


def _refine_minimum(traj: Trajectory, s_lo: float, s_hi: float):
    """Golden-section on |w| followed by a root polish on d|w|^2/ds; returns (s, jet)."""

    def g(s: float):
        jet = dense_eval_param(traj, s)
        return abs(jet.w), jet

    lo, hi = s_lo, s_hi
    ga, ja = g(lo)
    gb, jb = g(hi)
    best_s, best_g, best_jet = (lo, ga, ja) if ga <= gb else (hi, gb, jb)
    c = hi - _INVPHI * (hi - lo)
    d_ = lo + _INVPHI * (hi - lo)
    gc, jc = g(c)
    gd, jd = g(d_)
    for point, value, jet in ((c, gc, jc), (d_, gd, jd)):
        if value < best_g:
            best_s, best_g, best_jet = point, value, jet
    for _ in range(_REFINE_ITERS):
        if best_g == 0.0:
            break
        if gc < gd:
            hi, d_, gd = d_, c, gc
            c = hi - _INVPHI * (hi - lo)
            gc, jc = g(c)
            if gc < best_g:
                best_s, best_g, best_jet = c, gc, jc
        else:
            lo, c, gc = c, d_, gd
            d_ = lo + _INVPHI * (hi - lo)
            gd, jd = g(d_)
            if gd < best_g:
                best_s, best_g, best_jet = d_, gd, jd

    # polish: d|w|^2/ds crosses zero transversally at a tangential zero
    span = traj.nodes[-1].s
    pad = max(hi - lo, 1e-9 * max(1.0, span))
    p_lo = max(0.0, best_s - pad)
    p_hi = min(span, best_s + pad)
    q_lo = _abs2_slope(traj, p_lo)
    q_hi = _abs2_slope(traj, p_hi)
    if q_lo == 0.0 and p_lo > 0.0:
        cand_s = p_lo
    elif q_hi == 0.0 and p_hi < span:
        cand_s = p_hi
    elif (q_lo < 0) != (q_hi < 0):
        a_, b_ = p_lo, p_hi
        for _ in range(80):
            mid = 0.5 * (a_ + b_)
            if mid == a_ or mid == b_:
                break
            q_mid = _abs2_slope(traj, mid)
            if q_mid == 0.0:
                break
            if (q_lo < 0) == (q_mid < 0):
                a_, q_lo = mid, q_mid
            else:
                b_ = mid
        cand_s = 0.5 * (a_ + b_)
    else:
        cand_s = None
    if cand_s is not None:
        jet = dense_eval_param(traj, cand_s)
        if abs(jet.w) <= best_g:
            best_s, best_g, best_jet = cand_s, abs(jet.w), jet
    return best_s, best_jet


def _local_step(traj: Trajectory, s: float) -> float:
    nodes = traj.nodes
    for node in nodes[1:]:
        if node.s >= s:
            return node.h if node.h > 0 else traj.tol.h_init
    return nodes[-1].h if nodes[-1].h > 0 else traj.tol.h_init


def locate_zeros(traj: Trajectory, slope_tol: float = SLOPE_TOL) -> tuple[ZeroEvent, ...]:
    """Locate and classify zeros of w along a trajectory.

    Candidates are exact node zeros, sign changes between consecutive real
    nodes, and interior or boundary |w| minima below
    ``TRIGGER_FRACTION * max|w|``.  Each candidate is refined on the dense
    interpolant and kept, in path order, only if ``|w| < tol.abs`` there;
    candidates closer than ``ISOLATION_STEPS`` local steps are first merged,
    keeping the smaller |w|.  Slope and curvature are read from the refined
    jet and the branch is the nearer of +-beta within
    ``slope_tol * max(1, |beta|)``, UNRESOLVED otherwise.

    The identically-zero trajectory yields no events (its zeros are not
    isolated); callers can detect it through ``max_abs_w() == 0``.
    """
    nodes = traj.nodes
    if len(nodes) == 0:
        return ()
    ws = [abs(n.jet.w) for n in nodes]
    w_max = max(ws)
    if w_max == 0.0:
        return ()
    trigger = TRIGGER_FRACTION * w_max
    abs_tol = traj.tol.abs
    real_mode = traj.field is ScalarField.REAL
    beta = traj.params.beta
    beta_zero = beta == 0.0

    refined: list[tuple[float, Jet3]] = []
    for node in nodes:
        if node.jet.w == 0:
            refined.append((node.s, node.jet))
    if real_mode:
        for i in range(len(nodes) - 1):
            w_a, w_b = nodes[i].jet.w, nodes[i + 1].jet.w
            if w_a != 0 and w_b != 0 and (w_a < 0) != (w_b < 0):
                refined.append(_refine_bisection(traj, nodes[i].s, nodes[i + 1].s, abs_tol))
    # interior |w| minima (tangencies, and zeros a complex path meets
    # between nodes); exact boundary zeros are already caught by the node scan above
    for i in range(1, len(nodes) - 1):
        if ws[i] == 0.0 or ws[i] >= trigger:
            continue
        if ws[i] <= ws[i - 1] and ws[i] <= ws[i + 1]:
            refined.append(_refine_minimum(traj, nodes[i - 1].s, nodes[i + 1].s))

    refined.sort(key=lambda item: item[0])
    # isolation radius: 10 local steps, capped so that long exact steps
    # (polynomial solutions) cannot swallow genuinely distinct zeros
    radius_cap = 0.05 * max(nodes[-1].s, traj.tol.h_init)
    merged: list[tuple[float, Jet3]] = []
    for s, jet in refined:
        if merged:
            s_prev, jet_prev = merged[-1]
            radius = min(ISOLATION_STEPS * _local_step(traj, s), radius_cap)
            if s - s_prev < radius:
                if abs(jet.w) < abs(jet_prev.w):
                    merged[-1] = (s, jet)
                continue
        merged.append((s, jet))

    events = []
    for _, jet in merged:
        if abs(jet.w) >= abs_tol:
            continue  # a |w| minimum that refined off the zero set
        branch = _classify(jet.w1, beta, slope_tol)
        curvature_nonzero = (abs(jet.w2) > CURV_FLOOR) if beta_zero else None
        events.append(ZeroEvent(jet.z, jet.w1, jet.w2, branch, curvature_nonzero))
    return tuple(events)


@dataclass(frozen=True)
class CurvatureCheck:
    event: ZeroEvent
    slope_ok: bool
    curvature_ok: bool

    @property
    def ok(self) -> bool:
        return self.slope_ok and self.curvature_ok


@dataclass(frozen=True)
class CurvatureReport:
    """Outcome of the beta = 0 nonzero-curvature check over a set of events."""

    checks: tuple[CurvatureCheck, ...]
    curv_floor: float
    slope_tol: float

    @property
    def violations(self) -> tuple[CurvatureCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_curvature_theorem(
    events,
    traj: Trajectory,
    curv_floor: float = CURV_FLOOR,
    slope_tol: float = SLOPE_TOL,
) -> CurvatureReport:
    """Check that every beta = 0 zero event has vanishing slope and nonzero curvature.

    Valid for real piv/piv0 trajectories with beta = 0 that are not
    identically zero (the identically-zero trajectory produces no events,
    so the report is vacuous).  A violation falsifies the integration
    accuracy or the isolation of the zero, never the underlying statement.
    """
    if traj.kind not in (EquationKind.PIV, EquationKind.PIV0):
        raise WrongKind(f"curvature check applies to piv/piv0, not {traj.kind.value}")
    if traj.params.beta != 0.0:
        raise WrongKind(f"curvature check requires beta = 0, got beta = {traj.params.beta}")
    if traj.field is not ScalarField.REAL:
        raise WrongKind("curvature check requires REAL mode")
    checks = tuple(
        CurvatureCheck(
            event=e,
            slope_ok=abs(e.slope) <= slope_tol,
            curvature_ok=abs(e.curvature) >= curv_floor,
        )
        for e in events
    )
    report = CurvatureReport(checks, curv_floor, slope_tol)
    for check in report.violations:
        logger.warning(
            "curvature check violation at a = %r: slope = %r, curvature = %r",
            check.event.a,
            check.event.slope,
            check.event.curvature,
        )
    return report

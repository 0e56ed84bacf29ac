"""Adaptive explicit integration of the third-order systems with dense output.

Every kind advances the state (w, w', w'') whose derivative is
(w', w'', rhs3); sqrt-piv0 reads it as (f, f', f'').  Both real and complex
trajectories are parametrised by a real arc parameter s >= 0 along
z(s) = z0 + s*d where d is +-1 on the real line and a unit complex
direction otherwise, so a single code path serves both modes.

The stepper is the classic Dormand-Prince 5(4) embedded pair, written out
as one unrolled kernel, `_dp3`.  `integrate` and `step` bind it once to the
kind's right-hand side (`equations.rhs_fn`), so the step loop does no kind
dispatch and no parameter validation.  Each unrolled sum runs left to right
in tableau order; tests/test_integrator.py holds a generic tableau step
that the kernel must match bit for bit.  The pair is first same as last:
its seventh stage is evaluated at y5, so after an accepted step the kernel
reuses that stage as the next step's first and calls the right-hand side
6 times per step instead of 7, with bit-identical results.

Dense output is not taken from the pair: node jets already carry
(w, w', w''), so a two-point quintic Hermite interpolant between accepted
nodes reproduces the solution to the same order and is exact on quadratics.
"""

import logging
import math
from cmath import isfinite  # takes real and complex values alike
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .equations import (
    EquationKind,
    Jet3,
    Params,
    Scalar,
    ScalarField,
    constraint_c,
    ensure_kind_params,
    is_finite_scalar,
    residual2,
    rhs3,  # noqa: F401 -- unused here; perfbench/tracing.py patches integrator.rhs3
    rhs_fn,
    _rhs2_scalar,
)
from .errors import InvalidInitialData, NonFiniteState, OutOfSpan

logger = logging.getLogger(__name__)

# Dormand-Prince 5(4) tableau (Hairer, Norsett and Wanner, Solving ODEs I,
# sec. II.5), 1-based as printed; the zero entries a72, b2 and e2 are left out.
# The last row of A equals b, so the seventh stage is evaluated at y5.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# embedded error weights e = b5 - b4
_E1, _E3, _E4, _E5, _E6, _E7 = 71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# PI controller exponents for a 5th-order propagator
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0

_MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class Tolerances:
    """Step control and termination thresholds."""

    rel: float = 1e-10
    abs: float = 1e-10
    h_init: float = 1e-3
    h_min: float = 1e-12
    pole_cutoff: float = 1e4

    def __post_init__(self):
        if not (self.rel >= 1e-14):
            raise ValueError(f"rel: must be >= 1e-14, got {self.rel}")
        if not (self.abs >= 1e-14):
            raise ValueError(f"abs: must be >= 1e-14, got {self.abs}")
        if not (0 < self.h_min < self.h_init):
            raise ValueError(f"h_min: need 0 < h_min < h_init, got {self.h_min} vs {self.h_init}")
        if not (1e3 <= self.pole_cutoff <= 1e9):
            raise ValueError(f"pole_cutoff: must lie in [1e3, 1e9], got {self.pole_cutoff}")


@dataclass(frozen=True)
class InitialData:
    """Initial data in one of three modes.

    nonzero(w0 != 0, w1):  w'' is completed from the second-order equation,
        which guarantees C = 0.
    zero(branch, w2):      w = 0 seed for piv/piv0; the slope is forced to
        branch * beta, the only value compatible with the equation, and w''
        is free.  C = 0 automatically.
    raw(w0, w1, w2):       unconstrained jet, for general third-order
        experiments including C != 0 ones.
    """

    z0: Scalar
    mode: str  # "nonzero" | "zero" | "raw"
    w0: Scalar | None = None
    w1_0: Scalar | None = None
    w2_0: Scalar | None = None
    branch: int | None = None
    field: ScalarField = ScalarField.REAL
    direction: Scalar = 1.0

    def __post_init__(self):
        if self.mode not in ("nonzero", "zero", "raw"):
            raise InvalidInitialData(f"mode: unknown initial-data mode {self.mode!r}")
        if self.mode == "nonzero":
            if self.w0 == 0 or self.w0 is None:
                raise InvalidInitialData("w0: nonzero mode requires w0 != 0")
        if self.mode == "zero":
            if self.branch not in (+1, -1):
                raise InvalidInitialData(f"branch: must be +1 or -1, got {self.branch!r}")
        if self.field is ScalarField.REAL:
            for name in ("z0", "w0", "w1_0", "w2_0"):
                value = getattr(self, name)
                if isinstance(value, complex):
                    raise InvalidInitialData(f"{name}: REAL mode rejects complex values")
        else:
            if not abs(abs(complex(self.direction)) - 1.0) <= 1e-12:
                raise InvalidInitialData(
                    f"direction: COMPLEX mode needs a unit direction, |d| = {abs(complex(self.direction))!r}"
                )

    @classmethod
    def nonzero(cls, z0, w0, w1, field=ScalarField.REAL, direction=1.0) -> "InitialData":
        return cls(z0, "nonzero", w0=w0, w1_0=w1, field=field, direction=direction)

    @classmethod
    def zero(cls, z0, branch, w2, field=ScalarField.REAL, direction=1.0) -> "InitialData":
        return cls(z0, "zero", w2_0=w2, branch=branch, field=field, direction=direction)

    @classmethod
    def raw(cls, z0, w0, w1, w2, field=ScalarField.REAL, direction=1.0) -> "InitialData":
        return cls(z0, "raw", w0=w0, w1_0=w1, w2_0=w2, field=field, direction=direction)


class TrajectoryStatus(Enum):
    COMPLETED = "completed"
    POLE = "pole"
    W_BOUND = "w_bound"
    STEP_UNDERFLOW = "step_underflow"
    STEP_BUDGET = "step_budget"


class TrajectoryNode(NamedTuple):
    """One accepted integration node with step metadata and monitor values.

    A named tuple rather than a frozen dataclass: it is just as immutable and
    hashable, and `integrate` builds one per accepted step at a third of the
    cost.
    """

    jet: Jet3
    h: float
    err_est: float
    c: Scalar
    res2: Scalar
    s: float


@dataclass(frozen=True)
class TrajectoryStats:
    """Deterministic step counts of one integration.

    accepted            trial steps that passed error control; each is stored
                        as a node, except the one that ends a run POLE or
                        W_BOUND, so len(nodes) = 1 + accepted less that step
    rejected_error      trial steps whose error estimate exceeded 1
    rejected_nonfinite  trial steps whose new state or error was not finite
    rhs_evals           right-hand side calls: 7 for a trial step, 6 for one
                        that follows an accepted step (first same as last)
    h_min, h_max        the range of h over the accepted steps; None if none
    """

    accepted: int
    rejected_error: int
    rejected_nonfinite: int
    rhs_evals: int
    h_min: float | None
    h_max: float | None


@dataclass(frozen=True)
class Trajectory:
    """Ordered accepted nodes of one integration, plus terminal status."""

    kind: EquationKind
    params: Params
    field: ScalarField
    direction: Scalar
    tol: Tolerances
    nodes: tuple[TrajectoryNode, ...]
    status: TrajectoryStatus
    stats: TrajectoryStats
    pole_estimate: Scalar | None = None

    @property
    def z0(self) -> Scalar:
        return self.nodes[0].jet.z

    @property
    def span(self) -> float:
        """Covered arc length along the path parameter."""
        return self.nodes[-1].s

    def max_abs_w(self) -> float:
        return max(abs(n.jet.w) for n in self.nodes)


def complete_initial_data(kind: EquationKind, p: Params, init: InitialData) -> Jet3:
    """Fill in the jet entries the equation determines; pass raw data through.

    For sqrt-piv0 the second derivative is never free data: it is always
    recomputed from the equation, also in raw mode.  A completed w'' that
    is not finite is rejected as InvalidInitialData naming w0.
    """
    ensure_kind_params(kind, p)
    if init.field is ScalarField.COMPLEX:
        z0 = complex(init.z0)
        conv = complex
    else:
        z0 = float(init.z0)
        conv = float

    if init.mode == "zero":
        if kind not in (EquationKind.PIV, EquationKind.PIV0):
            raise InvalidInitialData(f"zero-branch: zero mode is only valid for piv/piv0, not {kind.value}")
        return Jet3(z0, conv(0.0), conv(init.branch * p.beta), conv(init.w2_0 if init.w2_0 is not None else 0.0))

    w0 = conv(init.w0 if init.w0 is not None else 0.0)
    w1 = conv(init.w1_0 if init.w1_0 is not None else 0.0)
    if init.mode == "raw" and kind is not EquationKind.SQRT_PIV0:
        return Jet3(z0, w0, w1, conv(init.w2_0 if init.w2_0 is not None else 0.0))
    w2 = _rhs2_scalar(kind, p, z0, w0, w1)
    if not is_finite_scalar(w2):
        raise InvalidInitialData(f"w0: w'' completed from the equation is not finite ({w2!r})")
    return Jet3(z0, w0, w1, w2)


def _dp3(rhs, z0: Scalar, d: Scalar, atol: float, rtol: float):
    """Unrolled DP5(4) step of y = (w, w', w'') with dy/ds = d * (w', w'', rhs(z, w, w')).

    Returns `kernel(s, y, h)`, which advances y from arc parameter s by
    h > 0 along z = z0 + s*d and returns (y5, err): the fifth-order solution
    and the embedded error estimate in the mixed norm
    max_i |e_i| / (abs + rel * max(|y_i|, |y5_i|)).  It returns None when
    y5 or the error vector is not finite; NaN and inf propagate through the
    later stages, so one check per step covers every stage.

    First same as last: the kernel remembers the y5 of its last call, with
    s + h and the seventh stage's rhs term.  Called next with that same y5
    object at that same s, as `integrate` does after an accepted step, it
    takes that term as stage 1 instead of calling rhs: z0 + s*d is then the
    float it was evaluated at, so the result is bit-identical.  After a
    rejected step y is the older tuple, and stage 1 is evaluated afresh.
    """
    last_y = last_s = last_k = None

    def kernel(s: float, y: tuple, h: float):
        nonlocal last_y, last_s, last_k
        y0, y1, y2 = y
        # k<stage><component>: arc-parameter derivative of stage input <stage>
        k10 = d * y1
        k11 = d * y2
        if y is last_y and s == last_s:
            k12 = last_k
        else:
            k12 = d * rhs(z0 + s * d, y0, y1)
        u0 = y0 + h * (_A21 * k10)
        u1 = y1 + h * (_A21 * k11)
        u2 = y2 + h * (_A21 * k12)
        k20 = d * u1
        k21 = d * u2
        k22 = d * rhs(z0 + (s + _C2 * h) * d, u0, u1)
        u0 = y0 + h * (_A31 * k10 + _A32 * k20)
        u1 = y1 + h * (_A31 * k11 + _A32 * k21)
        u2 = y2 + h * (_A31 * k12 + _A32 * k22)
        k30 = d * u1
        k31 = d * u2
        k32 = d * rhs(z0 + (s + _C3 * h) * d, u0, u1)
        u0 = y0 + h * (_A41 * k10 + _A42 * k20 + _A43 * k30)
        u1 = y1 + h * (_A41 * k11 + _A42 * k21 + _A43 * k31)
        u2 = y2 + h * (_A41 * k12 + _A42 * k22 + _A43 * k32)
        k40 = d * u1
        k41 = d * u2
        k42 = d * rhs(z0 + (s + _C4 * h) * d, u0, u1)
        u0 = y0 + h * (_A51 * k10 + _A52 * k20 + _A53 * k30 + _A54 * k40)
        u1 = y1 + h * (_A51 * k11 + _A52 * k21 + _A53 * k31 + _A54 * k41)
        u2 = y2 + h * (_A51 * k12 + _A52 * k22 + _A53 * k32 + _A54 * k42)
        k50 = d * u1
        k51 = d * u2
        k52 = d * rhs(z0 + (s + _C5 * h) * d, u0, u1)
        u0 = y0 + h * (_A61 * k10 + _A62 * k20 + _A63 * k30 + _A64 * k40 + _A65 * k50)
        u1 = y1 + h * (_A61 * k11 + _A62 * k21 + _A63 * k31 + _A64 * k41 + _A65 * k51)
        u2 = y2 + h * (_A61 * k12 + _A62 * k22 + _A63 * k32 + _A64 * k42 + _A65 * k52)
        k60 = d * u1
        k61 = d * u2
        z_end = z0 + (s + h) * d
        k62 = d * rhs(z_end, u0, u1)
        n0 = y0 + h * (_B1 * k10 + _B3 * k30 + _B4 * k40 + _B5 * k50 + _B6 * k60)
        n1 = y1 + h * (_B1 * k11 + _B3 * k31 + _B4 * k41 + _B5 * k51 + _B6 * k61)
        n2 = y2 + h * (_B1 * k12 + _B3 * k32 + _B4 * k42 + _B5 * k52 + _B6 * k62)
        k70 = d * n1
        k71 = d * n2
        k72 = d * rhs(z_end, n0, n1)
        y5 = (n0, n1, n2)
        last_y, last_s, last_k = y5, s + h, k72
        e0 = h * (_E1 * k10 + _E3 * k30 + _E4 * k40 + _E5 * k50 + _E6 * k60 + _E7 * k70)
        e1 = h * (_E1 * k11 + _E3 * k31 + _E4 * k41 + _E5 * k51 + _E6 * k61 + _E7 * k71)
        e2 = h * (_E1 * k12 + _E3 * k32 + _E4 * k42 + _E5 * k52 + _E6 * k62 + _E7 * k72)
        if not (isfinite(n0) and isfinite(n1) and isfinite(n2) and isfinite(e0) and isfinite(e1) and isfinite(e2)):
            return None
        return y5, max(
            abs(e0) / (atol + rtol * max(abs(y0), abs(n0))),
            abs(e1) / (atol + rtol * max(abs(y1), abs(n1))),
            abs(e2) / (atol + rtol * max(abs(y2), abs(n2))),
        )

    return kernel


def step(
    kind: EquationKind,
    p: Params,
    j: Jet3,
    h: float,
    tol: Tolerances = Tolerances(),
) -> tuple[Jet3, float]:
    """One explicit embedded Runge-Kutta step of the advanced system from jet j.

    h is a signed real step in z (the path direction is sign(h); complex jet
    entries are allowed).  Returns the new jet and the embedded error
    estimate in the mixed norm.  Raises NonFiniteState if any advanced
    component or error component leaves the finite range.
    """
    if h == 0:
        raise ValueError("h: step size must be nonzero")
    d = 1.0 if h > 0 else -1.0
    out = _dp3(rhs_fn(kind, p), j.z, d, tol.abs, tol.rel)(0.0, (j.w, j.w1, j.w2), abs(h))
    if out is None:
        raise NonFiniteState(f"non-finite state advancing from z = {j.z!r} with h = {h!r}")
    y_new, err = out
    return Jet3(j.z + abs(h) * d, *y_new), err


def _pole_estimate(kind: EquationKind, j: Jet3) -> Scalar:
    """One Newton step from the jet j onto a simple zero u(a) = 0 at the pole a.

    piv and piv0 use u = 1/(w + z): their Laurent series
    w = e/(z - a) - a + O(z - a), e = +-1, makes u = e (z - a) + O((z - a)^3),
    so a = z + (w + z)/(w' + 1) is off by O((z - a)^3).  sqrt-piv0 takes the
    same step on the piv0 solution it squares to, w = f^2 and w' = 2 f f'.
    Every other kind uses u = 1/w, a = z + w/w', exact on the xxix family
    1/(c - z).  Where the step is undefined (u' = 0) the estimate is z.
    """
    z, w, w1 = j.z, j.w, j.w1
    if kind is EquationKind.SQRT_PIV0:
        w, w1 = w * w, 2.0 * w * w1
    shifted = kind in (EquationKind.PIV, EquationKind.PIV0, EquationKind.SQRT_PIV0)
    num, den = (w + z, w1 + 1.0) if shifted else (w, w1)
    return z if den == 0 else z + num / den


def integrate(
    kind: EquationKind,
    p: Params,
    init: InitialData,
    span: float,
    tol: Tolerances = Tolerances(),
    *,
    w_bound: float = math.inf,
) -> Trajectory:
    """Adaptive accept/reject integration over a path of length |span|.

    REAL mode integrates from z0 to z0 + span (span may be negative);
    COMPLEX mode walks the straight path z = z0 + s * direction for
    s in [0, span] with span > 0.  Every accepted node records the
    constraint value C and the division-free residual of the selected
    second-order equation.

    The returned `Trajectory.stats` counts the trial steps, the rhs calls
    and the range of accepted h; they are deterministic, like the nodes.

    Termination:
      COMPLETED       the requested span was covered,
      POLE(z_est)     an accepted step took |w| above pole_cutoff (|f^2| for
                      sqrt-piv0); z_est is one Newton step from that step's
                      jet (`_pole_estimate`), which is not stored as a node,
      W_BOUND         an accepted step took |w| above w_bound (|f| for
                      sqrt-piv0, as `Trajectory.max_abs_w` measures) but not
                      above pole_cutoff; that step is not stored either, so
                      every stored |w| is at most w_bound; a caller that
                      rejects any run leaving |w| <= w_bound stops it here,
      STEP_UNDERFLOW  the controller pushed h below h_min,
      STEP_BUDGET     _MAX_STEPS step attempts did not cover the span.
    """
    ensure_kind_params(kind, p)
    if not (span != 0 and is_finite_scalar(span) and not isinstance(span, complex)):
        raise ValueError(f"span: must be a nonzero finite real, got {span!r}")
    if not (w_bound > 0):
        raise ValueError(f"w_bound: must be positive, got {w_bound!r}")
    if kind is EquationKind.SQRT_PIV0 and init.field is ScalarField.COMPLEX:
        raise InvalidInitialData("field: sqrt-piv0 is restricted to REAL mode")
    if init.field is ScalarField.COMPLEX:
        if span < 0:
            raise ValueError("span: COMPLEX paths use span > 0 with a direction vector")
        d: Scalar = complex(init.direction)
    else:
        d = 1.0 if span > 0 else -1.0

    # residual2 of piv/piv0 is the constraint polynomial itself
    res2_is_c = kind in (EquationKind.PIV, EquationKind.PIV0)
    # sqrt-piv0's f squares to the piv0 solution that has the pole
    squared = kind is EquationKind.SQRT_PIV0
    # one comparison per accepted step serves both the cutoff and the bound
    stop = min(tol.pole_cutoff, w_bound * w_bound if squared else w_bound)

    try:
        j0 = complete_initial_data(kind, p, init)
        c = constraint_c(p, j0)
        nodes = [TrajectoryNode(j0, 0.0, 0.0, c, c if res2_is_c else residual2(kind, p, j0), 0.0)]
    except OverflowError:
        raise InvalidInitialData("w0: initial data overflows floating point") from None
    total = abs(span)
    z0 = j0.z
    h_min = tol.h_min
    kernel = _dp3(rhs_fn(kind, p), z0, d, tol.abs, tol.rel)
    y = (j0.w, j0.w1, j0.w2)
    status = TrajectoryStatus.COMPLETED
    pole_estimate: Scalar | None = None

    s = 0.0
    h = min(tol.h_init, total)
    err_prev = 1.0
    rejected = False
    n_steps = 0
    rejected_error = rejected_nonfinite = 0

    while total - s > h_min:
        n_steps += 1
        if n_steps > _MAX_STEPS:
            status = TrajectoryStatus.STEP_BUDGET
            break
        if h < h_min:
            status = TrajectoryStatus.STEP_UNDERFLOW
            break
        hit_end = h >= total - s
        if hit_end:
            h = total - s
        out = kernel(s, y, h)
        if out is None:
            h *= _MIN_FACTOR
            rejected = True
            rejected_nonfinite += 1
            continue
        y_new, err = out
        if err > 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
            rejected = True
            rejected_error += 1
            continue

        # accepted
        s_new = total if hit_end else s + h
        w = y_new[0]
        mag = abs(w * w if squared else w)
        if mag > stop:
            if mag > tol.pole_cutoff:
                status = TrajectoryStatus.POLE
                pole_estimate = _pole_estimate(kind, Jet3(z0 + s_new * d, *y_new))
            else:
                status = TrajectoryStatus.W_BOUND
            break

        # constraint_c and residual2 stay module-global lookups, so a tracer can wrap them
        jet = Jet3(z0 + s_new * d, *y_new)
        c = constraint_c(p, jet)
        nodes.append(TrajectoryNode(jet, h, err, c, c if res2_is_c else residual2(kind, p, jet), s_new))
        if hit_end:
            break

        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            # err_prev is floored at 1e-16 where it is set
            factor = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** _PI_BETA
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        if rejected:
            factor = min(1.0, factor)
        h *= factor
        err_prev = max(err, 1e-16)
        rejected = False
        s, y = s_new, y_new

    stats = _stats(nodes, status, h, rejected_error, rejected_nonfinite, rejected)
    logger.info(
        "integrate %s: %d nodes, status %s, span %.6g of %.6g; %s",
        kind.value,
        len(nodes),
        status.value,
        nodes[-1].s,
        total,
        stats,
    )
    return Trajectory(kind, p, init.field, d, tol, tuple(nodes), status, stats, pole_estimate)


def _stats(
    nodes: list, status: TrajectoryStatus, h: float, rej_error: int, rej_nonfinite: int, rejected: bool
) -> TrajectoryStats:
    """The step counts of a finished `integrate` loop, derived once instead of per step.

    h is the last step tried, which a POLE or W_BOUND run took but did not
    store.  `rejected` is the loop's flag: at a STEP_BUDGET or
    STEP_UNDERFLOW exit it says the last trial step was rejected, and every
    other exit follows an accepted step.
    """
    hs = [node.h for node in nodes[1:]]
    if status in (TrajectoryStatus.POLE, TrajectoryStatus.W_BOUND):
        hs.append(h)
    trials = len(hs) + rej_error + rej_nonfinite
    # stage 1 is evaluated afresh on the first trial and on each one after a
    # rejection: every rejection but a final one is followed by a trial
    last_rejected = rejected and status in (TrajectoryStatus.STEP_BUDGET, TrajectoryStatus.STEP_UNDERFLOW)
    fresh = min(trials, 1) + rej_error + rej_nonfinite - last_rejected
    return TrajectoryStats(
        len(hs),
        rej_error,
        rej_nonfinite,
        6 * trials + fresh,
        min(hs, default=None),
        max(hs, default=None),
    )


def _hermite_quintic(n0: TrajectoryNode, n1: TrajectoryNode, d: Scalar, s: float) -> Jet3:
    """Two-point quintic Hermite through (w, w', w'') at the bracketing nodes."""
    h = n1.s - n0.s
    theta = (s - n0.s) / h
    j0, j1 = n0.jet, n1.jet
    # arc-parameter derivatives: dw/ds = d * w', d2w/ds2 = d^2 * w''
    c0 = j0.w
    c1 = h * (d * j0.w1)
    c2 = 0.5 * h * h * (d * d * j0.w2)
    ra = j1.w - c0 - c1 - c2
    rb = h * (d * j1.w1) - c1 - 2.0 * c2
    rc = h * h * (d * d * j1.w2) - 2.0 * c2
    c3 = 10.0 * ra - 4.0 * rb + 0.5 * rc
    c4 = -15.0 * ra + 7.0 * rb - rc
    c5 = 6.0 * ra - 3.0 * rb + 0.5 * rc
    w = c0 + theta * (c1 + theta * (c2 + theta * (c3 + theta * (c4 + theta * c5))))
    dw = c1 + theta * (2.0 * c2 + theta * (3.0 * c3 + theta * (4.0 * c4 + theta * 5.0 * c5)))
    d2w = 2.0 * c2 + theta * (6.0 * c3 + theta * (12.0 * c4 + theta * 20.0 * c5))
    z = j0.z + (s - n0.s) * d
    return Jet3(z, w, (dw / h) / d, (d2w / (h * h)) / (d * d))


def dense_eval_param(traj: Trajectory, s: float) -> Jet3:
    """Interpolated jet at arc parameter s in [0, covered span]."""
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
    return _hermite_quintic(nodes[lo], nodes[hi], traj.direction, s)


def dense_eval(traj: Trajectory, z) -> Jet3:
    """Interpolated jet at z (REAL mode) or at arc parameter z (COMPLEX mode).

    On the real line z itself parametrises the path, so z is accepted
    directly; a straight complex path is indexed by the real arc parameter
    because a generic complex z does not lie on it.
    """
    if traj.field is ScalarField.COMPLEX:
        return dense_eval_param(traj, float(z))
    s = (float(z) - traj.z0) * traj.direction
    try:
        return dense_eval_param(traj, s)
    except OutOfSpan:
        z_lo = min(traj.z0, traj.nodes[-1].jet.z)
        z_hi = max(traj.z0, traj.nodes[-1].jet.z)
        raise OutOfSpan(f"z = {z!r} outside covered span [{z_lo!r}, {z_hi!r}]") from None

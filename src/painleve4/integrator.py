"""Taylor-series integration of the third-order systems with dense output.

Every kind advances the state (w, w', w'') whose derivative is
(w', w'', rhs3); sqrt-piv0 reads it as (f, f', f'').  Both real and complex
trajectories are parametrised by a real arc parameter s >= 0 along
z(s) = z0 + s*d where d is +-1 on the real line and a unit complex
direction otherwise, so a single code path serves both modes.

Each step expands w about the current node to order p = `ORDER` with the
kind's coefficient recurrence (`equations.series_fn`), bound once when
`integrate` is entered, and evaluates that polynomial at
z + h*d.  The step length follows Jorba and Zou (Exp. Math. 14 (2005)):

    h = 0.5 * min over k = p-3 .. p of ((abs + rel |w|) / |a_k|)^(1/k),

capped at the span left.  Four orders, not two: a series with period-4
sparsity (piv at beta = 1 from the zero jet w = 0, w' = 1, w'' = 0 has
a_18 = a_19 = a_20 = 0) would otherwise read as exact.  Only when all four
vanish is h unbounded, which is the exact xvii/xxxii case (a_k = 0 for
k >= 3), so those kinds cross any span in one step.  A step is rejected
when the rule asks for h below `_H_MIN` = 1e-12 (on error) or a
coefficient or the state is not finite; the first rejection ends the run
STEP_UNDERFLOW, and no step is retried.

Each node keeps the coefficients of the step that reached it, so dense
output evaluates that step's own polynomial, and the zero search reads the
same polynomial; nothing is recomputed after `integrate`.

A movable pole is a simple root of u = 1/(w + z) for piv and piv0 (their
Laurent series w = e/(z - a) - a + O(z - a), e = +-1, makes
u = e (z - a) + O((z - a)^3)), of u = 1/(f^2 + t) for sqrt-piv0 and of
u = 1/w for xxix.  At each node with |w| > `_SERIES_POLE_FROM` (|f^2| for
sqrt-piv0) the series of u is divided out of the step's series, and
Newton's method finds its root near the node.  The run ends POLE at that
root, with no further step, when the root lies within the Jorba-Zou step
that u's own coefficients allow and ahead on the path within the span left
(Fornberg and Weideman, J. Comput. Phys. 230 (2011), read poles off the
same local expansions).  Otherwise the run steps on; xvii and xxxii have no
poles.  This is the only pole rule: the third-order form is regular at the
zeros of w, so no other point ends a run.
"""

import logging
import math
from cmath import isfinite  # takes real and complex values alike
from dataclasses import dataclass
from enum import Enum
from functools import cache
from operator import mul
from typing import NamedTuple

from .equations import (
    ORDER,
    EquationKind,
    Jet3,
    Params,
    Scalar,
    ScalarField,
    compile_kernel,
    constraint_c,
    ensure_kind_params,
    residual2,
    rhs3,  # noqa: F401 -- unused here; perfbench/tracing.py patches integrator.rhs3
    series_fn,
    written_sum,
    _rhs2_scalar,
)
from .errors import InvalidInitialData, OutOfSpan

logger = logging.getLogger(__name__)

_MAX_STEPS = 1_000_000
# the shortest step the rule may ask for; a span left below it counts as covered
_H_MIN = 1e-12

# |w| (|f^2| for sqrt-piv0) above which each node's series is searched for
# the pole, which is then about 1/|w| away; a run that stores no |w| above it,
# such as a verify draw capped at 3 or 10, never searches
_SERIES_POLE_FROM = 10.0
# the kinds whose solutions are quadratics, with no poles
_POLE_FREE = (EquationKind.XVII, EquationKind.XXXII)
# Newton iterations before a root search gives up
_NEWTON_STEPS = 30
# how far off a complex path (|Im| of r/d) a series root may lie and still end
# the run there: passing a pole at distance delta takes |w| on the path to
# about 1/delta, so a root within 1e-4 is a pole the path runs into, while a
# root farther off is a pole the path passes, and the steps integrate past it
_OFF_PATH = 1e-4

# k = 1 .. p: the factors that turn coefficients of w into those of its derivative
_DERIVATIVE_FACTORS = range(1, ORDER + 1)
# kernel lines that set p_k = t^k for k = 0 .. p, as p0 = 1.0 and p_k = p_(k-1) * t
_POWERS = ["p0 = 1.0", *(f"p{k} = p{k - 1} * t" for k in range(1, ORDER + 1))]


@dataclass(frozen=True)
class Tolerances:
    """The step rule's relative and absolute tolerances; the shortest step is the constant `_H_MIN`."""

    rel: float = 1e-10
    abs: float = 1e-10

    def __post_init__(self):
        # comparisons chained this way are false for NaN as well as for inf
        if not (1e-14 <= self.rel <= 1.0):
            raise ValueError(f"rel: must be finite and in [1e-14, 1], got {self.rel}")
        if not (1e-14 <= self.abs <= 1.0):
            raise ValueError(f"abs: must be finite and in [1e-14, 1], got {self.abs}")


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
    """One integration node with the step that reached it and its monitor values.

    h, err_est and series describe the step from the previous node:
    series holds its Taylor coefficients a_0 .. a_p in powers of z - z_prev
    (`equations.series_fn`), so w between the two nodes is that polynomial,
    and err_est is its largest tail term |a_k| h^k, k = p-3 .. p, in units of
    abs + rel |w_prev|.  Node 0 has h = err_est = 0 and no series.

    A named tuple rather than a frozen dataclass: it is just as immutable and
    hashable, and `integrate` builds one per step at a third of the cost.
    """

    jet: Jet3
    h: float
    err_est: float
    c: Scalar
    res2: Scalar
    s: float
    series: tuple = ()


@dataclass(frozen=True)
class Trajectory:
    """Ordered nodes of one integration, plus terminal status."""

    kind: EquationKind
    params: Params
    field: ScalarField
    direction: Scalar
    tol: Tolerances
    nodes: tuple[TrajectoryNode, ...]
    status: TrajectoryStatus
    pole_estimate: Scalar | None = None

    @property
    def z0(self) -> Scalar:
        return self.nodes[0].jet.z

    @property
    def span(self) -> float:
        """Covered arc length along the path parameter."""
        return self.nodes[-1].s

    @property
    def stats(self) -> dict:
        """Step counters from the nodes: the len(nodes) - 1 stored steps and the range of their h (None if none)."""
        hs = [node.h for node in self.nodes[1:]]
        return {"accepted": len(hs), "h_min": min(hs, default=None), "h_max": max(hs, default=None)}

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
    if not isfinite(w2):
        raise InvalidInitialData(f"w0: w'' completed from the equation is not finite ({w2!r})")
    return Jet3(z0, w0, w1, w2)


def derivative(coeffs) -> list:
    """Coefficients of the derivative of the polynomial with the given coefficients."""
    return list(map(mul, coeffs[1:], _DERIVATIVE_FACTORS))


def _names(x: str, n: int = ORDER + 1) -> str:
    """'x0, x1, ..., x(n-1), ': the names a kernel unpacks or returns."""
    return "".join(f"{x}{k}, " for k in range(n))


@cache
def value_kernel(n: int):
    """c_0 + c_1 t + ... + c_(n-1) t^(n-1) from (cs, t), written out, added left to right from 0; built once per n."""
    value = written_sum(f"c{k} * p{k}" for k in range(n))
    return compile_kernel(f"value{n}", "cs, t", [f"{_names('c', n)}= cs", *_POWERS[:n], f"return {value}"])


@cache
def skip_bound_kernel():
    """|a_0| - (|a_1| h + ... + |a_p| h^p) from (coeffs, t = h), written out like `value_kernel`; compiled once."""
    terms = written_sum(f"abs(a{k}) * p{k}" for k in range(1, ORDER + 1))
    return compile_kernel("skip_bound", "coeffs, t", [f"{_names('a')}= coeffs", *_POWERS, f"return abs(a0) - {terms}"])


@cache
def _jet_kernel():
    """`taylor_jet` written out and compiled, once per process: p_k = t^k, b_k and e_k = `derivative`, twice."""
    sums = (("a", 0, ORDER + 1), ("b", 1, ORDER), ("e", 1, ORDER - 1))  # name, first index, terms
    return compile_kernel("taylor_jet", "coeffs, t", [
        f"{_names('a')}= coeffs", *_POWERS,
        *(f"b{k} = a{k} * {k}" for k in range(1, ORDER + 1)),
        *(f"e{k} = b{k + 1} * {k}" for k in range(1, ORDER)),
        "return " + ", ".join(written_sum(f"{x}{k + i} * p{k}" for k in range(n)) for x, i, n in sums),
    ])


def taylor_jet(coeffs, t: Scalar) -> tuple[Scalar, Scalar, Scalar]:
    """(w, w', w'') at z_prev + t of the series w = sum a_k (z - z_prev)^k.

    Each of the three sums of the compiled `_jet_kernel` is added left to right from 0.
    """
    return _jet_kernel()(coeffs, t)


def _step_length(coeffs, bound: float) -> float | None:
    """Jorba-Zou step 0.5 min_k (bound / |a_k|)^(1/k) over k = p-3 .. p; None if a coefficient is not finite.

    inf when all four coefficients vanish: the series ends below them.
    """
    h = math.inf
    for k in range(ORDER - 3, ORDER + 1):
        m = abs(coeffs[k])
        if not m < math.inf:
            return None
        if m:
            h = min(h, (bound / m) ** (1.0 / k))
    return 0.5 * h


def _tail_error(coeffs, h: float, bound: float) -> float:
    return max(abs(coeffs[k]) * h ** k for k in range(ORDER - 3, ORDER + 1)) / bound


@cache
def _reciprocal():
    """The kernel v -> u = 1/v (v_0 != 0): u_k = -u_0 (0 + v_1 u_(k-1) + ... + v_k u_0), written out; built once."""
    rows = (f"u{k} = -u0 * {written_sum(f'v{i} * u{k - i}' for i in range(1, k + 1))}" for k in range(1, ORDER + 1))
    return compile_kernel("reciprocal", "v", [f"{_names('v')}= v", "u0 = 1.0 / v0", *rows, f"return [{_names('u')}]"])


@cache
def _cauchy_square():
    """The kernel f_0 .. f_p -> the first p + 1 coefficients of f^2, each Cauchy sum written out; compiled once."""
    squares = (written_sum(f"f{i} * f{k - i}" for i in range(k + 1)) for k in range(ORDER + 1))
    return compile_kernel("cauchy_square", "f", [f"{_names('f')}= f", f"return [{', '.join(squares)}]"])


def _newton_root(u) -> Scalar | None:
    """The root of sum u_k t^k that Newton's method reaches from t = 0, u and u' read by `value_kernel`; or None."""
    du, value, slope_at = derivative(u), value_kernel(ORDER + 1), value_kernel(ORDER)
    t = 0.0
    for _ in range(_NEWTON_STEPS):
        slope = slope_at(du, t)
        if slope == 0:
            return None
        dt = value(u, t) / slope
        t -= dt
        # quadratic convergence: the next step would be below rounding
        if abs(dt) <= 1e-13 * abs(t):
            return t
    return None


def _pole_coordinate(kind: EquationKind, coeffs, z: Scalar) -> list | None:
    """Taylor coefficients of u = 1/v about the point z of a step's series; None where v vanishes there.

    v = w + z for piv and piv0, f^2 + t for sqrt-piv0 (one Cauchy product)
    and w for xxix: u has a simple root at each pole.  xvii and xxxii
    solutions are quadratics, with no poles: None.
    """
    if kind in _POLE_FREE:
        return None
    if kind is EquationKind.XXIX:
        v = coeffs
    else:
        if kind is EquationKind.SQRT_PIV0:
            coeffs = _cauchy_square()(coeffs)
        v = [coeffs[0] + z, coeffs[1] + 1.0, *coeffs[2:]]
    return None if v[0] == 0 else _reciprocal()(v)


def _series_pole(kind: EquationKind, coeffs, z: Scalar, d: Scalar, left: float, tol: Tolerances) -> Scalar | None:
    """Offset r from the node at z to the pole at z + r, read off the node's series; None where it is not trusted.

    u = 1/v with v = w + z (piv, piv0), f^2 + t (sqrt-piv0) or w (xxix),
    in powers of z' - z.  r is accepted only when it lies within the
    Jorba-Zou step of u at the run's tolerances, so the neglected tail of u
    is below them there, and ahead on the path: r/d in (0, left] and, on a
    complex path, within `_OFF_PATH` of it.
    """
    u = _pole_coordinate(kind, coeffs, z)
    h = None if u is None else _step_length(u, tol.abs + tol.rel * abs(u[0]))
    if h is None:
        return None
    r = _newton_root(u)
    if r is None or not abs(r) <= h:
        return None
    t = r / d
    if 0.0 < t.real <= left and abs(t.imag) <= _OFF_PATH:
        return r
    return None


def integrate(
    kind: EquationKind,
    p: Params,
    init: InitialData,
    span: float,
    tol: Tolerances = Tolerances(),
    *,
    w_bound: float = math.inf,
) -> Trajectory:
    """Taylor-series integration over a path of length |span|.

    REAL mode integrates from z0 to z0 + span (span may be negative);
    COMPLEX mode walks the straight path z = z0 + s * direction for
    s in [0, span] with span > 0.  Every node records the constraint value
    C, the division-free residual of the selected second-order equation,
    and the coefficients of the step that reached it.

    The returned `Trajectory.stats` counts the stored steps and the range
    of their h; they are read off the nodes, so they are as deterministic.

    Termination:
      COMPLETED       the requested span was covered,
      POLE(z_est)     at a node with |w| > 10 (|f^2| for sqrt-piv0) the
                      series of u = 1/(w + z) (1/(f^2 + t), 1/w for xxix)
                      has a root within u's own step, ahead on the path
                      within the span left (`_series_pole`); z_est is that
                      root, and that node is the last one stored; xvii
                      and xxxii, whose quadratics have no pole, never end
                      here,
      W_BOUND         a step took |w| above w_bound (|f| for sqrt-piv0, as
                      `Trajectory.max_abs_w` measures); that step is
                      neither stored nor counted, so every stored |w| is
                      at most w_bound; a caller that rejects any run
                      leaving |w| <= w_bound stops it here,
      STEP_UNDERFLOW  the step rule asked for h below _H_MIN, or a
                      coefficient or the new state was not finite; a run
                      that nears a pole whose series root it never trusts
                      ends here,
      STEP_BUDGET     _MAX_STEPS steps did not cover the span.
    """
    ensure_kind_params(kind, p)
    if not (span != 0 and isfinite(span) and not isinstance(span, complex)):
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
    # mag is |f^2| for sqrt-piv0, so its bound on |f| is squared
    stop = w_bound * w_bound if squared else w_bound

    try:
        j0 = complete_initial_data(kind, p, init)
        c = constraint_c(p, j0)
        nodes = [TrajectoryNode(j0, 0.0, 0.0, c, c if res2_is_c else residual2(kind, p, j0), 0.0)]
    except OverflowError:
        raise InvalidInitialData("w0: initial data overflows floating point") from None
    total = abs(span)
    z0 = j0.z
    h_min, abs_tol, rel_tol = _H_MIN, tol.abs, tol.rel
    series = series_fn(kind, p)
    jet_at = _jet_kernel()
    jet = j0
    status = TrajectoryStatus.COMPLETED
    pole_estimate: Scalar | None = None
    mag = abs(j0.w * j0.w if squared else j0.w)
    s = 0.0
    n_steps = 0

    while total - s > h_min:
        n_steps += 1
        if n_steps > _MAX_STEPS:
            status = TrajectoryStatus.STEP_BUDGET
            break
        coeffs = series(jet.z, jet.w, jet.w1, jet.w2)
        if mag > _SERIES_POLE_FROM:
            r = _series_pole(kind, coeffs, jet.z, d, total - s, tol)
            if r is not None:
                status = TrajectoryStatus.POLE
                pole_estimate = jet.z + r
                break
        bound = abs_tol + rel_tol * abs(jet.w)
        h = _step_length(coeffs, bound)
        if h is None:
            status = TrajectoryStatus.STEP_UNDERFLOW
            break
        hit_end = h >= total - s
        if hit_end:
            h = total - s
        elif h < h_min:
            status = TrajectoryStatus.STEP_UNDERFLOW
            break
        w, w1, w2 = jet_at(coeffs, h * d)
        if not (isfinite(w) and isfinite(w1) and isfinite(w2)):
            status = TrajectoryStatus.STEP_UNDERFLOW
            break
        s_new = total if hit_end else s + h
        mag = abs(w * w if squared else w)
        if mag > stop:
            status = TrajectoryStatus.W_BOUND
            break

        # constraint_c and residual2 stay module-global lookups, so a tracer can wrap them
        jet = Jet3(z0 + s_new * d, w, w1, w2)
        c = constraint_c(p, jet)
        res2 = c if res2_is_c else residual2(kind, p, jet)
        nodes.append(TrajectoryNode(jet, h, _tail_error(coeffs, h, bound), c, res2, s_new, tuple(coeffs)))
        s = s_new

    traj = Trajectory(kind, p, init.field, d, tol, tuple(nodes), status, pole_estimate)
    logger.info(
        "integrate %s: %d nodes, status %s, span %.6g of %.6g; %s%s",
        kind.value,
        len(nodes),
        status.value,
        nodes[-1].s,
        total,
        traj.stats,
        "" if pole_estimate is None else
        f"; pole by series root at distance {abs(pole_estimate - nodes[-1].jet.z):.3g} from node {len(nodes) - 1}",
    )
    return traj


def dense_eval_param(traj: Trajectory, s: float) -> Jet3:
    """Jet at arc parameter s in [0, covered span], on the polynomial of the step that covers s."""
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
    left = nodes[lo]
    t = (s - left.s) * traj.direction
    return Jet3(left.jet.z + t, *taylor_jet(nodes[hi].series, t))


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

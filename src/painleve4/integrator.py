"""Taylor-series integration of the third-order systems with dense output.

Every kind advances the state (w, w', w'') whose derivative is
(w', w'', rhs3); sqrt-piv0 reads it as (f, f', f'').  Both real and complex
trajectories are parametrised by a real arc parameter s >= 0 along
z(s) = z0 + s*d where d is +-1 on the real line and a unit complex
direction otherwise, so a single code path serves both modes.

Each step expands w about the current node to order p = `ORDER` with the
kind's coefficient recurrence (`equations.series_lines`) and evaluates that
polynomial at z + h*d.  xvii and xxxii, whose w''' = 0, have the exact
quadratic for their series: each of their steps holds a_0, a_1 and a_2
alone.  The recurrence, the step rule, that evaluation and err_est are one
written-out kernel per recurrence (`_step_kernel`), looked up once when
`integrate` is entered; it returns the coefficients with the step, so at
a node where the pole search runs (below) the search reads them before the
step is used.  Every evaluation of a step polynomial, the step's end, dense
output, the zero search and the pole rule's Newton iteration, is nested
(Horner) multiplication written out by `_nested` for the series' own
length, which forms no power of t.  The step length follows Jorba and Zou
(Exp. Math. 14 (2005)):

    h = 0.5 * min over k = p-3 .. p of ((abs + rel |w|) / |a_k|)^(1/k),

capped at the span left.  Four orders, not two: a series with period-4
sparsity (piv at beta = 1 from the zero jet w = 0, w' = 1, w'' = 0 has
a_18 = a_19 = a_20 = 0) would otherwise read as exact.  Where all four
vanish h is unbounded, and err_est takes no power h^k of a zero a_k, which
would overflow from |span| of about 2.59e15, the largest double's 20th
root.  The quadratic has no tail orders at all: its step is the span left,
with err_est 0.0, so xvii and xxxii cross any span in one step whose end
point is finite.  A step is rejected when the rule asks for h below
`_H_MIN` = 1e-12 (on error) or a coefficient or the state is not finite;
the first rejection ends the run STEP_UNDERFLOW, and no step is retried.

Each node keeps the coefficients of the step that reached it, so dense
output evaluates that step's own polynomial, and the zero search reads the
same polynomial; nothing is recomputed after `integrate`.  The node jets,
and the jets dense output builds on them, skip `Jet3`'s finiteness check
(`equations._trusted_jet`): the step kernel has refused every non-finite
state, and an arc parameter that is not within the covered span, NaN
included, raises OutOfSpan.

A movable pole is a simple root of u = 1/(w + z) for piv and piv0 (their
Laurent series w = e/(z - a) - a + O(z - a), e = +-1, makes
u = e (z - a) + O((z - a)^3)), of u = 1/(f^2 + t) for sqrt-piv0 and of
u = 1/w for xxix.  At each node with |w| > `_SERIES_POLE_FROM` (|f^2| for
sqrt-piv0) the series of u is divided out of the step's series, and
Newton's method finds its root r near the node.  The run ends POLE at that
root, with no further step, when it lies ahead on the path within the span
left and u's neglected tail moves it by at most the run's tolerances:

    max over k = p-3 .. p of |u_k| |r|^k / |u'(r)| <= abs + rel |z + r|,

which the trajectory reports as `pole_bound`; it bounds the truncation of
u's series, not the error the node's jet carries (Fornberg and Weideman,
J. Comput. Phys. 230 (2011), read poles off the same local expansions).
Otherwise the run steps on; xvii and xxxii have no poles.  This is the
only pole rule: the third-order form is regular at the zeros of w, so no
other point ends a run.
"""

import cmath
import logging
import math
from bisect import bisect_right
from cmath import isfinite  # takes real and complex values alike
from enum import Enum
from functools import cache, partial
from operator import attrgetter
from typing import NamedTuple

from .equations import (
    KINDS,
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
    series_lines,
    written_sum,
    _checked_make,
    _rhs2_scalar,
    _trusted_jet,
    _tuple_new,
)
from .errors import InvalidInitialData, OutOfSpan

logger = logging.getLogger(__name__)

_MAX_STEPS = 1_000_000
# the shortest step the rule may ask for; a span left below it counts as covered
_H_MIN = 1e-12

# |w| (|f^2| for sqrt-piv0) above which each node's series is searched for
# the pole, which is then about 1/|w| away; a run that stores no |w| above it,
# such as a verify draw capped at 3, never searches.  3 runs the README sweep
# fastest: a lower threshold adds more searches than it saves steps
_SERIES_POLE_FROM = 3.0
# Newton iterations before a root search gives up.  The search starts at
# v_0/v_1, close to the root, and no run of the README sweep, the verify
# suites or tier-1 takes more than 5; 8 leaves three more squarings of the
# error.  A search given up is repeated from the next node
_NEWTON_STEPS = 8
# how far off a complex path (|Im| of r/d) a series root may lie and still end
# the run there: passing a pole at distance delta takes |w| on the path to
# about 1/delta, so a root within 1e-4 is a pole the path runs into, while a
# root farther off is a pole the path passes, and the steps integrate past it
_OFF_PATH = 1e-4

# a node's arc parameter, the key `dense_eval_param` bisects the nodes on
_ARC = attrgetter("s")

# the orders k = p-3 .. p whose terms the step rule, err_est and `_tail` read
_TAIL = range(ORDER - 3, ORDER + 1)


def _nested(size: int) -> list[str]:
    """Kernel lines that set w, w1 and w2 to p(t), p'(t) and p''(t)/2 of p = sum a_k t^k by nested multiplication.

    The series has size coefficients a_0 .. a_n.  For k = n-1 .. 0:
    w2 = w2 t + w1, w1 = w1 t + w, w = w t + a_k, from w = a_n.  w1 and w2
    start as the value they would add to zero: at k = n-1 and n-2 the
    products of a zero are not written.  A series that
    ends below the order p (xvii and xxxii's quadratic) starts from
    +0.0 t + a_n, the state that reading p - n zero coefficients above it
    would reach: where a_n is -0.0 and t is not negative, that is +0.0.
    """
    n = size - 1
    top = f"a{n}" if n == ORDER else f"0.0 * t + a{n}"
    lines = [f"w1 = {top}", f"w = w1 * t + a{n - 1}", "w2 = w1", "w1 = w1 * t + w", f"w = w * t + a{n - 2}"]
    for k in range(n - 3, -1, -1):
        lines += ["w2 = w2 * t + w1", "w1 = w1 * t + w", f"w = w * t + a{k}"]
    return lines


# what a step kernel takes: alpha and the jet (z, w, w', w'') its series expands about, then the step's state and rule
_STEP_ARGS = "alpha, z, w, w1, w2, s, total, d, h_min, abs_tol, rel_tol"


class Tolerances(NamedTuple("Tolerances", [("rel", float), ("abs", float)])):
    """The step rule's relative and absolute tolerances; the shortest step is the constant `_H_MIN`."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, rel: float = 1e-10, abs: float = 1e-10):
        # comparisons chained this way are false for NaN as well as for inf
        if not (1e-14 <= rel <= 1.0):
            raise ValueError(f"rel: must be finite and in [1e-14, 1], got {rel}")
        if not (1e-14 <= abs <= 1.0):
            raise ValueError(f"abs: must be finite and in [1e-14, 1], got {abs}")
        return _tuple_new(cls, (rel, abs))


_INITIAL_FIELDS = [("z0", Scalar), ("w0", Scalar | None), ("w1", Scalar | None), ("w2", Scalar | None),
                   ("branch", int | None), ("field", ScalarField), ("direction", Scalar)]


class InitialData(NamedTuple("InitialData", _INITIAL_FIELDS)):
    """Initial data of one of three kinds, told apart by which entries are given.

    zero(branch, w2):      a branch means a w = 0 seed for piv/piv0; the slope
        is forced to branch * beta, the only value compatible with the
        equation, and w'' is free.  C = 0 automatically.  It takes no w0 or w1.
    raw(w0, w1, w2):       otherwise a w2 means an unconstrained jet, for
        general third-order experiments including C != 0 ones.
    nonzero(w0 != 0, w1):  otherwise a regular point; w'' is completed from
        the second-order equation, which guarantees C = 0.

    An entry not given is zero, one given is finite.  Each message leads with the field it names.
    A REAL path runs along the sign of the span, so its direction is 1.0.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, z0, w0=None, w1=None, w2=None, branch=None, field=ScalarField.REAL, direction=1.0):
        self = _tuple_new(cls, (z0, w0, w1, w2, branch, field, direction))
        if branch is not None:
            if branch not in (+1, -1):
                raise InvalidInitialData(f"branch: must be +1 or -1, got {branch!r}")
            if w0 is not None or w1 is not None:
                raise InvalidInitialData("branch: a zero seed takes no w0 or w1 (its slope is forced to ±beta)")
        elif w2 is None and not w0:
            raise InvalidInitialData(f"w0: a regular point needs w0 != 0, got {w0!r} "
                                     "(w2 makes a raw jet, branch a zero seed)")
        # one chain for the common, finite case; the search names the first entry that is not
        if not (isfinite(z0) and isfinite(w0 or 0.0) and isfinite(w1 or 0.0) and isfinite(w2 or 0.0)):
            name, value = next((n, x) for n, x in zip(("z0", "w0", "w1", "w2"), self) if not isfinite(x or 0.0))
            raise InvalidInitialData(f"{name}: must be finite, got {value!r}")
        if field is ScalarField.REAL:
            for name in ("z0", "w0", "w1", "w2", "direction"):
                if isinstance(getattr(self, name), complex):
                    raise InvalidInitialData(f"{name}: REAL mode rejects complex values")
            if not direction == 1.0:  # NaN too
                raise InvalidInitialData(f"direction: REAL mode runs along the sign of the span, got {direction!r}")
        elif not abs(abs(complex(direction)) - 1.0) <= 1e-12:
            modulus = abs(complex(direction))
            raise InvalidInitialData(f"direction: COMPLEX mode needs a unit direction, |d| = {modulus!r}")
        return self

    @classmethod
    def nonzero(cls, z0, w0, w1, field=ScalarField.REAL, direction=1.0) -> "InitialData":
        return cls(z0, w0, w1, field=field, direction=direction)

    @classmethod
    def zero(cls, z0, branch, w2, field=ScalarField.REAL, direction=1.0) -> "InitialData":
        return cls(z0, w2=w2, branch=branch, field=field, direction=direction)

    @classmethod
    def raw(cls, z0, w0, w1, w2, field=ScalarField.REAL, direction=1.0) -> "InitialData":
        return cls(z0, w0, w1, w2, field=field, direction=direction)


class TrajectoryStatus(Enum):
    COMPLETED = "completed"
    POLE = "pole"
    W_BOUND = "w_bound"
    STEP_UNDERFLOW = "step_underflow"
    STEP_BUDGET = "step_budget"


class TrajectoryNode(NamedTuple):
    """One integration node with the step that reached it and its one monitor.

    res2 is the kind's cleared residual (`equations.residual2`), a first
    integral of the third-order flow; on piv and piv0 it is the constraint C.
    h, err_est and series describe the step from the previous node:
    series holds its Taylor coefficients a_0 .. a_p in powers of z - z_prev
    (`equations.series_lines`), so w between the two nodes is that polynomial,
    and err_est is its largest tail term |a_k| h^k, k = p-3 .. p, in units of
    abs + rel |w_prev|.  On xvii and xxxii series is the exact quadratic
    (a_0, a_1, a_2), which has no tail, and err_est is 0.0.  Node 0 has
    h = err_est = 0 and no series.

    A named tuple, as is every record of the package: immutable, hashable,
    and cheap enough for `integrate` to build one per step.
    """

    jet: Jet3
    h: float
    err_est: float
    res2: Scalar
    s: float
    series: tuple = ()

    @property
    def c(self) -> Scalar:
        """`res2` under the name perfbench reads; it goes once perfbench reads `res2`."""
        return self.res2


class Trajectory(NamedTuple):
    """Ordered nodes of one integration, plus terminal status."""

    kind: EquationKind
    params: Params
    field: ScalarField
    direction: Scalar
    tol: Tolerances
    nodes: tuple[TrajectoryNode, ...]
    status: TrajectoryStatus
    pole_estimate: Scalar | None = None
    # how far the neglected tail of u's series can move pole_estimate (`_series_pole`)
    pole_bound: float | None = None

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


def check_zero_seed(kind: EquationKind, init: InitialData) -> None:
    """Refuse a zero seed (a branch) on a kind other than piv and piv0, whatever its parameters."""
    if init.branch is not None and not KINDS[kind].res2_is_c:
        raise InvalidInitialData(f"branch: a zero seed is only valid for piv/piv0, not {kind.value}")


def complete_initial_data(kind: EquationKind, p: Params, init: InitialData) -> Jet3:
    """Fill in the jet entries the equation determines; pass a raw jet through.

    For a squared kind (sqrt-piv0) the second derivative is never free data:
    it is always recomputed from the equation, also for a raw jet.  A
    completed w'' that is not finite is rejected as InvalidInitialData
    naming the entry or parameter that overflowed (`_overflowed`).  w0 and
    w1 enter as +0.0 where they are not given or are a zero of either sign.
    """
    ensure_kind_params(kind, p)
    # the jet skips Jet3's finiteness check: `InitialData` refused every entry
    # that is not finite, beta is a finite parameter, and a completed w'' is checked below
    row = KINDS[kind]
    conv = complex if init.field is ScalarField.COMPLEX else float
    z0 = conv(init.z0)
    w2 = conv(0.0 if init.w2 is None else init.w2)

    if init.branch is not None:
        check_zero_seed(kind, init)
        return _trusted_jet(z0, conv(0.0), conv(init.branch * p.beta), w2)

    w0 = conv(init.w0 or 0.0)
    w1 = conv(init.w1 or 0.0)
    if init.w2 is not None and not row.squared:
        return _trusted_jet(z0, w0, w1, w2)
    try:
        w2 = _rhs2_scalar(kind, p, z0, w0, w1)
    except OverflowError:  # only a power of w raises: w ** 4 in res2
        raise InvalidInitialData("w0: initial data overflows floating point") from None
    if not isfinite(w2):
        name = _overflowed(kind, p, z0, w0, w1)
        raise InvalidInitialData(f"{name}: w'' completed from the equation is not finite ({w2!r})")
    return _trusted_jet(z0, w0, w1, w2)


def _overflowed(kind: EquationKind, p: Params, z0: Scalar, w0: Scalar, w1: Scalar) -> str:
    """The entry or parameter to blame for a completed w'' that is not finite.

    The first nonzero one of z0, w0, w1, alpha and beta that, set to 1.0
    with the others as given, completes a finite w''; where none does
    alone, the nonzero one farthest from 1 in magnitude.
    """
    entries = dict(zip(("z0", "w0", "w1", "alpha", "beta"), (z0, w0, w1, *p)))
    given = {name: x for name, x in entries.items() if x}
    # only a power of w raises, and each trial keeps the w0 whose completion did not raise, or sets it to 1.0
    for name in given:
        e = {**entries, name: 1.0}
        if isfinite(_rhs2_scalar(kind, Params(e["alpha"], e["beta"]), e["z0"], e["w0"], e["w1"])):
            return name
    # log |x|, which the modulus of a complex x past the largest double does not overflow
    return max(given, key=lambda name: abs(cmath.log(given[name]).real))


def _names(x: str, size: int) -> str:
    """'x0, x1, ..., xn, ' with n = size - 1: the names a kernel unpacks or returns."""
    return "".join(f"{x}{k}, " for k in range(size))


@cache
def skip_bound_kernel(size: int):
    """|a_0| - (|a_1| h + ... + |a_n| h^n) from (coeffs, t = h), coeffs of length size, the sum by nested multiplication.

    Compiled once per length; a step's series is read by the kernel of its own length.
    """
    nested = (f"m = m * t + abs(a{k})" for k in range(size - 2, 0, -1))
    lines = [f"{_names('a', size)}= coeffs", f"m = abs(a{size - 1})", *nested, "return abs(a0) - m * t"]
    return compile_kernel(f"skip_bound{size}", "coeffs, t", lines)


@cache
def _jet_kernel(size: int):
    """(coeffs, t) -> (w, w', w'') at z_prev + t of the series w = sum a_k (z - z_prev)^k, coeffs of length size.

    Written out by nested multiplication (`_nested`); w'' is twice p''/2.
    Compiled once per length and process: a step's series is read by the
    kernel of its own length, 3 for xvii and xxxii, p + 1 otherwise.
    """
    lines = [f"{_names('a', size)}= coeffs", *_nested(size), "return w, w1, 2.0 * w2"]
    return compile_kernel(f"jet{size}", "coeffs, t", lines)


def _step_lines(name: str | None) -> list[str]:
    """The lines of `_step_kernel(name)`: the series, then the step rule, the polynomial at the step's end and err_est."""
    size = 3 if name is None else ORDER + 1
    head = [*series_lines(name), f"coeffs = ({_names('a', size)})"]
    end = [
        "t = h * d",
        *_nested(size),
        "w2 = 2.0 * w2",
        "if not (isfinite(w) and isfinite(w1) and isfinite(w2)): return coeffs, None",
    ]
    if name is None:  # the quadratic has no tail orders: it crosses the span left in one step, whose err_est is 0.0
        return [*head, "h = total - s", *end, "return coeffs, (total, h, 0.0, w, w1, w2)"]
    rule = [
        "bound = abs_tol + rel_tol * abs(a0)",
        *(f"m{k} = abs(a{k})" for k in _TAIL),
        f"if not ({' and '.join(f'm{k} < inf' for k in _TAIL)}): return coeffs, None",
        "h = inf",
        # min(h, x) as a comparison, without a call: x replaces h only where x < h, NaN never
        *(line for k in _TAIL for line in (f"if m{k}:", f"    x = (bound / m{k}) ** {1.0 / k!r}", "    if x < h: h = x")),
        "h = 0.5 * h",
        "left = total - s",
        "hit_end = h >= left",
        "if hit_end: h = left",
        "elif h < h_min: return coeffs, None",
    ]
    result = [
        # a zero tail coefficient's term is 0.0 without its power, which may overflow
        f"err = max({', '.join(f'm{k} and m{k} * h ** {float(k)!r}' for k in _TAIL)}) / bound",
        "return coeffs, ((total if hit_end else s + h), h, err, w, w1, w2)",
    ]
    return [
        *head,
        "try:",
        *(f"    {line}" for line in (*rule, *end, *result)),
        # |a_k| of a complex coefficient, or h^k, past the largest double: refused like a coefficient that is not finite
        "except OverflowError:",
        "    return coeffs, None",
    ]


@cache
def _step_kernel(name: str | None):
    """One step of `integrate` for the series template `name` (`KindRow.series`), written out and compiled once per process.

    (alpha, z, w, w', w'', s, total, d, h_min, abs, rel) -> (coeffs, step).
    coeffs is the tuple a_0 .. a_p of the series of w about the jet
    (`equations.series_lines`), and for xvii and xxxii, whose series ends at
    the quadratic, the tuple (a_0, a_1, a_2).  step is (s_new, h, err_est,
    w, w', w'') at z + h d, or None where the step is refused: a tail
    coefficient or the new state is not finite, or the Jorba-Zou step
    0.5 min_k (bound / |a_k|)^(1/k), k = p-3 .. p, is below h_min short of
    the span's end.  The quadratic has no tail orders: its step is the span
    left, with err_est 0.0, and it is refused only where its end state is
    not finite.  Its end point is the lines of
    `_jet_kernel` of coeffs' length (`_nested`), so its w, w' and w'' are
    that kernel's bits on coeffs at h d.  piv and piv0 share one
    kernel, and so do xvii and xxxii; each is compiled under its template's
    name (step_piv, step_xxix, step_sqrt_piv0, step_quadratic), so that a
    profiler keeps them apart.
    """
    return compile_kernel(f"step_{name or 'quadratic'}", _STEP_ARGS, _step_lines(name), inf=math.inf, isfinite=isfinite)


@cache
def _reciprocal():
    """The kernel v -> u = 1/v (v_0 != 0): u_k = -u_0 (0 + v_1 u_(k-1) + ... + v_k u_0), written out; built once."""
    rows = (f"u{k} = -u0 * {written_sum(f'v{i} * u{k - i}' for i in range(1, k + 1))}" for k in range(1, ORDER + 1))
    size = ORDER + 1
    lines = [f"{_names('v', size)}= v", "u0 = 1.0 / v0", *rows, f"return [{_names('u', size)}]"]
    return compile_kernel("reciprocal", "v", lines)


@cache
def _cauchy_square():
    """The kernel f_0 .. f_p -> the first p + 1 coefficients of f^2, each Cauchy sum written out; compiled once."""
    squares = (written_sum(f"f{i} * f{k - i}" for i in range(k + 1)) for k in range(ORDER + 1))
    return compile_kernel("cauchy_square", "f", [f"{_names('f', ORDER + 1)}= f", f"return [{', '.join(squares)}]"])


def _tail(u, x: float) -> float:
    """max over k = p-3 .. p of |u_k| x^k: the terms of u's series that a step of length x neglects.

    inf where a coefficient is not finite or the power of a nonzero one
    overflows; a zero coefficient adds 0.0 at any x, its power not taken.
    """
    try:
        terms = [abs(u[k]) * x ** k if u[k] else 0.0 for k in _TAIL]
    except OverflowError:
        return math.inf
    # max() would pass over a NaN term
    return max(terms) if all(m < math.inf for m in terms) else math.inf


def _newton_root(u) -> Scalar | None:
    """The root of sum u_k t^k that Newton's method reaches from t = 0, u and u' at t read by `_jet_kernel`.

    None where a slope vanishes or the iteration does not settle.
    """
    jet = _jet_kernel(len(u))
    t = 0.0
    for _ in range(_NEWTON_STEPS):
        value, slope, _ = jet(u, t)
        if slope == 0:
            return None
        dt = value / slope
        t -= dt
        # quadratic convergence: the next step would be below rounding
        if abs(dt) <= 1e-13 * abs(t):
            return t
    return None


def _series_pole(
    pole, squared: bool, coeffs, z: Scalar, d: Scalar, left: float, tol: Tolerances
) -> tuple[Scalar, float] | None:
    """Offset r from the node at z to the pole at z + r, read off the node's series, and its bound; or None.

    u = 1/v with v = pole(coeffs, z) in powers of z' - z (`KindRow.pole`), on
    the series of f^2 for a squared kind.  Newton's root r of u is accepted
    when it lies ahead on the path, r/d in (0, left + abs + rel |z + r|] and
    on a complex path within `_OFF_PATH` of it, and when u's neglected tail
    can move it by no more than the run's tolerances: the bound max over
    k = p-3 .. p of |u_k| |r|^k (`_tail`), divided by |u'(r)|, is at most
    abs + rel |z + r|.  That same tolerance past the span left takes a pole
    at the span's end, which the root's own error can put just beyond it.
    Near a pole Newton's first iterate v_0/v_1 is already close to r, so
    Newton is not run where that iterate lies behind the node or past the
    span left by more than the tolerance, or where u's tail at its distance
    exceeds abs + rel |u_0|, which is where it lies beyond twice u's
    Jorba-Zou step.
    """
    v = pole(_cauchy_square()(coeffs) if squared else coeffs, z)
    if v[1] == 0:
        return None
    first = v[0] / v[1]
    if not 0.0 < (first / d).real <= left + tol.abs + tol.rel * abs(z + first):
        return None
    u = _reciprocal()(v)
    if not _tail(u, abs(first)) <= tol.abs + tol.rel * abs(u[0]):
        return None
    r = _newton_root(u)
    if r is None:
        return None
    t = r / d
    if not (0.0 < t.real <= left + tol.abs + tol.rel * abs(z + r) and abs(t.imag) <= _OFF_PATH):
        return None
    slope = abs(_jet_kernel(len(u))(u, r)[1])
    bound = _tail(u, abs(r)) / slope if slope else math.inf
    return (r, bound) if bound <= tol.abs + tol.rel * abs(z + r) else None


def check_span(span: float) -> None:
    """Refuse a span that `integrate` refuses on every path: zero, not finite, or not real."""
    if not (span != 0 and isfinite(span) and not isinstance(span, complex)):
        raise ValueError(f"span: must be a nonzero finite real, got {span!r}")


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
    s in [0, span] with span > 0.  Every node records one monitor, the
    division-free residual `res2` of the selected second-order equation (the
    constraint C on piv and piv0), and the coefficients of the step that
    reached it.

    The returned `Trajectory.stats` counts the stored steps and the range
    of their h; they are read off the nodes, so they are as deterministic.
    The end-of-run INFO line that carries them is built only when INFO is
    enabled.

    Termination:
      COMPLETED       the requested span was covered,
      POLE(z_est)     at a node with |w| > 3 (|f^2| for sqrt-piv0) the
                      series of u = 1/v (`KindRow.pole`) has a root ahead
                      on the path within the span left,
                      which u's neglected tail moves by at most the run's
                      tolerances (`_series_pole`); z_est is that root,
                      `Trajectory.pole_bound` that tail's bound, and that
                      node is the last one stored; xvii and xxxii, whose
                      quadratics have no pole, never end here,
      W_BOUND         a step took |w| above w_bound (|f| for sqrt-piv0, as
                      `Trajectory.max_abs_w` measures); that step is
                      neither stored nor counted, so every stored |w| is
                      at most w_bound, and a caller that checks only
                      nodes with |w| <= w_bound checks every stored one,
      STEP_UNDERFLOW  the step rule asked for h below _H_MIN, or a
                      coefficient, the new state or its |w| was not
                      finite (that state is not stored); a run that
                      nears a pole whose series root it never trusts
                      ends here,
      STEP_BUDGET     _MAX_STEPS steps did not cover the span.
    """
    ensure_kind_params(kind, p)
    check_span(span)
    if not (w_bound > 0):
        raise ValueError(f"w_bound: must be positive, got {w_bound!r}")
    row = KINDS[kind]
    squared = row.squared  # read through w = f^2, which needs a real f
    if squared and init.field is ScalarField.COMPLEX:
        raise InvalidInitialData(f"field: {kind.value} is restricted to REAL mode")
    if init.field is ScalarField.COMPLEX:
        if span < 0:
            raise ValueError("span: COMPLEX paths use span > 0 with a direction vector")
        d: Scalar = complex(init.direction)
    else:
        d = 1.0 if span > 0 else -1.0

    # one monitor per node, looked up here as a module global so that a tracer
    # can wrap it: residual2 of piv and piv0 is constraint_c
    monitor = partial(constraint_c, p) if row.res2_is_c else partial(residual2, kind, p)
    # mag is |f^2| for a squared kind, so its bound on |f| is squared
    stop = w_bound * w_bound if squared else w_bound
    pole_v = row.pole  # None on the quadratic kinds, which have no poles: no |w| starts a search
    pole_from = math.inf if pole_v is None else _SERIES_POLE_FROM

    try:
        j0 = complete_initial_data(kind, p, init)
        nodes = [TrajectoryNode(j0, 0.0, 0.0, monitor(j0), 0.0)]
        mag = abs(j0.w * j0.w if squared else j0.w)
    except OverflowError:
        # only a power of w raises (w ** 4 in a residual), or |w| of a complex w past the
        # largest double; any other overflow is an inf
        raise InvalidInitialData("w0: initial data overflows floating point") from None
    total = abs(span)
    z0 = j0.z
    h_min, abs_tol, rel_tol, alpha = _H_MIN, tol.abs, tol.rel, p.alpha
    step = _step_kernel(row.series)
    z, w, w1, w2 = z0, j0.w, j0.w1, j0.w2
    status = TrajectoryStatus.COMPLETED
    pole_estimate: Scalar | None = None
    pole_bound: float | None = None
    s = 0.0
    n_steps = 0

    while total - s > h_min:
        n_steps += 1
        if n_steps > _MAX_STEPS:
            status = TrajectoryStatus.STEP_BUDGET
            break
        coeffs, taken = step(alpha, z, w, w1, w2, s, total, d, h_min, abs_tol, rel_tol)
        # the pole search reads the node's series before its step is used
        if mag > pole_from:
            pole = _series_pole(pole_v, squared, coeffs, z, d, total - s, tol)
            if pole is not None:
                status = TrajectoryStatus.POLE
                r, pole_bound = pole
                pole_estimate = z + r
                break
        if taken is None:
            status = TrajectoryStatus.STEP_UNDERFLOW
            break
        s_new, h, err_est, w, w1, w2 = taken
        try:
            mag = abs(w * w if squared else w)
        except OverflowError:  # a complex w of finite parts whose modulus passes the largest double
            status = TrajectoryStatus.STEP_UNDERFLOW
            break
        if mag > stop:
            status = TrajectoryStatus.W_BOUND
            break

        # the kernel refused a non-finite state, so the jet skips Jet3's check;
        # the node is built as the jet is, as a tuple, without its named tuple's __new__
        z = z0 + s_new * d
        jet = _trusted_jet(z, w, w1, w2)
        nodes.append(_tuple_new(TrajectoryNode, (jet, h, err_est, monitor(jet), s_new, coeffs)))
        s = s_new

    traj = Trajectory(kind, p, init.field, d, tol, tuple(nodes), status, pole_estimate, pole_bound)
    if not logger.isEnabledFor(logging.INFO):
        return traj
    logger.info(
        "integrate %s: %d nodes, status %s, span %.6g of %.6g; %s%s",
        kind.value,
        len(nodes),
        status.value,
        nodes[-1].s,
        total,
        traj.stats,
        "" if pole_estimate is None else
        f"; pole by series root at distance {abs(pole_estimate - nodes[-1].jet.z):.3g} from node {len(nodes) - 1}"
        f", within {pole_bound:.3g}",
    )
    return traj


def dense_eval_param(traj: Trajectory, s: float) -> Jet3:
    """Jet at arc parameter s in [0, covered span], on the polynomial of the step that covers s.

    s may lie up to 1e-12 max(1, span) outside and is clamped; any other s,
    NaN included, raises OutOfSpan.  The jet skips Jet3's finiteness check:
    the step that stored the covering node found its polynomial's tail and
    end point finite.
    """
    nodes = traj.nodes
    s_end = nodes[-1].s
    # false for NaN as well as outside the span; the pad is needed only then
    if not 0.0 <= s <= s_end:
        pad = 1e-12 * max(1.0, s_end)
        if not (-pad <= s <= s_end + pad):
            raise OutOfSpan(f"s = {s!r} outside covered span [0, {s_end!r}]")
        s = min(max(s, 0.0), s_end)
    # nodes[i - 1] is the last node at or before s, the last one excluded; the step to nodes[i] covers s
    i = bisect_right(nodes, s, 1, len(nodes) - 1, key=_ARC)
    left = nodes[i - 1]
    if left.s == s:
        return left.jet
    right = nodes[i]
    if right.s == s:
        return right.jet
    t = (s - left.s) * traj.direction
    series = right.series
    return _trusted_jet(left.jet.z + t, *_jet_kernel(len(series))(series, t))


def dense_eval(traj: Trajectory, z) -> Jet3:
    """Interpolated jet at z (REAL mode) or at arc parameter z (COMPLEX mode).

    On the real line z itself parametrises the path, so z is accepted
    directly; a straight complex path is indexed by the real arc parameter
    because a generic complex z does not lie on it.
    """
    if traj.field is ScalarField.COMPLEX:
        return dense_eval_param(traj, float(z))
    s = (float(z) - traj.nodes[0].jet.z) * traj.direction
    try:
        return dense_eval_param(traj, s)
    except OutOfSpan:
        z_lo = min(traj.z0, traj.nodes[-1].jet.z)
        z_hi = max(traj.z0, traj.nodes[-1].jet.z)
        raise OutOfSpan(f"z = {z!r} outside covered span [{z_lo!r}, {z_hi!r}]") from None

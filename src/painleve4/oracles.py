"""Closed-form solutions and first integrals used as independent ground truth.

Clearing the denominator of xvii or xxxii and differentiating gives
2 w w''' = 0, so away from zeros every solution is (at most) a quadratic
w = a z^2 + b z + c; pushing the quadratic back through the second-order
equation pins the discriminant: b^2 - 4ac = 1 for xxxii and 0 for xvii
(a perfect square).  For xxix the same route gives w'' = 2 w^3 + k and the
first integral w'^2 = w^4 + K w + L with K = 2k and L forced to zero on
solutions of the equation itself.  The exact pole family w = 1/(c - z)
solves xxix with k = K = L = 0.

For piv0 (alpha = beta = 0), a real solution with an isolated zero at a
has a sign-switching square root

    f(t) = -sqrt(w(t)) for t <= a,   +sqrt(w(t)) for t >= a,

which satisfies 4 f'' = f (3 f^2 + 2 t)(f^2 + 2 t); unlike the original
equation this one obeys the standard second-order existence-uniqueness
theorem.  `sqrt_lift` and `square_push` move trajectories between the two
pictures.
"""

import math
from typing import NamedTuple

from .equations import (
    KINDS,
    EquationKind,
    Jet3,
    Params,
    Scalar,
    ScalarField,
    _rhs2_scalar,
)
from .errors import (
    DiscriminantViolation,
    MultipleZeros,
    NegativeW,
    OutOfSpan,
    SingularInput,
    WrongKind,
)
from .integrator import Trajectory, dense_eval
from .zeros import ZeroEvent, locate_zeros

_DISC_FIT_TOL = 1e-10

_ZERO_PARAMS = Params(0.0, 0.0)


class QuadraticSolution(NamedTuple):
    """Quadratic w = a z^2 + b z + c solving xvii (disc 0) or xxxii (disc 1)."""

    a: Scalar
    b: Scalar
    c: Scalar
    kind: EquationKind

    @property
    def discriminant(self) -> Scalar:
        return self.b * self.b - 4.0 * self.a * self.c

    @property
    def target_discriminant(self) -> float:
        return KINDS[self.kind].zero_slope2(_ZERO_PARAMS)


def fit_quadratic(kind: EquationKind, j: Jet3) -> QuadraticSolution:
    """Fit the unique quadratic through a regular (w != 0) jet of xvii or xxxii.

    The curvature is read from the equation itself (a = w''/2; SingularInput
    at w = 0), so the discriminant constraint holds automatically; a
    violation beyond 1e-10 signals an inconsistent input jet and raises
    DiscriminantViolation.
    """
    if KINDS[kind].series is not None:
        raise WrongKind(f"quadratic reduction applies to xvii/xxxii, not {kind.value}")
    z0 = j.z
    a = _rhs2_scalar(kind, _ZERO_PARAMS, z0, j.w, j.w1) / 2.0
    b = j.w1 - 2.0 * a * z0
    c = j.w - a * z0 * z0 - b * z0
    q = QuadraticSolution(a, b, c, kind)
    if abs(q.discriminant - q.target_discriminant) > _DISC_FIT_TOL:
        raise DiscriminantViolation(
            f"{kind.value}: discriminant {q.discriminant!r} != {q.target_discriminant}"
        )
    return q


def eval_quadratic(q: QuadraticSolution, z: Scalar) -> Jet3:
    """Exact jet of the quadratic at z."""
    a, b, c, _ = q
    return Jet3(z, (a * z + b) * z + c, 2.0 * a * z + b, 2.0 * a)


class XXIXIntegrals(NamedTuple):
    """Integration constants (k, K, L) of the xxix reduction at a single jet.

    K = 2k on any jet by the derivation chain, and L = 0 exactly on jets
    satisfying the xxix equation itself.
    """

    k: Scalar
    K: Scalar
    L: Scalar


def xxix_integrals(j: Jet3) -> XXIXIntegrals:
    """Evaluate k = w'' - 2 w^3, K = 2k, L = w'^2 - w^4 - 2 k w at a jet.

    No division is involved, so the values exist for every jet including
    w = 0.
    """
    k = j.w2 - 2.0 * j.w ** 3
    return XXIXIntegrals(k, 2.0 * k, j.w1 * j.w1 - j.w ** 4 - 2.0 * k * j.w)


def xxix_pole_family(c: Scalar, z: Scalar) -> Jet3:
    """Jet of the exact xxix solution w = 1/(c - z); all three constants vanish."""
    if z == c:
        raise SingularInput(f"xxix pole family is singular at z = {c!r}")
    u = 1.0 / (c - z)
    return Jet3(z, u, u * u, 2.0 * u ** 3)


def xxxii_u_integral(j: Jet3) -> float:
    """First integral K of the substitution w = u^2 applied to xxxii.

    With u = +-sqrt(w) and u' = w'/(2u), K = u'^2 - 1/(4 u^2), which
    simplifies to (w'^2 - 1)/(4w) and does not depend on the sign choice.
    On the quadratic family K equals the leading coefficient a.  Requires
    real w > 0.
    """
    if isinstance(j.w, complex) or isinstance(j.w1, complex):
        raise SingularInput("u-substitution integral is defined in REAL mode")
    if not j.w > 0:
        raise SingularInput(f"u-substitution needs w > 0, got w = {j.w!r}")
    # (w'^2 - 1)/(4w) is the same number as u'^2 - 1/(4u^2) for either sign
    # of u, without routing the computation through the square root
    return (j.w1 * j.w1 - 1.0) / (4.0 * j.w)


class SqrtSample(NamedTuple):
    t: float
    f: float
    fdot: float


class SqrtLiftResult(NamedTuple):
    """Sign-switching square root of a piv0 trajectory over an interval."""

    samples: tuple[SqrtSample, ...]
    zero_t: float | None
    fdot_jump: float | None


def _lift_point(jet: Jet3, zero_t: float | None, abs_tol: float) -> SqrtSample:
    t = jet.z
    w = jet.w
    if w < -abs_tol:
        raise NegativeW(f"w = {w!r} < 0 at t = {t!r}")
    w = max(w, 0.0)
    if zero_t is None:
        f = math.sqrt(w)
    elif t < zero_t:
        f = -math.sqrt(w)
    else:
        f = math.sqrt(w)
    if f != 0.0:
        fdot = jet.w1 / (2.0 * f)
    else:
        # limit through the zero: w = f^2 gives w'' = 2 f'^2 at f = 0;
        # the positive branch makes f' continuous (f increases through 0)
        fdot = math.sqrt(max(jet.w2, 0.0) / 2.0)
    return SqrtSample(t, f, fdot)


def sqrt_lift(
    traj: Trajectory,
    event: ZeroEvent | None,
    interval: tuple[float, float],
) -> SqrtLiftResult:
    """Lift a real piv0 trajectory to its square root over an interval.

    ``event`` is the unique zero of w inside the interval, or None when w
    has no zero there (the lift is then the plain positive square root).
    The claim is checked against `locate_zeros` over the whole
    trajectory: its events in the interval must be none for None, and
    otherwise the stated one alone, to within 1e-6 max(1, hi - lo).  w
    must stay >= -abs_tol on the interval; tiny negative excursions are
    clamped to zero.  The samples are the interval's ends, the nodes
    between them and the zero, each once and in increasing t.  At the
    zero the slope is assigned its limit
    sqrt(w''(a)/2); the recorded ``fdot_jump`` measures the continuity of
    f' through the zero by a symmetric dense difference.

    Raises NegativeW for genuinely negative w, MultipleZeros when the
    interval contains more than the stated zero, ValueError when the
    search finds no zero at the stated event (and for an empty interval,
    one past the covered span or an event outside it), WrongKind off piv0.
    """
    if traj.field is not ScalarField.REAL:
        raise WrongKind("sqrt_lift requires REAL mode")
    if not KINDS[traj.kind].res2_is_c or traj.params != _ZERO_PARAMS:
        raise WrongKind("sqrt_lift requires the alpha = beta = 0 equation")
    lo, hi = interval
    if not lo < hi:
        raise ValueError(f"interval: need lo < hi, got {interval!r}")
    try:
        ends = [dense_eval(traj, lo), dense_eval(traj, hi)]
    except OutOfSpan:
        raise ValueError(f"interval: {interval!r} exceeds the covered span") from None

    zero_t = event.a if event is not None else None
    if zero_t is not None and not (lo <= zero_t <= hi):
        raise ValueError(f"event at {zero_t!r} lies outside the interval {interval!r}")

    inside = [e.a for e in locate_zeros(traj) if lo <= e.a <= hi]
    strays = [a for a in inside if zero_t is None or abs(a - zero_t) > 1e-6 * max(1.0, hi - lo)]
    if strays:
        raise MultipleZeros(f"additional zeros inside {interval!r}: {strays!r}")
    if zero_t is not None and not inside:
        raise ValueError(f"event at {zero_t!r} is no zero of w that the zero search finds")

    zero_jet = None if zero_t is None else dense_eval(traj, zero_t)
    # a point at a node reads that node's own jet, so equal jets are one sample
    jets = [*ends, *(n.jet for n in traj.nodes if lo < n.jet.z < hi), *([] if zero_jet is None else [zero_jet])]
    abs_tol = traj.tol.abs

    samples = []
    for jet in sorted(dict.fromkeys(jets), key=lambda jet: jet.z):
        if jet == zero_jet:
            # at the zero itself the dense w is pure interpolation noise;
            # use the exact limit f = 0, f' = sqrt(w''(a)/2), positive branch
            samples.append(SqrtSample(zero_t, 0.0, math.sqrt(max(jet.w2, 0.0) / 2.0)))
        else:
            samples.append(_lift_point(jet, zero_t, abs_tol))

    fdot_jump = None
    if zero_t is not None and lo < zero_t < hi:
        # symmetric difference; f'' vanishes at the zero, so the bias is O(eps^3)
        eps = 0.005 * min(zero_t - lo, hi - zero_t)
        left = _lift_point(dense_eval(traj, zero_t - eps), zero_t, abs_tol)
        right = _lift_point(dense_eval(traj, zero_t + eps), zero_t, abs_tol)
        fdot_jump = abs(right.fdot - left.fdot)

    return SqrtLiftResult(tuple(samples), zero_t, fdot_jump)


def square_push(t: float, f: float, fdot: float) -> Jet3:
    """Square a point of the square-root equation back into a piv0 jet.

    The second derivative of w = f^2 uses f'' from the square-root
    equation, so the resulting jet satisfies the cleared-denominator piv0
    residual identically.
    """
    f2 = _rhs2_scalar(EquationKind.SQRT_PIV0, _ZERO_PARAMS, t, f, fdot)
    return Jet3(t, f * f, 2.0 * f * fdot, 2.0 * fdot * fdot + 2.0 * f * f2)

"""Equation right-hand sides, residuals, the conserved constraint, and jet identities.

The toolkit integrates the fourth Painleve equation in the parameter
convention of Ince's canonical form XXXI,

    w'' = w'^2/(2w) + (3/2) w^3 + 4 z w^2 + 2 (z^2 - alpha) w - beta^2/(2w),

together with three more members of the Painleve-Gambier canonical list
that carry their derivatives in the same combination w'' - w'^2/(2w):

    xvii    w'' = w'^2/(2w)
    xxix    w'' = w'^2/(2w) + (3/2) w^3
    xxxii   w'' = (w'^2 - 1)/(2w)

and the square-root companion of the alpha = beta = 0 case,

    sqrt-piv0   4 f'' = f (3 f^2 + 2 t)(f^2 + 2 t).

Multiplying through by 2w and differentiating once removes the 1/w
denominator entirely; for piv the result is

    w''' = {6 w^2 + 12 z w + 4 (z^2 - alpha)} w' + 4 (w + z) w,

which is polynomial in every variable and therefore regular at zeros of w.
sqrt-piv0 has no denominator to clear; differentiating it once gives

    f''' = 2 f (f^2 + t) + (15 f^4 + 24 t f^2 + 4 t^2) f' / 4.

Every kind is advanced through its third-order form; the second-order
equation survives only as the cleared-denominator residual monitor
`residual2` and the conserved constraint `constraint_c`.

Because every third-order right-hand side is a polynomial, the Taylor
coefficients of a solution follow from its jet by Cauchy-product
recurrences, with no division by w and no right-hand side calls (Jorba and
Zou, Exp. Math. 14 (2005); Fornberg and Weideman, J. Comput. Phys. 230
(2011)).  `series_fn` binds the recurrence of one kind; `rhs3` evaluates
the right-hand side itself at one point.

Note on parameters: the ``beta**2`` convention above is Ince's XXXI form.
The standalone Painleve IV convention relabels beta^2 as -2*beta; no
conversion is offered anywhere in this package.
"""

from cmath import isfinite  # takes real and complex values alike
from dataclasses import dataclass
from enum import Enum
from operator import mul

from .errors import SingularInput

Scalar = float | complex


class EquationKind(Enum):
    """Selector for the supported equations."""

    PIV = "piv"
    PIV0 = "piv0"
    XVII = "xvii"
    XXIX = "xxix"
    XXXII = "xxxii"
    SQRT_PIV0 = "sqrt-piv0"


class ScalarField(Enum):
    """Arithmetic mode: real-line integration or a straight path in the complex plane."""

    REAL = "real"
    COMPLEX = "complex"


def _check_finite(name: str, x: Scalar) -> None:
    if not isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")


@dataclass(frozen=True)
class Params:
    """Scalar parameter pair (alpha, beta) of the piv family, beta^2 convention."""

    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        _check_finite("alpha", self.alpha)
        _check_finite("beta", self.beta)


@dataclass(frozen=True)
class Jet3:
    """Point value (z, w, w', w''): the full state of the third-order system.

    The third derivative is not stored: the series of each step
    (`series_fn`) carries it as 6 a_3.
    """

    z: Scalar
    w: Scalar
    w1: Scalar
    w2: Scalar

    def __post_init__(self):
        # one chain for the common, finite case; the loop names the first bad field
        if not (isfinite(self.z) and isfinite(self.w) and isfinite(self.w1) and isfinite(self.w2)):
            for name in ("z", "w", "w1", "w2"):
                _check_finite(name, getattr(self, name))


def ensure_kind_params(kind: EquationKind, p: Params) -> None:
    """Reject nonzero (alpha, beta) for every kind but piv.

    piv0 is piv at alpha = beta = 0; sqrt-piv0 is derived from piv0 and is
    equally parameter free.  xvii, xxix and xxxii carry no parameters, so
    a nonzero value would be ignored by the equation yet still read by the
    zero classification (its slope target +-beta).
    """
    if kind is not EquationKind.PIV:
        for name in ("alpha", "beta"):
            value = getattr(p, name)
            if value != 0.0:
                raise ValueError(f"{name}: {kind.value} requires alpha = beta = 0, got {name} = {value!r}")


#: order p of the Taylor series that `series_fn` builds: coefficients a_0 .. a_p
ORDER = 20


def _piv_series(alpha: float):
    def series(z: Scalar, w: Scalar, w1: Scalar, w2: Scalar) -> list:
        # w''' = P w' + 4 (w + z) w with P = 6 w^2 + 12 z w + 4 (z^2 - alpha)
        a = [w, w1, 0.5 * w2]
        dw = [w1, w2]  # (w')_k = (k + 1) a_{k+1}
        poly = (4.0 * (z * z - alpha), 8.0 * z, 4.0)  # 4 (z^2 - alpha) in powers of z - z0
        ps = []
        for k in range(ORDER - 2):
            # (w^2)_k: map stops at the shorter list, pairing a_i with a_{k-i}
            sq = sum(map(mul, a, a[k::-1]))
            zw = z * a[k] + a[k - 1] if k else z * w
            ps.append(6.0 * sq + 12.0 * zw + poly[k] if k < 3 else 6.0 * sq + 12.0 * zw)
            r = sum(map(mul, ps, dw[k::-1])) + 4.0 * (sq + zw)
            a.append(r / ((k + 1) * (k + 2) * (k + 3)))
            dw.append((k + 3) * a[-1])
        return a

    return series


def _xxix_series(z: Scalar, w: Scalar, w1: Scalar, w2: Scalar) -> list:
    # w''' = 6 w^2 w'
    a = [w, w1, 0.5 * w2]
    dw = [w1, w2]
    sqs = []
    for k in range(ORDER - 2):
        sqs.append(sum(map(mul, a, a[k::-1])))
        a.append(6.0 * sum(map(mul, sqs, dw[k::-1])) / ((k + 1) * (k + 2) * (k + 3)))
        dw.append((k + 3) * a[-1])
    return a


def _quadratic_series(z: Scalar, w: Scalar, w1: Scalar, w2: Scalar) -> list:
    # w''' = 0: the series ends at the quadratic term
    return [w, w1, 0.5 * w2] + [0.0] * (ORDER - 2)


def _sqrt_piv0_series(t: Scalar, f: Scalar, f1: Scalar, f2: Scalar) -> list:
    # f''' = 2 f (f^2 + t) + (15 f^4 + 24 t f^2 + 4 t^2) f' / 4, from f^2, f^4 = (f^2)^2 and t f^2
    a = [f, f1, 0.5 * f2]
    df = [f1, f2]
    poly = (4.0 * t * t, 8.0 * t, 4.0)  # 4 t^2 in powers of t - t0
    sqs, qs = [], []
    for k in range(ORDER - 2):
        sqs.append(sum(map(mul, a, a[k::-1])))
        tsq = t * sqs[k] + sqs[k - 1] if k else t * sqs[0]
        tf = t * a[k] + a[k - 1] if k else t * f
        qk = 15.0 * sum(map(mul, sqs, sqs[::-1])) + 24.0 * tsq
        qs.append(qk + poly[k] if k < 3 else qk)
        cube = sum(map(mul, a, sqs[::-1]))
        r = 2.0 * (cube + tf) + 0.25 * sum(map(mul, qs, df[k::-1]))
        a.append(r / ((k + 1) * (k + 2) * (k + 3)))
        df.append((k + 3) * a[-1])
    return a


def series_fn(kind: EquationKind, p: Params):
    """Taylor recurrence of the advanced system bound to one kind.

    The returned function maps a jet (z, w, w', w'') to the list a_0 .. a_p
    (p = `ORDER`) of Taylor coefficients of w in powers of z - z0, where z0
    is the jet's point; 6 a_3 is `rhs3` there.  Coefficient a_{k+3} comes
    from coefficient k of the right-hand side, whose products are Cauchy
    sums over the coefficients already known: O(p^2) operations in all and
    no division by w.  xvii and xxxii have w''' = 0, so their a_k vanish
    for k >= 3.  The parameters are validated here, once, so the bound
    function does no dispatch or checking per call.
    """
    ensure_kind_params(kind, p)
    if kind is EquationKind.SQRT_PIV0:
        return _sqrt_piv0_series
    if kind is EquationKind.XXIX:
        return _xxix_series
    if kind in (EquationKind.XVII, EquationKind.XXXII):
        return _quadratic_series
    return _piv_series(p.alpha)


def _rhs2_scalar(kind: EquationKind, p: Params, z: Scalar, w: Scalar, w1: Scalar) -> Scalar:
    if kind is EquationKind.SQRT_PIV0:
        ensure_kind_params(kind, p)
        return w * (3.0 * w * w + 2.0 * z) * (w * w + 2.0 * z) * 0.25
    if w == 0:
        raise SingularInput(f"{kind.value}: w = 0 is outside the second-order form's domain")
    if kind is EquationKind.XVII:
        return w1 * w1 / (2.0 * w)
    if kind is EquationKind.XXIX:
        return w1 * w1 / (2.0 * w) + 1.5 * w ** 3
    if kind is EquationKind.XXXII:
        return (w1 * w1 - 1.0) / (2.0 * w)
    ensure_kind_params(kind, p)
    return (
        w1 * w1 / (2.0 * w)
        + 1.5 * w ** 3
        + 4.0 * z * w * w
        + 2.0 * (z * z - p.alpha) * w
        - p.beta * p.beta / (2.0 * w)
    )


def rhs3(kind: EquationKind, p: Params, z: Scalar, w: Scalar, w1: Scalar) -> Scalar:
    """Third derivative of the regularised third-order form; defined for all w.

    piv / piv0:  {6 w^2 + 12 z w + 4 (z^2 - alpha)} w' + 4 (w + z) w
    xxix:        6 w^2 w'
    xvii, xxxii: 0  (2 w w''' = 0 after clearing and differentiating)
    sqrt-piv0:   2 f (f^2 + t) + (15 f^4 + 24 t f^2 + 4 t^2) f' / 4, read as (t, f, f')

    The second derivative does not appear on the right-hand side: it cancels
    when the cleared-denominator form is differentiated.
    """
    ensure_kind_params(kind, p)
    if kind is EquationKind.SQRT_PIV0:
        # products, not **: a float ** raises OverflowError where a product gives inf
        ff = w * w
        return 2.0 * w * (ff + z) + (15.0 * ff * ff + 24.0 * z * ff + 4.0 * z * z) * w1 * 0.25
    if kind is EquationKind.XXIX:
        return 6.0 * w * w * w1
    if kind in (EquationKind.XVII, EquationKind.XXXII):
        return 0.0 * w
    return (6.0 * w * w + 12.0 * z * w + 4.0 * (z * z - p.alpha)) * w1 + 4.0 * (w + z) * w


def _piv_poly(alpha: float, beta: float, z: Scalar, w: Scalar, w1: Scalar, w2: Scalar) -> Scalar:
    # shared by constraint_c and residual2(piv) so the two agree bit for bit
    return (
        2.0 * w * w2
        - w1 * w1
        - 3.0 * w ** 4
        - 8.0 * z * w ** 3
        - 4.0 * (z * z - alpha) * w * w
        + beta * beta
    )


def constraint_c(p: Params, j: Jet3) -> Scalar:
    """Conserved constraint C = 2 w w'' - w'^2 - 3 w^4 - 8 z w^3 - 4 (z^2 - alpha) w^2 + beta^2.

    C = 0 exactly characterises jets consistent with the second-order piv
    equation, including the w = 0 limit case where it reduces to
    w'^2 = beta^2.  Along any solution of the third-order form the total
    derivative of C vanishes identically, so C is a first integral of that
    flow whatever its initial value.
    """
    return _piv_poly(p.alpha, p.beta, j.z, j.w, j.w1, j.w2)


def residual2(kind: EquationKind, p: Params, j: Jet3) -> Scalar:
    """Division-free residual of the selected second-order equation at j.

    The equation is multiplied through by 2w (sign convention:
    2w * (LHS - RHS), expanded), so the residual is defined at w = 0 and
    vanishes exactly on solution jets.  For piv it is the same polynomial
    as `constraint_c`.  sqrt-piv0 has no denominator; its residual is
    4 f'' - f (3 f^2 + 2 t)(f^2 + 2 t) with the jet read as (t, f, f', f''),
    a first integral of the sqrt-piv0 third-order flow.
    """
    z, w, w1, w2 = j.z, j.w, j.w1, j.w2
    if kind in (EquationKind.PIV, EquationKind.PIV0):
        ensure_kind_params(kind, p)
        return _piv_poly(p.alpha, p.beta, z, w, w1, w2)
    if kind is EquationKind.XVII:
        return 2.0 * w * w2 - w1 * w1
    if kind is EquationKind.XXIX:
        return 2.0 * w * w2 - w1 * w1 - 3.0 * w ** 4
    if kind is EquationKind.XXXII:
        return 2.0 * w * w2 - w1 * w1 + 1.0
    return 4.0 * w2 - w * (3.0 * w * w + 2.0 * z) * (w * w + 2.0 * z)


def jet_identities(j: Jet3, w3: Scalar) -> tuple[Scalar, Scalar | None]:
    """Floating-point departure of two differential identities on the jet (j, w3).

    delta1 checks (2 w w'' - w'^2)' = 2 w w''' with the left side expanded
    termwise; delta2 checks the rival identity
    (w'^2 / w)' = (w'/w^2)(2 w w'' - w'^2).  Both are algebraic identities
    in the jet variables, so the returned values are pure rounding noise.

    delta2 requires w != 0; at w = 0 it is returned as None while delta1 is
    still computed.
    """
    w, w1, w2 = j.w, j.w1, j.w2
    expanded1 = 2.0 * w1 * w2 + 2.0 * w * w3 - 2.0 * w1 * w2
    delta1 = expanded1 - 2.0 * w * w3
    if w == 0:
        return delta1, None
    lhs2 = 2.0 * w1 * w2 / w - w1 ** 3 / (w * w)
    rhs2_ = (w1 / (w * w)) * (2.0 * w * w2 - w1 * w1)
    return delta1, lhs2 - rhs2_

"""Each kind's equation, stated once as its residual; the series that advance it; jet identities.

The toolkit integrates the fourth Painleve equation in the parameter
convention of Ince's canonical form XXXI, three more members of the
Painleve-Gambier canonical list that carry their derivatives in the same
combination w'' - w'^2/(2w), and the square-root companion of the
alpha = beta = 0 case.  Each kind's second-order equation is stated once,
multiplied through by its denominator, as the residual `KindRow.res2`:

    piv, piv0   C = 2 w w'' - w'^2 - 3 w^4 - 8 z w^3 - 4 (z^2 - alpha) w^2 + beta^2
    xvii        2 w w'' - w'^2
    xxix        2 w w'' - w'^2 - 3 w^4
    xxxii       2 w w'' - w'^2 + 1
    sqrt-piv0   4 f'' - f (3 f^2 + 2 t)(f^2 + 2 t)

Each is affine in w'', and solved for it gives the equation itself, for piv
w'' = w'^2/(2w) + (3/2) w^3 + 4 z w^2 + 2 (z^2 - alpha) w - beta^2/(2w).
Differentiating a residual once removes the 1/w denominator entirely; for
piv the result is

    w''' = {6 w^2 + 12 z w + 4 (z^2 - alpha)} w' + 4 (w + z) w,

which is polynomial in every variable and therefore regular at zeros of w;
for sqrt-piv0 it is f''' = 2 f (f^2 + t) + (15 f^4 + 24 t f^2 + 4 t^2) f' / 4.
Every kind is advanced through its third-order form, of which the residual
(`residual2`) is a first integral and the one monitor an integration node
stores.  On piv and piv0 it is the conserved constraint C (`constraint_c`).

Because every third-order right-hand side is a polynomial, the Taylor
coefficients of a solution follow from its jet by Cauchy-product
recurrences, with no division by w and no right-hand side calls (Jorba and
Zou, Exp. Math. 14 (2005); Fornberg and Weideman, J. Comput. Phys. 230
(2011)).  `series_lines` writes the recurrence of one kind out term by term,
as Jorba and Zou's `taylor` translator emits it, since a loop over the
orders spends most of its time on interpreter overhead; each sum is added
left to right from 0.0 (`written_sum`), the same bits on every interpreter.
A square's sum adds each pair of equal products once and doubles the result
(`_square_sum`), about half the operations of the full Cauchy sum.
The integrator compiles those lines and the step rule into one kernel per
recurrence (`integrator._step_kernel`); `rhs3` evaluates the right-hand side
itself at one point.

Note on parameters: the ``beta**2`` convention above is Ince's XXXI form.
The standalone Painleve IV convention relabels beta^2 as -2*beta; no
conversion is offered anywhere in this package.
"""

from cmath import isfinite  # takes real and complex values alike
from collections.abc import Callable
from enum import Enum
from functools import cache
from typing import NamedTuple

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
        raise ValueError(f"{name}: must be finite, got {x!r}")


def _checked_make(cls, iterable):
    """`_make`, and so `_replace`, of a record that validates: through its `__new__`."""
    return cls(*iterable)


_tuple_new = tuple.__new__


class Params(NamedTuple("Params", [("alpha", float), ("beta", float)])):
    """Scalar parameter pair (alpha, beta) of the piv family, beta^2 convention."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, alpha: float = 0.0, beta: float = 0.0):
        _check_finite("alpha", alpha)
        _check_finite("beta", beta)
        return _tuple_new(cls, (alpha, beta))


class Jet3(NamedTuple("Jet3", [("z", Scalar), ("w", Scalar), ("w1", Scalar), ("w2", Scalar)])):
    """Point value (z, w, w', w''): the full state of the third-order system.

    The third derivative is not stored: the series of each step
    (`series_lines`) carries it as 6 a_3.  `vars(jet)` reads the four
    fields by name, through a read-only `__dict__`; no instance holds one.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, z: Scalar, w: Scalar, w1: Scalar, w2: Scalar):
        # one chain for the common, finite case; the loop names the first bad field
        if not (isfinite(z) and isfinite(w) and isfinite(w1) and isfinite(w2)):
            for name, value in zip(cls._fields, (z, w, w1, w2)):
                _check_finite(name, value)
        return _tuple_new(cls, (z, w, w1, w2))

    @property
    def __dict__(self) -> dict:
        return self._asdict()


def _trusted_jet(z: Scalar, w: Scalar, w1: Scalar, w2: Scalar) -> Jet3:
    """`Jet3(z, w, w1, w2)` without `Jet3.__new__`'s finiteness check, for values the caller has already checked.

    The tuple is built as `Jet3.__new__` builds it, so the jet compares,
    hashes, reads through `vars()` and `_asdict`, and refuses assignment as
    one built by `Jet3`; only the check is skipped.
    """
    return _tuple_new(Jet3, (z, w, w1, w2))


def ensure_kind_params(kind: EquationKind, p: Params) -> None:
    """Reject nonzero (alpha, beta) on every kind whose row does not take them: all but piv.

    Such a value would be ignored by the equation yet still read by the
    zero classification (its slope target +-beta).
    """
    if not KINDS[kind].params:
        for name in ("alpha", "beta"):
            value = getattr(p, name)
            if value != 0.0:
                raise ValueError(f"{name}: {kind.value} requires alpha = beta = 0, got {name} = {value!r}")


#: order p of the Taylor series of each step (`series_lines`): coefficients a_0 .. a_p
ORDER = 20

def written_sum(terms) -> str:
    """The terms as one sum, added left to right from 0.0: the order of `sum()` before Python 3.12 compensated it.

    The start is the float 0.0, not the int 0, so that every addition is
    float + float, which CPython 3.11 and later specialise; the bits are the
    same, since both starts turn -0.0 into +0.0 and leave inf and NaN alone.
    """
    return "(0.0" + "".join(f" + {term}" for term in terms) + ")"


def compile_kernel(name: str, args: str, lines, **names):
    """The function `def name(args):` with the given body lines, compiled; `names` are its globals."""
    namespace: dict = names
    source = f"def {name}({args}):\n" + "".join(f"    {line}\n" for line in lines)
    exec(compile(source, f"<painleve4 kernel {name}>", "exec"), namespace)
    return namespace[name]


# Each kind's recurrence at order k.  a_k, d_k and s_k are the coefficients of
# w, w' and w^2 (f, f', f^2 for sqrt-piv0), P_k those of piv's
# P = 6 w^2 + 12 z w + 4 (z^2 - alpha), q_k those of sqrt-piv0's
# 15 f^4 + 24 t f^2 + 4 t^2, and c_k those of 4 (z^2 - alpha) or 4 t^2, all in
# powers of z - z0.  {xy} is the Cauchy sum x_0 y_k + ... + x_k y_0 (a square
# {xx} as `_square_sum`), {zx} the coefficient z x_k + x_{k-1} of z x, and {c}
# adds c_k while k < 3.  The lines set r, coefficient k of the right-hand side;
# piv reads its {za} twice, so it computes it once per order, as za.  r at
# order 0 is `rhs3`; only piv reads alpha.  The templates are written by hand:
# tests/test_exact_series.py proves each against its kind's res2, in rationals.
_SERIES_TEMPLATES = {
    "piv": (("c0 = 4.0 * (z * z - alpha)", "c1 = 8.0 * z"),
            ("s{k} = {aa}", "za = {za}", "P{k} = 6.0 * s{k} + 12.0 * za{c}", "r = {Pd} + 4.0 * (s{k} + za)")),
    "xxix": ((), ("s{k} = {aa}", "r = 6.0 * {sd}")),
    "sqrt_piv0": (("c0 = 4.0 * z * z", "c1 = 8.0 * z"),
                  ("s{k} = {aa}", "q{k} = 15.0 * {ss} + 24.0 * {zs}{c}", "r = 2.0 * ({as} + {za}) + 0.25 * {qd}")),
}


def _square_sum(x: str, k: int) -> str:
    """Coefficient k of the square of the series x: 2.0 * (0.0 + x_0 x_k + ... below the middle), plus x_(k/2)^2 for even k.

    The Cauchy sum x_0 x_k + ... + x_k x_0 holds each product below the
    middle twice; here each is added once, left to right from 0.0, and the
    sum doubled, which is exact.  That saves about half the operations, and
    the result differs from the full sum by rounding only.
    """
    half = f"2.0 * {written_sum(f'{x}{i} * {x}{k - i}' for i in range((k + 1) // 2))}"
    return f"({half} + {x}{k // 2} * {x}{k // 2})" if k % 2 == 0 else f"({half})"


def _order_lines(body, k: int) -> list[str]:
    """A template's lines at order k, each Cauchy sum written out."""
    fields = {x + y: written_sum(f"{x}{i} * {y}{k - i}" for i in range(k + 1)) for x, y in ("Pd", "sd", "as", "qd")}
    fields |= {x + x: _square_sum(x, k) for x in "as"}
    for x in "as":
        fields["z" + x] = f"(z * {x}{k} + {x}{k - 1})" if k else f"(z * {x}0)"
    fields["c"] = f" + {('c0', 'c1', '4.0')[k]}" if k < 3 else ""
    return [line.format(k=k, **fields) for line in body]


def series_lines(name: str | None) -> list[str]:
    """Kernel lines that set a_0 .. a_p, the Taylor coefficients of w about the jet (z, w, w1, w2).

    `name` is a kind's `KindRow.series`.  A template's recurrence is written
    out to a_p: coefficient a_(k+3) comes from coefficient k of the
    right-hand side, whose products are Cauchy sums over the coefficients
    already known, so the lines make O(p^2) operations, read alpha, z, w, w1
    and w2, and never divide by w.  d_k = (k + 1) a_(k+1), coefficient k of
    w', is set up to the d_(p-3) the recurrence reads.  None stands for xvii
    and xxxii, whose w''' = 0 ends the series at a_2: the lines set a_0,
    a_1 and a_2 only, the coefficients that series has.  Each step of
    `integrate` runs these lines (`integrator._step_kernel`).
    """
    if name is None:
        return ["a0, a1, a2 = w, w1, 0.5 * w2"]
    head, body = _SERIES_TEMPLATES[name]
    lines = ["a0, a1, a2, d0, d1 = w, w1, 0.5 * w2, w1, w2", *head]
    for k in range(ORDER - 2):
        lines += _order_lines(body, k)
        # a_{k+3} = r / ((k+1)(k+2)(k+3)) and d_{k+2} = (k+3) a_{k+3}, the factors as float literals
        lines.append(f"a{k + 3} = r / {float((k + 1) * (k + 2) * (k + 3))!r}")
        if k + 2 <= ORDER - 3:
            lines.append(f"d{k + 2} = {float(k + 3)!r} * a{k + 3}")
    return lines


@cache
def _rhs3_kernel(name: str):
    """(alpha, z, w, w') -> the right-hand side: the template's r at order 0, compiled once per process."""
    head, body = _SERIES_TEMPLATES[name]
    return compile_kernel(name + "_rhs3", "alpha, z, a0, d0", [*head, *_order_lines(body, 0), "return r"])


def rhs3(kind: EquationKind, p: Params, z: Scalar, w: Scalar, w1: Scalar) -> Scalar:
    """Third derivative of the regularised third-order form; defined for all w.

    piv / piv0:  {6 w^2 + 12 z w + 4 (z^2 - alpha)} w' + 4 (w + z) w
    xxix:        6 w^2 w'
    xvii, xxxii: 0  (2 w w''' = 0 after clearing and differentiating)
    sqrt-piv0:   2 f (f^2 + t) + (15 f^4 + 24 t f^2 + 4 t^2) f' / 4, read as (t, f, f')

    Each is r at order 0 of the kind's series template.  w'' is no argument:
    it cancels when the residual `res2` is differentiated.
    """
    ensure_kind_params(kind, p)
    name = KINDS[kind].series
    return 0.0 * w if name is None else _rhs3_kernel(name)(p.alpha, z, w, w1)


def constraint_c(p: Params, j: Jet3) -> Scalar:
    """Conserved constraint C = 2 w w'' - w'^2 - 3 w^4 - 8 z w^3 - 4 (z^2 - alpha) w^2 + beta^2.

    C = 0 exactly characterises jets consistent with the second-order piv
    equation, including the w = 0 limit case where it reduces to
    w'^2 = beta^2.  Along any solution of the third-order form the total
    derivative of C vanishes identically, so C is a first integral of that
    flow whatever its initial value.  It is `residual2` of piv and piv0.
    """
    # unpacked: a named tuple's field costs more to read by name than by position
    z, w, w1, w2 = j
    alpha, beta = p
    return (
        2.0 * w * w2
        - w1 * w1
        - 3.0 * w ** 4
        - 8.0 * z * w ** 3
        - 4.0 * (z * z - alpha) * w * w
        + beta * beta
    )


class KindRow(NamedTuple):
    """One kind's row of `KINDS`: every fact about it that other code reads, each stated once.

    `res2` alone states the equation: w'' (`_rhs2_scalar`), the zero slope and `res2_is_c` are read off it.
    """

    series: str | None  # its `_SERIES_TEMPLATES` key; None for xvii and xxxii, whose w''' = 0
    res2: Callable  # (p, jet) -> the cleared residual of the second-order equation (`residual2`)
    params: bool = False  # takes (alpha, beta); the other kinds reject nonzero values
    pole: Callable | None = None  # (coeffs, z) -> v about z, u = 1/v simple at each pole; None: no poles
    # read through the piv0 solution w = f^2: real paths, f'' completed, |f^2| as magnitude, zeros and poles on f^2;
    # the one res2 whose w'' coefficient is 4, not 2w: w = 0 stays in the domain of w'', which every other kind's leaves
    squared: bool = False

    @property
    def res2_is_c(self) -> bool:
        """res2 is piv's C: zero seeds, the curvature theorem and `sqrt_lift` apply."""
        return self.res2 is constraint_c

    def zero_slope2(self, p: Params) -> Scalar:
        """k + beta^2, res2 at the jet (0, 0, 0, 0): res2 = k + beta^2 - w'^2 at a zero; a quadratic's discriminant."""
        return self.res2(p, _trusted_jet(0.0, 0.0, 0.0, 0.0))


_PIV = KindRow("piv", constraint_c, params=True, pole=lambda v, z: [v[0] + z, v[1] + 1.0, *v[2:]])  # v = w + z

#: one row per kind, the defaults of `KindRow` where a row names no value
KINDS = {
    EquationKind.PIV: _PIV,
    EquationKind.PIV0: _PIV._replace(params=False),
    EquationKind.XVII: KindRow(None, lambda p, j: 2.0 * j.w * j.w2 - j.w1 * j.w1),
    EquationKind.XXIX: KindRow(
        "xxix", lambda p, j: 2.0 * j.w * j.w2 - j.w1 * j.w1 - 3.0 * j.w ** 4, pole=lambda v, z: v  # v = w
    ),
    EquationKind.XXXII: KindRow(None, lambda p, j: 2.0 * j.w * j.w2 - j.w1 * j.w1 + 1.0),
    EquationKind.SQRT_PIV0: KindRow(
        "sqrt_piv0", lambda p, j: 4.0 * j.w2 - j.w * (3.0 * j.w * j.w + 2.0 * j.z) * (j.w * j.w + 2.0 * j.z),
        pole=_PIV.pole, squared=True,  # v = f^2 + t
    ),
}


def _rhs2_scalar(kind: EquationKind, p: Params, z: Scalar, w: Scalar, w1: Scalar) -> Scalar:
    """w'' at (z, w, w'): res2, affine in w'' with coefficient 2w (4 when squared), solved for it.

    res2 at w'' = 0.0 is subtracted from 0.0, so that a zero w'' keeps the sign w'^2 / (2w) gives it.
    """
    row = KINDS[kind]
    if not row.squared and w == 0:
        raise SingularInput(f"{kind.value}: w = 0 is outside the second-order form's domain")
    return (0.0 - row.res2(p, _trusted_jet(z, w, w1, 0.0))) / (4.0 if row.squared else 2.0 * w)


def residual2(kind: EquationKind, p: Params, j: Jet3) -> Scalar:
    """The kind's `KindRow.res2` at j, defined at w = 0; p is not checked against the kind: `integrate` does that."""
    return KINDS[kind].res2(p, j)


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

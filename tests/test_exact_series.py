"""Each kind's written-out arithmetic checked against its residual `res2`, in exact rational arithmetic.

`KindRow.res2` is the one statement of each second-order equation.  The
series templates (`equations.series_lines`), which every step kernel runs,
and `rhs3`'s order-0 kernel are written by hand; these tests prove them
against res2 rather than compare them at float samples.  The kernels run
unchanged on `Q`, a rational that reads each float literal as its exact
binary value, so a template constant off by any amount shows as a nonzero
rational, not as rounding.

The paper's claim is that res2 is a first integral of the third-order
form: along the series of any jet, whatever its w'', res2 keeps its value
through order p - 2, the last order at which w'' of the truncated series
is exact.  The Backlund transformations of piv are checked the same way.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from painleve4 import EquationKind, Params, constraint_c, rhs3
from painleve4.equations import KINDS, ORDER, _rhs2_scalar, _trusted_jet, compile_kernel, series_lines

K = EquationKind


class Q(Fraction):
    """A rational whose arithmetic with a float or an int stays rational: the float is read exactly."""

    def __pow__(self, n):
        return Q(Fraction(self) ** n) if isinstance(n, int) else NotImplemented


def _exact(op, reflected):
    def method(x, y):
        if not isinstance(y, (int, float, Fraction)):
            return NotImplemented
        x, y = Fraction(x), Fraction(y)  # Fraction(float) is the float's exact value
        return Q(op(y, x) if reflected else op(x, y))

    return method


for _name in ("add", "sub", "mul", "truediv"):
    _op = getattr(Fraction, f"__{_name}__")
    setattr(Q, f"__{_name}__", _exact(_op, False))
    setattr(Q, f"__r{_name}__", _exact(_op, True))


class Series:
    """A power series in t truncated after t^n, with rational coefficients."""

    def __init__(self, coeffs, n):
        self.n = n
        self.c = [Fraction(x) for x in coeffs[: n + 1]] + [Fraction(0)] * (n + 1 - len(coeffs))

    def _lift(self, x):
        return x if isinstance(x, Series) else Series([x], self.n)

    def __add__(self, y):
        return Series([a + b for a, b in zip(self.c, self._lift(y).c)], self.n)

    def __sub__(self, y):
        return Series([a - b for a, b in zip(self.c, self._lift(y).c)], self.n)

    def __rsub__(self, y):
        return self._lift(y) - self

    def __mul__(self, y):
        y = self._lift(y).c
        return Series([sum(self.c[i] * y[k - i] for i in range(k + 1)) for k in range(self.n + 1)], self.n)

    def __truediv__(self, y):
        y, q = self._lift(y).c, []
        for k in range(self.n + 1):
            q.append((self.c[k] - sum(y[i] * q[k - i] for i in range(1, k + 1))) / y[0])
        return Series(q, self.n)

    def __pow__(self, m):
        out = self._lift(1)
        for _ in range(m):
            out = out * self
        return out

    __radd__, __rmul__ = __add__, __mul__


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=8).map(Q)
nonzero = rationals.filter(lambda x: x != 0)


def _coefficients(kind, p, z, w, w1, w2):
    """a_0 .. a_p of the kind's series about the jet, from `series_lines` run on rationals: a_0 .. a_2 on xvii and xxxii."""
    name = KINDS[kind].series
    names = ", ".join(f"a{k}" for k in range(3 if name is None else ORDER + 1))
    kernel = compile_kernel("exact", "alpha, z, w, w1, w2", [*series_lines(name), f"return [{names}]"])
    return kernel(p.alpha, z, w, w1, w2)


def _params(kind, alpha, beta):
    return Params(alpha, beta) if KINDS[kind].params else Params(Q(0), Q(0))


@pytest.mark.parametrize("kind", list(K))
@given(z=rationals, w=rationals, w1=rationals, w2=rationals, alpha=rationals, beta=rationals)
@settings(max_examples=4, deadline=None)
def test_series_keeps_res2_constant_through_order_p_minus_2(kind, z, w, w1, w2, alpha, beta):
    # any w'', on or off the res2 = 0 set, and w = 0 too: the series never divides by w
    p = _params(kind, alpha, beta)
    a = _coefficients(kind, p, z, w, w1, w2)
    assert a[:3] == [w, w1, w2 / 2]
    assert rhs3(kind, p, z, w, w1) == (6 * a[3] if len(a) > 3 else 0)
    n = ORDER - 2
    jet = _trusted_jet(
        Series([z, 1], n),
        Series(a, n),
        Series([(k + 1) * a[k + 1] for k in range(len(a) - 1)], n),
        Series([(k + 1) * (k + 2) * a[k + 2] for k in range(len(a) - 2)], n),
    )
    res2 = KINDS[kind].res2(p, jet).c
    assert res2[0] == KINDS[kind].res2(p, _trusted_jet(z, w, w1, w2))
    assert res2[1:] == [0] * n, f"res2 moves at order {next(k for k, x in enumerate(res2[1:], 1) if x)}"


@pytest.mark.parametrize("kind", list(K))
@given(z=rationals, w=nonzero, w1=rationals, w2=rationals, alpha=rationals, beta=rationals)
@settings(max_examples=6, deadline=None)
def test_rhs2_solves_res2_exactly(kind, z, w, w1, w2, alpha, beta):
    p = _params(kind, alpha, beta)
    res2 = KINDS[kind].res2
    # res2 is affine in w'', with coefficient 2 w (4 on the squared kind), which `_rhs2_scalar` divides by
    slope = 4 if KINDS[kind].squared else 2 * w
    assert res2(p, _trusted_jet(z, w, w1, w2)) - res2(p, _trusted_jet(z, w, w1, Q(0))) == slope * w2
    assert res2(p, _trusted_jet(z, w, w1, _rhs2_scalar(kind, p, z, w, w1))) == 0
    # and w = 0 is a zero of slope +-sqrt(k + beta^2) on every kind but the squared one
    if not KINDS[kind].squared:
        assert res2(p, _trusted_jet(z, Q(0), w1, w2)) == KINDS[kind].zero_slope2(p) - w1 * w1


def _backlund(p, z, w, w1, sign):
    """The jet of w+- = (w' - w^2 - 2 z w -+ beta) / (2 w) and its (alpha', beta'), from piv's jet at (z, w, w')."""
    w2 = _rhs2_scalar(K.PIV, p, z, w, w1)
    w3 = rhs3(K.PIV, p, z, w, w1)
    t, ws, ws1 = Series([z, 1], 2), Series([w, w1, w2 / 2], 2), Series([w1, w2, w3 / 2], 2)
    v = (ws1 - ws * ws - 2 * t * ws - sign * p.beta) / (2 * ws)
    alpha, beta = p
    return Params((2 - 2 * alpha + sign * 3 * beta) / 4, 1 + alpha + sign * beta / 2), (z, *map(Q, v.c[:2]), Q(2 * v.c[2]))


@pytest.mark.parametrize("sign", [1, -1])
@given(z=rationals, w=nonzero, w1=rationals, alpha=rationals, beta=rationals)
@settings(max_examples=30, deadline=None)
def test_backlund_transformation_lands_on_the_constraint(sign, z, w, w1, alpha, beta):
    # w+- solves piv at (alpha', beta') = ((2 - 2 alpha +- 3 beta) / 4, 1 + alpha +- beta / 2), beta^2 convention
    p = Params(alpha, beta)
    p_new, jet = _backlund(p, z, w, w1, sign)
    assert constraint_c(p, _trusted_jet(z, w, w1, _rhs2_scalar(K.PIV, p, z, w, w1))) == 0
    assert constraint_c(p_new, _trusted_jet(*jet)) == 0


@pytest.mark.parametrize("z", [Q(1, 2), Q(-3), Q(7, 5)])
def test_backlund_takes_minus_2z_to_1_over_z(z):
    # w = -2 z solves piv at alpha = 0, beta = 2; w+ is 1/z, at alpha' = beta' = 2
    p_new, jet = _backlund(Params(Q(0), Q(2)), z, -2 * z, Q(-2), 1)
    assert p_new == (2, 2)
    assert jet == (z, 1 / z, -1 / z ** 2, 2 / z ** 3)

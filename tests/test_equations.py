import ast
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from painleve4 import (
    EquationKind,
    InitialData,
    InvalidInitialData,
    Jet3,
    Params,
    SingularInput,
    complete_initial_data,
    constraint_c,
    jet_identities,
    residual2,
    rhs3,
)
from painleve4 import equations
from painleve4.equations import KINDS, ORDER, _rhs2_scalar
from painleve4.integrator import _H_MIN, _step_kernel
from painleve4.oracles import square_push, xxix_pole_family

K = EquationKind

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
nonzero_w = st.floats(min_value=-10.0, max_value=10.0).filter(lambda w: abs(w) >= 1e-3)


def coefficients(kind, p, z, w, w1, w2):
    """a_0 .. a_p of the kind's series about the jet (z, w, w', w''), as its step kernel returns them."""
    return _step_kernel(KINDS[kind].series)(p.alpha, z, w, w1, w2, 0.0, 1.0, 1.0, _H_MIN, 1e-10, 1e-10)[0]


def completed_w2(kind, p, z, w, w1):
    # w'' that the second-order equation completes at a regular point
    return complete_initial_data(kind, p, InitialData.nonzero(z, w, w1)).w2


def test_rhs2_piv_hand_values():
    assert completed_w2(K.PIV, Params(0, 0), 0.0, 1.0, 0.0) == 1.5
    # 4/2 + 3/2 + 4 + 0 - 1/2
    assert completed_w2(K.PIV, Params(1, 1), 1.0, 1.0, 2.0) == 7.0


def test_rhs2_other_kinds():
    assert completed_w2(K.XXXII, Params(), 4.2, 1.0, 1.0) == 0.0
    assert completed_w2(K.XVII, Params(), 0.0, 2.0, 4.0) == 4.0
    assert completed_w2(K.XXIX, Params(), 0.0, 1.0, 1.0) == 2.0
    # 4 f'' = 2 * 12 * 4 = 96
    assert completed_w2(K.SQRT_PIV0, Params(), 0.0, 2.0, 0.0) == 24.0


def test_rhs2_rejects_w_zero():
    # nonzero mode refuses w0 = 0, and the evaluator behind it refuses w = 0 too
    with pytest.raises(InvalidInitialData):
        InitialData.nonzero(0.0, 0.0, 1.0)
    for kind in (K.PIV, K.PIV0, K.XVII, K.XXIX, K.XXXII):
        with pytest.raises(SingularInput):
            _rhs2_scalar(kind, Params(), 0.0, 0.0, 1.0)
    # the square-root equation has no denominator: raw data completes f'' at f = 0
    assert complete_initial_data(K.SQRT_PIV0, Params(), InitialData.raw(0.0, 0.0, 1.0, 5.0)).w2 == 0.0


def test_rhs3_hand_values():
    # w'''(a) = 4 (a^2 - alpha) w'(a) at a zero of w
    assert rhs3(K.PIV, Params(0, 0), 1.0, 0.0, 2.0) == 8.0
    assert rhs3(K.PIV, Params(0, 0), 0.0, 0.0, 1.0) == 0.0
    assert rhs3(K.XXIX, Params(), 0.0, 1.0, 2.0) == 12.0
    assert rhs3(K.XXXII, Params(), 3.0, 5.0, 7.0) == 0.0
    assert rhs3(K.XVII, Params(), -1.0, 2.0, 3.0) == 0.0
    # f''' = 2 f (f^2 + t) + (15 f^4 + 24 t f^2 + 4 t^2) f' / 4
    assert rhs3(K.SQRT_PIV0, Params(), 0.0, 2.0, 0.0) == 16.0
    assert rhs3(K.SQRT_PIV0, Params(), 1.0, 1.0, 1.0) == 14.75


def test_piv0_rejects_nonzero_params():
    with pytest.raises(ValueError):
        completed_w2(K.PIV0, Params(1.0, 0.0), 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        rhs3(K.PIV0, Params(0.0, 0.5), 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        completed_w2(K.SQRT_PIV0, Params(0.0, 1.0), 0.0, 1.0, 0.0)


@pytest.mark.parametrize("kind", [K.XVII, K.XXIX, K.XXXII])
@pytest.mark.parametrize("params,name", [(Params(0.5, 0.0), "alpha"), (Params(0.0, 2.0), "beta")])
def test_parameter_free_kinds_reject_nonzero_params(kind, params, name):
    # the equations ignore (alpha, beta), but the zero label would read beta
    with pytest.raises(ValueError, match=f"^{name}: {kind.value} requires"):
        rhs3(kind, params, 0.0, 1.0, 0.0)


_JET_FIELDS = ("z", "w", "w1", "w2")


@pytest.mark.parametrize("field", _JET_FIELDS)
@pytest.mark.parametrize(
    "bad",
    [math.inf, -math.inf, math.nan, complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 0.0)],
    ids=["inf", "-inf", "nan", "complex-inf", "complex-imag-inf", "complex-nan"],
)
def test_jet_names_its_first_non_finite_field(field, bad):
    values = {"z": 0.5, "w": 1.0, "w1": -2.0, "w2": 0.25j}
    values[field] = bad
    with pytest.raises(ValueError, match=f"^{field}: must be finite, got "):
        Jet3(**values)
    # every later field non-finite too: the message still names the first
    for later in _JET_FIELDS[_JET_FIELDS.index(field) + 1:]:
        values[later] = math.nan
    with pytest.raises(ValueError, match=f"^{field}: must be finite, got {re.escape(repr(bad))}$"):
        Jet3(**values)


def test_jets_reject_non_finite():
    with pytest.raises(ValueError):
        Jet3(0.0, math.inf, 0.0, 0.0)
    with pytest.raises(ValueError):
        Params(math.inf, 0.0)


@pytest.mark.parametrize(
    "values",
    [(0.5, -1.25, 3.0, 1e-300), (0.0, -0.0, 0.0, 5.0), (complex(0.1, 0.2), 1j, complex(-3.0, 4.0), 0j)],
    ids=["real", "signed-zeros", "complex"],
)
def test_trusted_jet_is_the_validated_jet(values):
    # integrate and dense output build their jets without Jet3's check; the
    # benchmark fingerprints vars(node.jet), so every view of the two must agree
    trusted, checked = equations._trusted_jet(*values), Jet3(*values)
    assert type(trusted) is Jet3
    assert trusted == checked and hash(trusted) == hash(checked) and repr(trusted) == repr(checked)
    assert list(vars(trusted).items()) == list(vars(checked).items())
    assert trusted._asdict() == checked._asdict()
    with pytest.raises(AttributeError):
        trusted.w = 1.0
    with pytest.raises(AttributeError):
        del trusted.w1
    assert trusted == checked


def test_constraint_hand_values():
    assert constraint_c(Params(0, 0), Jet3(0.0, 1.0, 0.0, 1.5)) == 0.0
    assert constraint_c(Params(0, 0), Jet3(0.0, 1.0, 1.0, 0.0)) == -4.0


@given(beta=finite, a=finite, w2=finite)
def test_constraint_vanishes_at_zero_with_slope_beta(beta, a, w2):
    # at w = 0 the constraint reduces to beta^2 - w'^2, so slope +-beta kills it
    for sign in (+1.0, -1.0):
        assert constraint_c(Params(0.0, beta), Jet3(a, 0.0, sign * beta, w2)) == 0.0


@given(z=finite, w=nonzero_w, w1=finite, alpha=finite, beta=finite)
@settings(max_examples=200)
def test_completed_jet_sits_on_constraint_zero_set(z, w, w1, alpha, beta):
    p = Params(alpha, beta)
    w2 = completed_w2(K.PIV, p, z, w, w1)
    c = constraint_c(p, Jet3(z, w, w1, w2))
    scale = 1.0 + abs(2 * w * w2) + w1 * w1 + 3 * w ** 4 + abs(8 * z * w ** 3) + 4 * abs(z * z - alpha) * w * w + beta * beta
    assert abs(c) <= 1e-12 * scale


@given(z=finite, w=finite, w1=finite, w2=finite, alpha=finite, beta=finite)
@settings(max_examples=200)
def test_residual2_piv_is_constraint(z, w, w1, w2, alpha, beta):
    p = Params(alpha, beta)
    j = Jet3(z, w, w1, w2)
    assert residual2(K.PIV, p, j) == constraint_c(p, j)


def test_residual2_hand_values():
    # w = z^2 + z solves xxxii: 2(z^2+z)*2 - (2z+1)^2 + 1 = 0
    for z in (0.0, 0.5, -2.0, 3.25):
        w = z * z + z
        assert residual2(K.XXXII, Params(), Jet3(z, w, 2 * z + 1, 2.0)) == pytest.approx(0.0, abs=1e-12)
    # w = (z+1)^2 solves xvii
    for z in (0.0, 1.5, -3.0):
        assert residual2(K.XVII, Params(), Jet3(z, (z + 1) ** 2, 2 * (z + 1), 2.0)) == pytest.approx(0.0, abs=1e-12)
    assert residual2(K.XXIX, Params(), Jet3(0.0, 1.0, 0.0, 0.0)) == -3.0


def test_residual2_sqrt_kind():
    # 4 f'' - f (3 f^2 + 2t)(f^2 + 2t) with f'' = 24 completed by the equation
    assert residual2(K.SQRT_PIV0, Params(), Jet3(0.0, 2.0, 0.0, 24.0)) == 0.0
    assert residual2(K.SQRT_PIV0, Params(), Jet3(0.0, 2.0, 0.0, 25.0)) == 4.0


def test_jet_identities_hand_values():
    assert jet_identities(Jet3(0.0, 2.0, 3.0, 5.0), 7.0) == (0.0, 0.0)
    assert jet_identities(Jet3(0.0, 1.0, 0.0, 0.0), 0.0) == (0.0, 0.0)


def test_jet_identities_at_w_zero_returns_delta1_only():
    d1, d2 = jet_identities(Jet3(0.0, 0.0, 3.0, 5.0), 7.0)
    assert d1 == 0.0
    assert d2 is None


@given(z=finite, w=nonzero_w, w1=finite, w2=finite, w3=finite)
@settings(max_examples=500)
def test_jet_identities_are_rounding_noise(z, w, w1, w2, w3):
    d1, d2 = jet_identities(Jet3(z, w, w1, w2), w3)
    scale1 = max(1.0, abs(2 * w1 * w2) + abs(2 * w * w3))
    scale2 = max(1.0, abs(2 * w1 * w2 / w) + abs(w1 ** 3 / (w * w)))
    assert abs(d1) <= 1e-12 * scale1
    assert abs(d2) <= 1e-12 * scale2


@pytest.mark.parametrize("c", [1.3, -0.4, 1.0 + 0.5j, -2.0 - 1.5j])
@pytest.mark.parametrize("z0", [0.2, -0.9])
def test_xxix_series_of_the_pole_family(c, z0):
    # w = 1/(c - z) = sum over k of (c - z0)^-(k+1) (z - z0)^k
    j = xxix_pole_family(c, z0)
    coeffs = coefficients(K.XXIX, Params(), j.z, j.w, j.w1, j.w2)
    assert len(coeffs) == ORDER + 1
    u = 1.0 / (c - z0)
    for k, a in enumerate(coeffs):
        assert abs(a - u ** (k + 1)) <= 1e-14 * abs(u) ** (k + 1) * (k + 1)


@pytest.mark.parametrize("t0,f0,f1", [(0.3, 0.7, -0.2), (-0.8, -1.1, 0.4), (0.0, 0.5, 0.0)])
def test_sqrt_series_squares_to_the_piv0_series(t0, f0, f1):
    # f^2 solves piv0, so the square of the sqrt-piv0 series is the piv0 series
    # of the squared jet
    f2 = _rhs2_scalar(K.SQRT_PIV0, Params(), t0, f0, f1)
    f = coefficients(K.SQRT_PIV0, Params(), t0, f0, f1, f2)
    squared = [sum(f[i] * f[k - i] for i in range(k + 1)) for k in range(ORDER + 1)]
    j = square_push(t0, f0, f1)
    want = coefficients(K.PIV0, Params(), j.z, j.w, j.w1, j.w2)
    for a, b in zip(squared, want):
        assert abs(a - b) <= 1e-13 * (1.0 + abs(b))


@pytest.mark.parametrize("kind", list(K))
def test_series_ends_at_the_quadratic_only_where_the_third_derivative_vanishes(kind):
    p = Params(0.3, 0.7) if kind is K.PIV else Params()
    coeffs = coefficients(kind, p, 0.4, 0.8, -0.3, 0.5)
    assert coeffs[:3] == (0.8, -0.3, 0.25)
    # xvii and xxxii's step holds the quadratic's three coefficients; every other series goes on to a_p
    exact = kind in (K.XVII, K.XXXII)
    assert len(coeffs) == (3 if exact else ORDER + 1)
    assert exact or max(map(abs, coeffs[3:])) > 0.0


_LAZY_KERNELS = """
import painleve4, painleve4.cli
from painleve4 import integrator, zeros
from painleve4.equations import EquationKind as K, Params
from painleve4.integrator import InitialData, integrate

def built():
    kernels = (integrator._step_kernel, integrator._jet_kernel)
    return tuple(kernel.cache_info().currsize for kernel in kernels)

def built_readers():
    kernels = (integrator.skip_bound_kernel, integrator._reciprocal, integrator._cauchy_square)
    return tuple(kernel.cache_info().currsize for kernel in kernels)

assert built() == (0, 0), built()
assert built_readers() == (0, 0, 0), built_readers()
# the first run of a kind builds its step kernel, and no other: |w| stays below 3, so no pole search
run = integrate(K.PIV, Params(0.5, 0.1), InitialData.nonzero(0.0, 0.3, 0.2), 0.1)
assert built() == (1, 0), built()
# piv at another alpha and piv0 reuse it
integrate(K.PIV, Params(-0.7, 0.2), InitialData.nonzero(0.0, 0.3, 0.2), 0.1)
integrate(K.PIV0, Params(), InitialData.nonzero(0.0, 0.3, 0.2), 0.1)
assert built() == (1, 0), built()
assert integrator._step_kernel.cache_info().misses == 1

# the quadratic kinds share one kernel: w = z^2 - 1/4 on xxxii, two roots, and w = (z + 1)^2 on xvii
quadratic = integrate(K.XXXII, Params(), InitialData.nonzero(-2.0, 3.75, -4.0), 4.0)
assert built() == (2, 0), built()
integrate(K.XVII, Params(), InitialData.nonzero(0.0, 1.0, 2.0), 2.0)
assert built() == (2, 0), built()
assert built_readers() == (0, 0, 0), built_readers()

# the series pole rule: xxix ends at the root of 1/w's series, piv at 1/(w + z)'s;
# the first pole run builds the jet kernel of the whole order, which Newton reads u and u' through
for kind in (K.XXIX, K.PIV):
    assert integrate(kind, Params(), InitialData.nonzero(0.0, 1.0, 1.0), 2.0).pole_estimate is not None
    assert built() == (3, 1), built()
    assert built_readers() == (0, 1, 0), built_readers()
assert integrator._reciprocal.cache_info().misses == 1
# sqrt-piv0 squares f's series first
for _ in range(2):
    assert integrate(K.SQRT_PIV0, Params(), InitialData.nonzero(-3.0, 0.7, 0.0), 6.0).pole_estimate is not None
    assert built_readers() == (0, 1, 1), built_readers()
# and has a step kernel of its own
assert built() == (4, 1), built()

# the zero search reads w and its derivatives, and its curvature bound, through
# the jet kernel of the series' own length, and builds the skip bound's: on the
# quadratic's three coefficients, a second jet kernel and a first skip bound
assert len(zeros.locate_zeros(quadratic)) == 2
assert built() == (4, 2), built()
assert built_readers() == (1, 1, 1), built_readers()
zeros.locate_zeros(quadratic)
integrator.dense_eval(quadratic, 0.5)
integrator.dense_eval(run, 0.05)
assert integrator._jet_kernel.cache_info().misses == 2
assert integrator.skip_bound_kernel.cache_info().misses == 1
assert integrator._step_kernel.cache_info().misses == 4
"""


def test_kernels_compile_on_first_use():
    # in a fresh interpreter: importing the package builds no kernel, the
    # first run of a kind builds exactly one step kernel, and piv at another
    # alpha and piv0 reuse it, as xvii reuses xxxii's; the zero search and
    # the series pole rule build theirs on first use, once per series length
    src = Path(equations.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _LAZY_KERNELS], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _raw_bits(v) -> tuple:
    # every bit of each part, the sign of a zero and of a NaN included
    return tuple(struct.pack("<d", x) for x in ((v.real, v.imag) if isinstance(v, complex) else (v,)))


_NAN = math.nan
# signed zeros, infinities and NaNs, alone and as parts of complex values
_EDGE_VALUES = [
    0.0, -0.0, 1.5, -2.75, math.inf, -math.inf, _NAN, -_NAN,
    complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0), complex(1.5, -0.0), complex(-0.0, -2.75),
    complex(math.inf, -0.0), complex(-0.0, -math.inf), complex(_NAN, -0.0), complex(-0.0, _NAN), complex(math.inf, _NAN),
]  # fmt: skip


@pytest.mark.parametrize("x", _EDGE_VALUES, ids=repr)
def test_float_typed_kernels_give_the_bits_of_int_typed_ones(x):
    # the kernels start each written sum at 0.0 and multiply by float
    # factors, so that CPython specialises their arithmetic; with the int 0
    # and int factors they had, every value keeps every bit on every interpreter
    from painleve4 import integrator

    # the literal each line d_k = (k + 1) a_(k+1) of a series multiplies by, and the 2.0 that
    # doubles p''/2 at the end of nested multiplication in the jet kernel and at a step's end
    lines = [line.strip() for line in integrator._step_lines("piv")]
    factors = [ast.literal_eval(line.split(" = ")[1].split(" * ")[0]) for line in lines if re.match(r"(d\d+|w2) = \d", line)]
    ints = [*range(3, ORDER - 1), 2]
    assert factors == ints and all(type(f) is float for f in factors)
    for y in (-0.0, 2.5, complex(-0.0, -0.0), complex(_NAN, 1.0)):
        for terms in (["x"], ["x", "y"], ["y", "x"], ["x * y"]):
            as_int = "(0" + "".join(f" + {term}" for term in terms) + ")"
            assert _raw_bits(eval(equations.written_sum(terms))) == _raw_bits(eval(as_int)), (y, terms)
        for k, factor in zip(ints, factors):
            assert _raw_bits(x * factor) == _raw_bits(x * k), k
            assert _raw_bits(y * x * factor) == _raw_bits(y * x * k), (y, k)
    if not isinstance(x, complex):  # the step kernel's powers h ** k of a real step length
        for k in range(ORDER - 3, ORDER + 1):
            assert _raw_bits(abs(x) ** float(k)) == _raw_bits(abs(x) ** k), k

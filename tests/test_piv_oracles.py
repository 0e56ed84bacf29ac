"""Exact oracles for piv itself: rational solutions, the reflection and the rotation.

In the beta^2 convention, w = -2z solves piv at (alpha, beta) = (0, 2),
w = -2z/3 at (0, 2/3), and w = 1/z at (2, 2), which has a pole at 0.  The
map w(z) -> -w(-z) keeps (alpha, beta), and the integrator's arithmetic is
odd in z, w and w'' and even in w', so a reflected run reproduces the
original bit for bit.  The map w(z) -> -i w(iz) takes (alpha, beta) to
(-alpha, beta); multiplying by a unit of the complex plane is exact, and
rounding is symmetric in sign, so a rotated complex run reproduces the
original bit for bit as well.  What a tolerance buys is read off
w = -2z/3 and off xxix's 1/(1 - z), the pole family the other exact
oracles use.
"""

import cmath
import random

import pytest

from painleve4 import (
    EquationKind,
    InitialData,
    Params,
    ScalarField,
    Tolerances,
    TrajectoryStatus,
    integrate,
    locate_zeros,
)
from painleve4.oracles import xxix_pole_family

K = EquationKind

_PATHS = [0.3, 2.0, -1.0]  # angles of the complex path directions


def _rational(slope: float, beta: float, z0, span: float, d=None):
    """A piv run from the exact jet of w = slope * z at (0, beta), on the real line or along d."""
    if d is None:
        init = InitialData.raw(z0, slope * z0, slope, 0.0)
    else:
        init = InitialData.raw(z0, slope * z0, slope, 0.0, ScalarField.COMPLEX, d)
    traj = integrate(K.PIV, Params(0.0, beta), init, span)
    assert traj.status is TrajectoryStatus.COMPLETED
    return traj


@pytest.mark.parametrize("z0", [-1.3, 0.0, 0.4, 2.0])
@pytest.mark.parametrize("span", [2.5, -2.5])
def test_minus_two_z_is_exact_on_the_real_line(z0, span):
    # its series has a_k = 0 for k >= 2 to the bit, so every node is exact
    for node in _rational(-2.0, 2.0, z0, span).nodes:
        assert node.jet.w == -2.0 * node.jet.z and node.jet.w1 == -2.0 and node.jet.w2 == 0.0


@pytest.mark.parametrize("angle", _PATHS)
def test_minus_two_z_is_exact_on_a_complex_path(angle):
    for node in _rational(-2.0, 2.0, 0.5 - 0.2j, 2.0, cmath.exp(1j * angle)).nodes:
        assert node.jet.w == -2.0 * node.jet.z


@pytest.mark.parametrize("z0,span,d", [
    *((z0, span, None) for z0 in (-1.3, 0.4, 2.0) for span in (2.5, -2.5)),
    *((0.5 - 0.2j, 2.0, cmath.exp(1j * angle)) for angle in _PATHS),
])  # fmt: skip
def test_minus_two_thirds_z_stays_within_rounding(z0, span, d):
    # 2/3 is not a double, so the series' cubic terms are rounding noise; the
    # largest node error measured is 1.6e-15
    for node in _rational(-2.0 / 3.0, 2.0 / 3.0, z0, span, d).nodes:
        assert abs(node.jet.w + 2.0 * node.jet.z / 3.0) <= 1e-14


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
def test_exact_solutions_hold_to_the_tolerance(tol):
    # the README's tolerance table: the largest node error, relative, of
    # w = -2z/3 from z0 = 1 over 3 and of xxix's 1/(1 - z) from 0 over 0.9;
    # measured 1.7e-15 and 2.3e-12 at 1e-8, 5.0e-16 and 1.8e-14 at 1e-10,
    # 1.7e-16 and 5.3e-16 at 1e-12
    rational = integrate(K.PIV, Params(0.0, 2.0 / 3.0), InitialData.raw(1.0, -2.0 / 3.0, -2.0 / 3.0, 0.0), 3.0,
                         Tolerances(tol, tol))  # fmt: skip
    family = integrate(K.XXIX, Params(), InitialData.nonzero(0.0, 1.0, 1.0), 0.9, Tolerances(tol, tol))
    for traj, exact in ((rational, lambda z: -2.0 * z / 3.0), (family, lambda z: xxix_pole_family(1.0, z).w)):
        assert traj.status is TrajectoryStatus.COMPLETED and len(traj.nodes) > 1
        assert max(abs(n.jet.w - exact(n.jet.z)) / abs(exact(n.jet.z)) for n in traj.nodes) <= tol


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
def test_pole_of_one_over_z_is_found_within_its_bound(tol):
    # w = 1/z from z = 1 toward its pole at 0; the estimates measured are
    # 4.3e-13, 1.8e-14 and 1.4e-16 against bounds of 1.8e-11, 8.4e-12 and 2.1e-13
    traj = integrate(K.PIV, Params(2.0, 2.0), InitialData.raw(1.0, 1.0, -1.0, 2.0), -1.5, Tolerances(tol, tol))
    assert traj.status is TrajectoryStatus.POLE
    assert abs(traj.pole_estimate) <= traj.pole_bound


def test_reflection_maps_every_node_bit_for_bit():
    # w(z) -> -w(-z): the run from (-z0, -w, w', -w'') over -span negates
    # z, w and w'' of every node and keeps w', the step and the monitor C
    rng = random.Random(14)
    statuses = set()
    for _ in range(60):
        p = Params(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        z0, w, w1, w2 = (rng.uniform(-1.5, 1.5) for _ in range(4))
        span = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 3.0)
        a = integrate(K.PIV, p, InitialData.raw(z0, w, w1, w2), span)
        b = integrate(K.PIV, p, InitialData.raw(-z0, -w, w1, -w2), -span)
        assert b.status is a.status
        assert [(-n.jet.z, -n.jet.w, n.jet.w1, -n.jet.w2, n.s, n.h, n.err_est, n.res2) for n in b.nodes] == [
            (n.jet.z, n.jet.w, n.jet.w1, n.jet.w2, n.s, n.h, n.err_est, n.res2) for n in a.nodes
        ]
        if a.pole_estimate is None:
            assert b.pole_estimate is None
        else:
            assert (-b.pole_estimate, b.pole_bound) == (a.pole_estimate, a.pole_bound)
        statuses.add(a.status)
    # the draws reach poles as well as the span's end
    assert statuses == {TrajectoryStatus.COMPLETED, TrajectoryStatus.POLE}


def _minus_i(x):
    """-i x, exactly: x + iy -> y - ix."""
    return complex(x.imag, -x.real)


def _times_i(x):
    """i x, exactly: x + iy -> -y + ix."""
    return complex(-x.imag, x.real)


def _rotated(kind, p, init, span):
    """The run of init and that of W(z) = -i w(iz) at (-alpha, beta), from -i z0 along -i d.

    W' = w' and W'' = i w'' at the mapped point, so a zero seed keeps its
    branch; each node and zero event of the two runs is compared bit for bit.
    """
    a = integrate(kind, p, init, span)
    mapped = InitialData(
        _minus_i(init.z0),
        None if init.w0 is None else _minus_i(init.w0),
        init.w1,
        None if init.w2 is None else _times_i(init.w2),
        init.branch,
        ScalarField.COMPLEX,
        _minus_i(init.direction),
    )
    b = integrate(kind, Params(-p.alpha, p.beta), mapped, span)
    assert b.status is a.status
    assert [(n.jet.z, n.jet.w, n.jet.w1, n.jet.w2, n.s, n.h, n.err_est) for n in b.nodes] == [
        (_minus_i(n.jet.z), _minus_i(n.jet.w), n.jet.w1, _times_i(n.jet.w2), n.s, n.h, n.err_est) for n in a.nodes
    ]
    if a.pole_estimate is None:
        assert b.pole_estimate is None
    else:
        assert (b.pole_estimate, b.pole_bound) == (_minus_i(a.pole_estimate), a.pole_bound)
    events = locate_zeros(a)
    assert [(e.a, e.slope, e.curvature, e.branch) for e in locate_zeros(b)] == [
        (_minus_i(e.a), e.slope, _times_i(e.curvature), e.branch) for e in events
    ]
    return a, events


def _complex(rng, r):
    return complex(rng.uniform(-r, r), rng.uniform(-r, r))


def test_rotation_maps_every_node_and_zero_bit_for_bit():
    # regular and zero-seeded runs of piv at drawn (alpha, beta) and of piv0, which the map takes onto itself
    rng = random.Random(21)
    zero_seeds = zeros = 0
    for i in range(90):
        kind, p = (K.PIV0, Params()) if i % 3 == 2 else (K.PIV, Params(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)))
        d = cmath.exp(1j * rng.uniform(-cmath.pi, cmath.pi))
        z0 = _complex(rng, 1.5)
        if i % 2:
            init = InitialData.zero(z0, rng.choice((-1, 1)), _complex(rng, 2.0), ScalarField.COMPLEX, d)
            zero_seeds += 1
        else:
            init = InitialData.nonzero(z0, _complex(rng, 1.5), _complex(rng, 1.5), ScalarField.COMPLEX, d)
        traj, events = _rotated(kind, p, init, rng.uniform(0.5, 3.0))
        assert traj.status is TrajectoryStatus.COMPLETED
        zeros += len(events)
    # each zero seed is an event at its node 0
    assert zeros >= zero_seeds == 45


@pytest.mark.parametrize("seed", range(10))
def test_rotation_maps_rational_runs_through_a_zero_and_into_a_pole(seed):
    # on paths through 0: w = -2z/3 at (0, 2/3), which the map keeps, crosses its zero there, and
    # w = 1/z at (2, 2), which goes to W = -1/z at (-2, 2), ends at its pole there
    rng = random.Random(seed)
    d = cmath.exp(1j * rng.uniform(-cmath.pi, cmath.pi))
    z0 = -rng.uniform(0.5, 2.0) * d
    line = InitialData.raw(z0, -2.0 * z0 / 3.0, -2.0 / 3.0, 0.0, ScalarField.COMPLEX, d)
    traj, events = _rotated(K.PIV, Params(0.0, 2.0 / 3.0), line, 3.0)
    assert traj.status is TrajectoryStatus.COMPLETED and len(events) == 1 and abs(events[0].a) < 1e-12
    pole = InitialData.raw(z0, 1.0 / z0, -1.0 / (z0 * z0), 2.0 / (z0 * z0 * z0), ScalarField.COMPLEX, d)
    traj, _ = _rotated(K.PIV, Params(2.0, 2.0), pole, 3.0)
    assert traj.status is TrajectoryStatus.POLE and abs(traj.pole_estimate) <= traj.pole_bound

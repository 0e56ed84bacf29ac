"""Exact oracles for piv itself: rational solutions and the reflection symmetry.

In the beta^2 convention, w = -2z solves piv at (alpha, beta) = (0, 2),
w = -2z/3 at (0, 2/3), and w = 1/z at (2, 2), which has a pole at 0.  The
map w(z) -> -w(-z) keeps (alpha, beta), and the integrator's arithmetic is
odd in z, w and w'' and even in w', so a reflected run reproduces the
original bit for bit.  What a tolerance buys is read off w = -2z/3 and
off xxix's 1/(1 - z), the pole family the other exact oracles use.
"""

import cmath
import random

import pytest

from painleve4 import EquationKind, InitialData, Params, ScalarField, Tolerances, TrajectoryStatus, integrate
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

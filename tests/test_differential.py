"""Differential check of `integrate` against scipy's DOP853 on the piv third-order system.

scipy is a test-only dependency: the module is skipped where it is not
installed, and the package itself stays pure standard library.
"""

import cmath

import pytest

from painleve4 import EquationKind, InitialData, Params, ScalarField, TrajectoryStatus, integrate

integrate_ivp = pytest.importorskip("scipy.integrate")

REF_TOL = 1e-13
# integrate runs at rel = abs = 1e-10; both runs below agree to about 2e-11


def piv_w3(alpha, z, w, w1):
    # w''' = {6 w^2 + 12 z w + 4 (z^2 - alpha)} w' + 4 (w + z) w, written out here independently of the package
    return (6.0 * w * w + 12.0 * z * w + 4.0 * (z * z - alpha)) * w1 + 4.0 * (w + z) * w


def assert_nodes_match(traj, ref_jets, budget):
    ref_jets = list(ref_jets)
    assert len(ref_jets) == len(traj.nodes)
    worst = 0.0
    for node, (w, w1, w2) in zip(traj.nodes, ref_jets):
        j = node.jet
        scale = 1.0 + abs(w) + abs(w1) + abs(w2)
        worst = max(worst, (abs(j.w - w) + abs(j.w1 - w1) + abs(j.w2 - w2)) / scale)
    assert worst < budget, worst


def test_real_piv_run_matches_dop853():
    p = Params(0.2, 1.1)
    traj = integrate(EquationKind.PIV, p, InitialData.nonzero(-1.0, 0.9, 0.1), 2.0)
    assert traj.status is TrajectoryStatus.COMPLETED
    j0 = traj.nodes[0].jet
    zs = [n.jet.z for n in traj.nodes]

    def f(z, y):
        return [y[1], y[2], piv_w3(p.alpha, z, y[0], y[1])]

    sol = integrate_ivp.solve_ivp(
        f, (zs[0], zs[-1]), [j0.w, j0.w1, j0.w2], method="DOP853", t_eval=zs, rtol=REF_TOL, atol=REF_TOL
    )
    assert sol.success
    assert_nodes_match(traj, zip(*sol.y), 1e-9)


def test_complex_path_piv_run_matches_dop853_as_a_real_6_vector():
    p = Params(0.5, 0.25)
    d = cmath.exp(0.3j)
    init = InitialData.raw(0.0, 0.7, -0.1, 0.4, field=ScalarField.COMPLEX, direction=d)
    traj = integrate(EquationKind.PIV, p, init, 1.0)
    assert traj.status is TrajectoryStatus.COMPLETED
    j0 = traj.nodes[0].jet
    ss = [n.s for n in traj.nodes]

    def f(s, y):
        w, w1, w2 = complex(y[0], y[1]), complex(y[2], y[3]), complex(y[4], y[5])
        dw, dw1, dw2 = d * w1, d * w2, d * piv_w3(p.alpha, j0.z + s * d, w, w1)
        return [dw.real, dw.imag, dw1.real, dw1.imag, dw2.real, dw2.imag]

    y0 = [part for v in (j0.w, j0.w1, j0.w2) for part in (v.real, v.imag)]
    sol = integrate_ivp.solve_ivp(f, (0.0, ss[-1]), y0, method="DOP853", t_eval=ss, rtol=REF_TOL, atol=REF_TOL)
    assert sol.success
    ref = [(complex(y[0], y[1]), complex(y[2], y[3]), complex(y[4], y[5])) for y in zip(*sol.y)]
    assert_nodes_match(traj, ref, 1e-9)

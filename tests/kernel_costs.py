"""Microseconds per call of each public one-point call, a report with no bound.

Each figure is the median over ROUNDS rounds of the mean time of one call in
a round; a round makes as many calls as fit in about 20 ms.  Every call takes
one fixed point, off the seam of every frame; ``position_operators`` builds X
on the 4x3x3 lattice at n_max = 2 after a first build there has kept its plan.

    PYTHONPATH=src python tests/kernel_costs.py
"""

import statistics
import time

import numpy as np

from photonguide import momentum_basis as mb
from photonguide import position_operator as po
from photonguide import second_quantization as sq
from photonguide import waveguide_kinematics as wk

ROUNDS = 7
ROUND_S = 0.02

K = np.array([0.3, -0.4, 1.2])
X0 = np.array([0.5, -1.0, 0.25])
SCHEME = po.Scheme(1e-4)
ORDER4 = po.Scheme(1e-3, order=4)
SPEC = wk.WaveguideSpec(2.0, 1.0)
MODE = wk.mode(SPEC, 2, 1)
NARROW = wk.mode(wk.WaveguideSpec(1.6, 0.8), 2, 1)
PHI = po.localized(po.PositionKind.VECTOR, X0, +1)
FOCK = sq.FockSpace(sq.MomentumLattice((4, 3, 3), 0.5), 2)


def calls():
    """(name, call) for every timed call, in the order printed."""
    table = [
        ("rotated_triad", lambda: mb.rotated_triad(K)),
        ("polarization_triad", lambda: mb.polarization_triad(K)),
        ("spinor_frame f", lambda: mb.spinor_frame(K, "f")),
        ("spinor_frame g", lambda: mb.spinor_frame(K, "g")),
        ("apply_position vector", lambda: po.apply_position(po.PositionKind.VECTOR, PHI, K, SCHEME)),
    ]
    table += [(f"eigenvalue_residual {kind.value}",
               lambda kind=kind: po.eigenvalue_residual(X0, +1, [K], SCHEME, kind)) for kind in po.PositionKind]
    table += [
        ("commutator_residual vector order 4",
         lambda: po.commutator_residual(X0, +1, K, ORDER4, po.PositionKind.VECTOR)),
        ("WaveguideSpec", lambda: wk.WaveguideSpec(2.0, 1.0)),
        ("mode", lambda: wk.mode(SPEC, 2, 1)),
        ("decompose", lambda: wk.decompose(MODE, 1.5, 0.3)),
        ("tunneling_predicate", lambda: wk.tunneling_predicate(MODE, 1.5, NARROW)),
        ("FockSpace.position_operators 4x3x3 n<=2", FOCK.position_operators),
    ]
    return table


def per_call_us(call) -> float:
    """The median over ROUNDS rounds of the mean µs per call."""
    start = time.perf_counter()
    call()
    repeat = max(1, int(ROUND_S / max(time.perf_counter() - start, 1e-7)))
    means = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(repeat):
            call()
        means.append((time.perf_counter() - start) / repeat)
    return 1e6 * statistics.median(means)


if __name__ == "__main__":
    for name, call in calls():
        print(f"{name:42s} {per_call_us(call):10.2f} us")

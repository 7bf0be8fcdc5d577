"""The boost-minimum check of the kinematics suite: its blocked rapidity
grid against the one-piece np.linspace grid; and the memory footprint of
every verify suite."""

import math
import tracemalloc

import numpy as np
import pytest

from photonguide import verify
from photonguide import waveguide_kinematics as wk

CHI = np.linspace(-10.0, 10.0, 1_000_001)


@pytest.fixture(scope="module")
def hyperbolic():
    return np.cosh(CHI), np.sinh(CHI)


def suite_pair():
    md = wk.mode(wk.WaveguideSpec(math.pi, math.pi / 2), 1, 0)
    return wk.dispersion(md, math.sqrt(3.0))


def rest_frame_pair(chi_star, m=1.0):
    return m * math.cosh(chi_star), m * math.sinh(chi_star)


def seeded_pairs(n=12):
    rng = np.random.default_rng(7)
    return [rest_frame_pair(rng.uniform(-9.9, 9.9), rng.uniform(0.1, 3.0)) for _ in range(n)]


CASES = {
    "suite": suite_pair(),
    "chi_star_zero": (1.0, 0.0),
    "block_start": rest_frame_pair(float(CHI[8 << 16])),
    "block_end": rest_frame_pair(float(CHI[(8 << 16) - 1])),
    # A boundary of the 2**14-point blocks that no 2**16-point block has.
    "small_block_start": rest_frame_pair(float(CHI[9 << 14])),
    "small_block_end": rest_frame_pair(float(CHI[(9 << 14) - 1])),
    "beyond_stop": rest_frame_pair(12.0),
    **{f"seeded_{n}": pair for n, pair in enumerate(seeded_pairs())},
}


@pytest.mark.parametrize("case", list(CASES))
def test_blocked_grid_is_bitwise_the_one_piece_grid(case, hyperbolic):
    energy, p = CASES[case]
    cosh, sinh = hyperbolic
    boosted = energy * cosh - p * sinh
    i_ref = int(np.argmin(boosted))
    i_min, minimum, chi_min, step = verify._boost_grid_minimum(energy, p)
    assert i_min == i_ref
    assert minimum == float(boosted[i_ref])
    assert chi_min == float(CHI[i_ref])
    assert step == CHI[1] - CHI[0] == 1.9999999999242846e-05
    expected = {"chi_star_zero": 500_000, "block_start": 8 << 16, "block_end": (8 << 16) - 1,
                "small_block_start": 9 << 14, "small_block_end": (9 << 14) - 1, "beyond_stop": 1_000_000}
    if case in expected:
        assert i_min == expected[case]
    if case == "beyond_stop":
        assert chi_min == 10.0


# tracemalloc peak of each suite on a warm process, in MiB: the suite's
# post-change peak plus about 20 %.  Fock is held to 3 MiB: its row-half
# commutator peaks at 2.9 MiB, against 4.84 MiB for the whole products and
# |D| matrices it replaced.  Kinematics' blocks of 2**14 points peak near
# 0.75 MiB; the one-piece grid held six 8 MB temporaries at once (22.9 MB).
PEAK_MIB = {"basis": 0.92, "position": 0.72, "fock": 3.0, "dirac": 2.0, "kinematics": 0.9}


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_suite_peak_memory(suite):
    # numpy loads numpy.random on first use, 0.7 MB of imports that are not
    # the suite's to count; the warm-up call loads the suite's own modules
    # and, for fock, keeps X's plan in the Fock slot the autouse fixture
    # emptied, as every later fock suite of the process finds it.
    kwargs = {"h": 1e-4, "include_weight_term": True} if suite == "position" else {}
    np.random.default_rng(0)
    verify.SUITES[suite](seed=0, **kwargs)
    tracemalloc.start()
    try:
        verify.SUITES[suite](seed=0, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_MIB[suite] * 2**20, peak

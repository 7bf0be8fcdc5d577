"""The boost-minimum check of the kinematics suite: its bracketed scan of
the rapidity grid against the one-piece np.linspace grid and against the
scan of every block it replaced; and the memory footprint of every verify
suite."""

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


def every_block_scan(energy, p):
    """The scan the bracketed one replaced: every 2**14-point block, a later
    block winning only with a strictly smaller value.  A block whose argmin
    is nan never wins."""
    step = (10.0 - -10.0) / (1_000_001 - 1)
    best = (-1, math.inf, math.nan)
    for lo in range(0, 1_000_001, 1 << 14):
        chi = np.arange(lo, min(lo + (1 << 14), 1_000_001), dtype=float) * step + -10.0
        if lo == 0:
            grid_step = float(chi[1] - chi[0])
        if lo + len(chi) == 1_000_001:
            chi[-1] = 10.0
        boosted = energy * np.cosh(chi) - p * np.sinh(chi)
        i = int(np.argmin(boosted))
        if boosted[i] < best[1]:
            best = (lo + i, float(boosted[i]), float(chi[i]))
    return (*best, grid_step)


# Grid index of the first minimum, where a case pins it.
EXPECTED = {"chi_star_zero": 500_000, "block_start": 8 << 16, "block_end": (8 << 16) - 1,
            "small_block_start": 9 << 14, "small_block_end": (9 << 14) - 1, "beyond_stop": 1_000_000,
            "p_above_e": 1_000_000, "p_below_minus_e": 0, "concave_right": 1_000_000, "concave_left": 0,
            "concave_tie": 0, "massless_forward": 1_000_000, "massless_backward": 0,
            "overflow_edges": 516_870, "finite_near_zero_only": 500_000, "minus_inf_before_nan": 546_072,
            "nan_block_skipped": 442_368, "massless_nan_edge": (55 << 14) - 1, "concave_minus_inf": 0}

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
    # Monotone: p > E falls to the last point, p < -E rises from the first.
    "p_above_e": (1.0, 2.0),
    "p_below_minus_e": (1.0, -2.0),
    # E < -|p| is concave, so the minimum is at an edge; the even one ties
    # its two edges and the first wins.
    "concave_right": (-2.0, 1.0),
    "concave_left": (-2.0, -1.0),
    "concave_tie": (-1.0, 0.0),
    "massless_forward": (1.0, 1.0),
    "massless_backward": (1.0, -1.0),
}

# Finite pairs whose values overflow to inf, -inf or nan away from chi = 0.
# A block holding a nan never wins, where the one-piece argmin returns the
# first nan, so these are compared with the every-block scan only.
OVERFLOW_CASES = {
    # Finite only for |chi| < 0.337, inf beyond and nan past chi = 1.34.
    "overflow_edges": (1.7e308, 1e308),
    # Finite only for |chi| < 0.093, where no block starts.
    "finite_near_zero_only": (1.79e308, 0.0),
    # -inf from chi = 0.92, nan from chi = 1.19, in the next block.
    "minus_inf_before_nan": (1e308, 1.7e308),
    # nan up to chi = -1.34 and -inf after it, in one block: the first -inf
    # that counts starts the next block.
    "nan_block_skipped": (-1.7e308, 1e308),
    # The last finite value shares its block with the first nan: the end of
    # the block before wins.
    "massless_nan_edge": (1e305, 1e305),
    "concave_minus_inf": (-1.79e308, 0.0),
}


@pytest.mark.parametrize("case", [*CASES, *OVERFLOW_CASES])
def test_bracketed_scan_is_bitwise_the_every_block_scan(case):
    energy, p = {**CASES, **OVERFLOW_CASES}[case]
    with np.errstate(over="ignore", invalid="ignore"):
        got, reference = verify._boost_grid_minimum(energy, p), every_block_scan(energy, p)
    assert [float(v).hex() for v in got] == [float(v).hex() for v in reference]
    if case in EXPECTED:
        assert got[0] == EXPECTED[case]


def test_one_scan_evaluates_two_blocks_and_the_marks(monkeypatch):
    # 62 block starts, the point at chi = 0, the last point and two blocks.
    cosh, counted = np.cosh, []
    monkeypatch.setattr(np, "cosh", lambda chi: counted.append(np.size(chi)) or cosh(chi))
    for energy, p in [*CASES.values(), *OVERFLOW_CASES.values()]:
        counted.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            verify._boost_grid_minimum(energy, p)
        assert 0 < sum(counted) <= 64 + 2 * (1 << 14) < 33_000


@pytest.mark.parametrize("pair", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 0.0), (-math.inf, 0.0),
                                  (1.0, math.inf), (1.0, -math.inf), (math.inf, math.inf)])
def test_non_finite_pair_fails_both_boost_checks(pair, monkeypatch):
    scan = verify._boost_grid_minimum

    def non_finite_scan(energy, p):
        with np.errstate(over="ignore", invalid="ignore"):
            return scan(*pair)

    monkeypatch.setattr(verify, "_boost_grid_minimum", non_finite_scan)
    checks = {c.name: c for c in verify.kinematics_suite(seed=0)}
    assert not checks["kinematics.boost_minimum"].passed
    assert not checks["kinematics.boost_minimizer"].passed


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
    if case in EXPECTED:
        assert i_min == EXPECTED[case]
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

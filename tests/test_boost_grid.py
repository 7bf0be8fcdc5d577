"""The boost-minimum check of the kinematics suite: its scan of the rapidity
grid against the first minimum of the one-piece np.linspace grid; and the
memory footprint of every verify suite, which ``python
tests/test_boost_grid.py`` prints beside its bound and the suite's warm wall
time, which has none."""

import math
import statistics
import sys
import time
import tracemalloc

import numpy as np
import pytest

from photonguide import verify
from photonguide import waveguide_kinematics as wk

CHI = np.linspace(-10.0, 10.0, 1_000_001)


@pytest.fixture(scope="module")
def hyperbolic():
    return np.cosh(CHI), np.sinh(CHI)


def rest_frame_pair(chi_star, m=1.0):
    return m * math.cosh(chi_star), m * math.sinh(chi_star)


def random_pairs(n=240):
    """Pairs of magnitude 1e-300 to 1e303, whose values stay finite and normal
    on the grid: by turns both parts of random sign and size, rest-frame pairs
    with |chi*| up to 12, and near-null pairs E = +-p (1 + d)."""
    rng = np.random.default_rng(7)
    pairs = []
    for n in range(n):
        size = 10.0 ** rng.uniform(-300.0, 303.0)
        if n % 3 == 0:
            pairs.append((rng.choice([-size, size]), rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 303.0)))
        elif n % 3 == 1:
            pairs.append(rest_frame_pair(rng.uniform(-12.0, 12.0), size / 1e5))
        else:
            energy = rng.choice([-size, size])
            pairs.append((energy, energy * rng.choice([-1.0, 1.0]) * (1.0 + rng.uniform(-1e-6, 1e-6))))
    return [(float(energy), float(p)) for energy, p in pairs]


# Grid index of the first minimum, where a case pins it.
EXPECTED = {"chi_star_zero": 500_000, "mark": 8 << 16, "before_mark": (8 << 16) - 1, "between_marks": 600_000,
            "beyond_stop": 1_000_000, "p_above_e": 1_000_000, "p_below_minus_e": 0, "concave_right": 1_000_000,
            "concave_left": 0, "concave_tie": 0, "massless_forward": 1_000_000, "massless_backward": 0,
            "top_of_domain": 500_000, "bottom_of_domain": 500_000}

CASES = {
    "suite": wk.dispersion(wk.mode(wk.WaveguideSpec(math.pi, math.pi / 2), 1, 0), math.sqrt(3.0)),
    "chi_star_zero": (1.0, 0.0),
    # A mark, the point before it and a point between two marks.
    "mark": rest_frame_pair(float(CHI[8 << 16])),
    "before_mark": rest_frame_pair(float(CHI[(8 << 16) - 1])),
    "between_marks": rest_frame_pair(float(CHI[600_000])),
    # At chi* near +-10 rounding leaves the values flat over a dozen points,
    # the grid's end among them; where the first minimum falls in that
    # stretch moves with numpy's SIMD path.
    "near_start": rest_frame_pair(float(CHI[5])),
    "near_stop": rest_frame_pair(float(CHI[999_995])),
    "beyond_stop": rest_frame_pair(12.0),
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
    # The edges of the domain: E cosh(10) just below the largest double, E
    # at 1e-300, and near-null pairs E = +-p (1 + 1e-6) at the top and the
    # bottom, whose smallest values, near 1e-303, stay normal.  The
    # near-null minima, at chi = +-7.2543, tie or differ by one rounding with the next
    # point, so the first moves by one with numpy's SIMD path.
    "top_of_domain": (8e303, 0.0),
    "near_null_top_forward": (1e303, 1e303 * (1.0 - 1e-6)),
    "near_null_top_backward": (1e303, -1e303 * (1.0 - 1e-6)),
    "bottom_of_domain": (1e-300, 0.0),
    "near_null_bottom": (1e-300, 1e-300 * (1.0 - 1e-6)),
    "near_null_bottom_backward": (1e-300, -1e-300 * (1.0 - 1e-6)),
}

PAIRS = {**CASES, **{f"random_{n}": pair for n, pair in enumerate(random_pairs())}}


@pytest.mark.parametrize("case", list(PAIRS))
def test_scan_is_bitwise_the_first_minimum_of_the_one_piece_grid(case, hyperbolic):
    energy, p = PAIRS[case]
    cosh, sinh = hyperbolic
    got = verify._boost_grid_minimum(energy, p)
    boosted = energy * cosh - p * sinh
    i = int(np.argmin(boosted))
    assert [float(v).hex() for v in got] == [float(v).hex() for v in (i, boosted[i], CHI[i], CHI[1] - CHI[0])]
    if case in EXPECTED:
        assert i == EXPECTED[case]


def test_one_scan_evaluates_the_marks_and_one_bracket(monkeypatch):
    # 977 regular marks, the last point and the 2 049 points of a bracket.
    cosh, counted = np.cosh, []
    monkeypatch.setattr(np, "cosh", lambda chi: counted.append(np.size(chi)) or cosh(chi))
    for energy, p in PAIRS.values():
        counted.clear()
        verify._boost_grid_minimum(energy, p)
        assert 0 < sum(counted) <= 977 + 1 + 2049


@pytest.mark.parametrize("pair", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 0.0), (-math.inf, 0.0),
                                  (1.0, math.inf), (1.0, -math.inf), (math.inf, math.inf)])
def test_non_finite_pair_fails_both_boost_checks(pair, monkeypatch):
    scan = verify._boost_grid_minimum
    monkeypatch.setattr(verify, "_boost_grid_minimum", lambda energy, p: scan(*pair))
    checks = {c.name: c for c in verify.kinematics_suite(seed=0)}
    assert not checks["kinematics.boost_minimum"].passed
    assert not checks["kinematics.boost_minimizer"].passed


# tracemalloc peak of each suite on a warm process, in MiB: the suite's
# measured peak plus about 20 %; fock's row-half commutator peaks at 2.9 MiB,
# and kinematics, whose boost-grid scan holds some 3 000 points, at 0.21 MiB.
PEAK_MIB = {"basis": 0.92, "position": 0.72, "fock": 3.0, "dirac": 2.0, "kinematics": 0.25}


def warm_peak(suite):
    """The tracemalloc peak in MiB of the suite's second run at seed 0."""
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
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def warm_ms(suite):
    """The median wall time in ms of five runs of the suite at seed 0, in a
    process that has run it before."""
    kwargs = {"h": 1e-4, "include_weight_term": True} if suite == "position" else {}
    times = []
    for _ in range(5):
        start = time.perf_counter()
        verify.SUITES[suite](seed=0, **kwargs)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_suite_peak_memory(suite):
    assert warm_peak(suite) < PEAK_MIB[suite]


if __name__ == "__main__":
    peaks = {suite: warm_peak(suite) for suite in verify.SUITES}
    for suite, peak in peaks.items():
        print(f"{suite:<11} warm tracemalloc peak {peak:.3f} MiB, bound {PEAK_MIB[suite]} MiB;"
              f" warm wall time {warm_ms(suite):.1f} ms (median of 5)")
    sys.exit(any(peak >= PEAK_MIB[suite] for suite, peak in peaks.items()))

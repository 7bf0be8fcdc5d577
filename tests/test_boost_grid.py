"""The boost-minimum check of the kinematics suite: its scan of the rapidity
grid against the first minimum of the one-piece np.linspace grid; and the
memory footprint of every verify suite, which ``python
tests/test_boost_grid.py`` prints beside its bound."""

import math
import sys
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
    """Finite pairs of normal magnitude, half of them 1e298 to 1.8e308, where
    values overflow: by turns both parts of random sign and size, rest-frame
    pairs with |chi*| up to 12, and near-null pairs E = +-p (1 + d)."""
    rng = np.random.default_rng(7)
    pairs = []
    for n in range(n):
        size = 10.0 ** rng.uniform(-300.0 if n % 2 else 298.0, 308.25)
        if n % 3 == 0:
            pairs.append((rng.choice([-size, size]), rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 308.25)))
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
            "overflow_edges": 516_870, "finite_near_zero_only": 500_000, "minus_inf_before_nan": 546_072,
            "nan_then_minus_inf": 432_535, "massless_nan_edge": 909_370, "concave_minus_inf": 0,
            "narrow_minus_inf": 237_715, "difference_overflow": 563_202}

CASES = {
    "suite": wk.dispersion(wk.mode(wk.WaveguideSpec(math.pi, math.pi / 2), 1, 0), math.sqrt(3.0)),
    "chi_star_zero": (1.0, 0.0),
    # A mark, the point before it and a point between two marks.
    "mark": rest_frame_pair(float(CHI[8 << 16])),
    "before_mark": rest_frame_pair(float(CHI[(8 << 16) - 1])),
    "between_marks": rest_frame_pair(float(CHI[600_000])),
    # At chi* near +-10 rounding leaves the values flat over a dozen points,
    # the four consecutive marks at each grid end among them; where the first
    # minimum falls in that stretch moves with numpy's SIMD path.
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
}

# Finite pairs whose values overflow to inf, -inf or nan away from chi = 0.
OVERFLOW_CASES = {
    # Finite only for |chi| < 0.337, inf beyond and nan past chi = 1.34.
    "overflow_edges": (1.7e308, 1e308),
    # Finite only for |chi| < 0.093, where no regular mark lies: the marks
    # beside the overflow points find it.
    "finite_near_zero_only": (1.79e308, 0.0),
    # -inf from chi = 0.92, nan from chi = 1.19.
    "minus_inf_before_nan": (1e308, 1.7e308),
    # nan up to chi = -1.34 and -inf after it: the first -inf wins.
    "nan_then_minus_inf": (-1.7e308, 1e308),
    # Finite values fall until the first nan at chi = 8.19.
    "massless_nan_edge": (1e305, 1e305),
    "concave_minus_inf": (-1.79e308, 0.0),
    # E cosh(chi) overflows to -inf three grid points before p sinh(chi)
    # does, at chi = -5.2457; left of them both do, to nan.  Only the marks
    # at the overflow points find that window.
    "narrow_minus_inf": (-1.8948491661189943e306, 1.894850018500941e306),
    # The difference overflows to -inf from chi = 1.26404, two points past a
    # mark, where neither term does: the first -inf mark is 1 022 points on.
    "difference_overflow": (-4.855330014944564e307, 5.340863016439021e307),
}

PAIRS = {**CASES, **OVERFLOW_CASES, **{f"random_{n}": pair for n, pair in enumerate(random_pairs())}}


@pytest.mark.parametrize("case", list(PAIRS))
def test_scan_is_bitwise_the_first_minimum_of_the_one_piece_grid(case, hyperbolic):
    energy, p = PAIRS[case]
    cosh, sinh = hyperbolic
    got = verify._boost_grid_minimum(energy, p)
    with np.errstate(over="ignore", invalid="ignore"):
        boosted = energy * cosh - p * sinh
    boosted[np.isnan(boosted)] = math.inf
    i = int(np.argmin(boosted))
    assert [float(v).hex() for v in got] == [float(v).hex() for v in (i, boosted[i], CHI[i], CHI[1] - CHI[0])]
    if case in EXPECTED:
        assert i == EXPECTED[case]


def test_one_scan_evaluates_the_marks_and_one_bracket(monkeypatch):
    # 977 regular marks, four at each of the four overflow points, and the
    # 2 049 points of a bracket.
    cosh, counted = np.cosh, []
    monkeypatch.setattr(np, "cosh", lambda chi: counted.append(np.size(chi)) or cosh(chi))
    for energy, p in PAIRS.values():
        counted.clear()
        verify._boost_grid_minimum(energy, p)
        assert 0 < sum(counted) <= 977 + 16 + 2049 < 3050


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


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_suite_peak_memory(suite):
    assert warm_peak(suite) < PEAK_MIB[suite]


if __name__ == "__main__":
    peaks = {suite: warm_peak(suite) for suite in verify.SUITES}
    for suite, peak in peaks.items():
        print(f"{suite:<11} warm tracemalloc peak {peak:.3f} MiB, bound {PEAK_MIB[suite]} MiB")
    sys.exit(any(peak >= PEAK_MIB[suite] for suite, peak in peaks.items()))

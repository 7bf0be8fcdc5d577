"""The memory footprint of every verify suite, which ``python
tests/test_suite_footprint.py`` prints beside its bound and the suite's warm
wall time, which has none."""

import statistics
import sys
import time
import tracemalloc

import numpy as np
import pytest

from photonguide import verify


# tracemalloc peak of each suite on a warm process, in MiB: the suite's
# measured peak plus about 20 %; basis (0.63 MiB) and dirac (1.11 MiB) take
# their 1 000-point contractions in blocks of 250 points, fock's row-half
# commutator peaks at 2.9 MiB, and kinematics, whose main loop holds 15 000
# residuals and six 1 000-draw columns, at 0.17 MiB.
PEAK_MIB = {"basis": 0.76, "position": 0.72, "fock": 3.0, "dirac": 1.27, "kinematics": 0.25}


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

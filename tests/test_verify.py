"""The batched evaluations inside the verification suites against the
one-point-at-a-time code they replace, and the flagship run's stdout pinned
byte for byte."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from photonguide import dirac_like as dl
from photonguide import momentum_basis as mb
from photonguide import verify
from photonguide import waveguide_kinematics as wk

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "verify_all_seed0.txt")


def sequential_sample_k(rng, low=-5.0, high=5.0, min_norm=1e-6):
    """The reference: one row per draw until one passes."""
    while True:
        k = rng.uniform(low, high, 3)
        if np.linalg.norm(k) > min_norm:
            return k


class CountingRng:
    """A generator proxy that counts its ``uniform`` calls."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def uniform(self, *args):
        self.calls += 1
        return self.rng.uniform(*args)


class TestBlockSampler:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    @pytest.mark.parametrize("n, min_norm", [(1000, 1e-6), (60, 5.0), (25, 7.5)])
    def test_matches_sequential_sampler(self, seed, n, min_norm):
        ref_rng = np.random.default_rng([seed, 0])
        expected = np.array([sequential_sample_k(ref_rng, min_norm=min_norm) for _ in range(n)])
        rng = CountingRng(np.random.default_rng([seed, 0]))
        got = verify._sample_k(rng, n, min_norm=min_norm)
        assert got.shape == (n, 3)
        assert np.array_equal(got, expected)
        # The generator is left where the sequential sampler leaves it.
        assert rng.rng.random() == ref_rng.random()
        if min_norm >= 5.0:
            # About half (|k| > 5) or 3 % (|k| > 7.5) of the cube passes, so
            # the rejected rows are drawn again over several rounds.
            assert rng.calls > 2

    def test_zero_rows(self):
        rng = np.random.default_rng(3)
        assert verify._sample_k(rng, 0).shape == (0, 3)
        assert rng.random() == np.random.default_rng(3).random()


def reference_guided_checks(seed, samples=1000):
    """dirac.guided_on_shell and dirac.off_shell_detected one draw at a time,
    after the suite's k draws, in the suite's generator order, each residual
    the np.linalg.norm of one vector."""
    rng = np.random.default_rng([seed, 3])
    for _ in range(samples):
        sequential_sample_k(rng)
    guided = 0.0
    detect = math.inf
    for _ in range(200):
        md = verify._sample_mode(rng)
        k3 = float(rng.uniform(0.0, 5.0))
        azimuth = float(rng.uniform(0.0, 2.0 * math.pi))
        dec = wk.decompose(md, k3, azimuth)
        k_null = dec.k_mu.spatial
        for lam in (-1, +1):
            guided = max(guided, float(np.linalg.norm(dl.contracted(dec.k_mu.t, k_null) @ mb.spinor_f(k_null, lam))))
        k_bad = dec.k_L.spatial + (1.0 + 1e-3) * md.mass * dec.eta.spatial
        bad = float(np.linalg.norm(dl.contracted(dec.k_mu.t, k_bad) @ mb.spinor_f(k_bad, +1)))
        detect = min(detect, bad / md.mass)
    return guided, detect


@pytest.mark.parametrize("seed", range(10))
def test_batched_guided_checks_equal_per_point_loop(seed):
    checks = {c.name: c.residual for c in verify.dirac_suite(seed=seed)}
    guided, detect = reference_guided_checks(seed)
    assert checks["dirac.guided_on_shell"] == guided
    assert checks["dirac.off_shell_detected"] == detect


def reference_eigenvalue_checks(seed, h=1e-4):
    """position.eigenvalue_residual and its order deviation one (x0, lam, k)
    draw at a time, in the suite's generator order: one call per draw and
    step, each with its own x0."""
    rng = np.random.default_rng([seed, 1])
    res_h = res_h2 = 0.0
    for t in range(50):
        lam = mb.HELICITIES[t % 3]
        x0 = rng.uniform(-2.0, 2.0, 3)
        k = verify._sample_offseam_k(rng)
        res_h = max(res_h, verify.eigenvalue_residual(x0, lam, [k], verify.Scheme(h)))
        res_h2 = max(res_h2, verify.eigenvalue_residual(x0, lam, [k], verify.Scheme(h / 2)))
    return res_h, abs(math.log2(res_h / res_h2) - 2.0)


@pytest.mark.parametrize("seed", range(5))
def test_batched_eigenvalue_checks_equal_per_draw_loop(seed):
    checks = {c.name: c.residual for c in verify.position_suite(seed=seed)}
    res_h, order_dev = reference_eigenvalue_checks(seed)
    assert checks["position.eigenvalue_residual"] == res_h
    assert checks["position.eigenvalue_order_dev"] == order_dev


def test_position_suite_makes_one_call_per_helicity_step_and_variant_scheme(monkeypatch):
    # Eigenvalue: 3 helicities x 2 steps.  Commutator: the order-4 scheme for
    # each of the 4 variants, plus the order-2 pair at hc and hc/2 for the
    # 3 framed ones (the naive variant has no decay order to measure).
    calls = []

    def counting(name):
        fn = getattr(verify, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(verify, name, wrapper)

    counting("eigenvalue_residual")
    counting("commutator_residual")
    verify.position_suite(seed=3)
    assert calls.count("eigenvalue_residual") == 6
    assert calls.count("commutator_residual") == 10


class TestNonFiniteResiduals:
    """A nan residual, from a step too small for the stencil say, fails its
    check: the reductions keep it, and no order rule turns it into a pass."""

    @pytest.mark.parametrize("direction", ["below", "above"])
    @pytest.mark.parametrize("residual", [math.nan, math.inf, -math.inf])
    def test_check_fails(self, residual, direction):
        assert not verify.CheckResult("x", residual, 1.0, direction).passed

    def test_finite_checks_are_unchanged(self):
        assert verify.CheckResult("x", 1.0, 1.0).passed
        assert not verify.CheckResult("x", 1.0, 1.0, "above").passed
        assert verify.CheckResult("x", 2.0, 1.0, "above").passed

    def test_worst_keeps_nan(self):
        assert math.isnan(verify._worst([0.5, math.nan, 0.1]))
        assert verify._worst([]) == 0.0

    @pytest.mark.parametrize("coarse, fine, expected", [
        (4e-6, 1e-6, 0.0),
        (1e-6, 0.0, 0.0),               # an exact fine residual
        (0.0, 1e-6, math.inf),          # log2(0) would raise
        (1e-300, 1e300, math.inf),      # the ratio underflows to 0
        (math.inf, 1e-6, math.inf),
    ])
    def test_order_dev(self, coarse, fine, expected):
        assert verify._order_dev(coarse, fine) == expected

    @pytest.mark.parametrize("coarse, fine", [
        (math.nan, 1e-6), (1e-6, math.nan), (math.nan, 0.0), (math.nan, math.nan), (0.0, math.nan),
    ])
    def test_order_dev_of_nan_is_nan(self, coarse, fine):
        assert math.isnan(verify._order_dev(coarse, fine))

    def test_nan_eigenvalue_residuals_fail(self):
        # h = 1e-320 is finite and positive, but the difference quotients
        # overflow to inf - inf = nan.
        with np.errstate(all="ignore"):
            checks = {c.name: c for c in verify.position_suite(seed=0, h=1e-320)}
        for name in ("position.eigenvalue_residual", "position.eigenvalue_order_dev"):
            assert math.isnan(checks[name].residual) and not checks[name].passed


def test_verify_all_stdout_is_pinned():
    # Frozen output: a batching that reorders any sum changes a residual's
    # last digits, and with them these bytes.
    res = subprocess.run([sys.executable, "-m", "photonguide", "verify", "--suite", "all", "--seed", "0"],
                         capture_output=True, timeout=120)
    assert res.returncode == 0, res.stderr
    with open(PINNED, "rb") as fh:
        assert res.stdout == fh.read()

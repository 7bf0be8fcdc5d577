"""Acceptance gate: ten numbered criteria, each printed as one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance here is pinned; do not relax them to make a failing
build pass.
"""

import subprocess
import sys
import time

from photonguide import verify

CMD = [sys.executable, "-m", "photonguide"]


def report(num, name, ok, detail=""):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def named(checks, prefix):
    picked = [c for c in checks if c.name.startswith(prefix)]
    assert picked, f"no checks named {prefix}*"
    return picked


def test_criterion_01_basis_suite():
    t0 = time.perf_counter()
    checks = verify.basis_suite(seed=42)
    elapsed = time.perf_counter() - t0
    core = [c for c in checks if c.tol <= 1e-12]
    worst = max(c.residual for c in core)
    ok = all(c.passed for c in checks) and worst <= 1e-12 and elapsed < 1.0
    report(1, "basis orthonormality/completeness over 10^3 k",
           ok, f"worst={worst:.3e} runtime={elapsed:.2f}s")


def test_criterion_02_eigenvalue_property():
    checks = verify.position_suite(seed=42, include_weight_term=True)
    res = named(checks, "position.eigenvalue_residual")[0]
    order = named(checks, "position.eigenvalue_order_dev")[0]
    ok = res.residual <= 1e-6 and order.residual <= 0.2
    report(2, "position eigenvalue residual <= 1e-6 at h=1e-4, order in [1.8, 2.2]",
           ok, f"residual={res.residual:.3e} order_dev={order.residual:.3e}")


def test_criterion_03_commuting_components():
    checks = verify.position_suite(seed=42, include_weight_term=True)
    comms = named(checks, "position.commutator.")
    orders = named(checks, "position.commutator_order_dev.")
    kinds = {c.name.rsplit(".", 1)[1] for c in comms}
    assert kinds == {"naive", "vector", "spinor_plus", "spinor_minus"}
    worst = max(c.residual for c in comms)
    worst_order = max(c.residual for c in orders)
    ok = worst <= 1e-5 and worst_order <= 0.4
    report(3, "commutators <= 1e-5 at h=1e-3 with order-2 decay, all pairs and variants",
           ok, f"worst={worst:.3e} order_dev={worst_order:.3e}")


def test_criterion_04_negative_control():
    good = verify.position_suite(seed=42, include_weight_term=True)
    bad = verify.position_suite(seed=42, include_weight_term=False)
    res_good = named(good, "position.eigenvalue_residual")[0].residual
    res_bad = named(bad, "position.eigenvalue_residual")[0].residual
    degraded = res_bad >= 1e3 * res_good
    proc = subprocess.run(CMD + ["verify", "--suite", "position", "--no-weight-term"],
                          capture_output=True, text=True)
    ok = degraded and proc.returncode == 1
    report(4, "dropping the spectral-weight term degrades >= 3 orders and exits 1",
           ok, f"ratio={res_bad / res_good:.3e} exit={proc.returncode}")


def test_criterion_05_fock_equivalence():
    checks = verify.fock_suite(seed=42)
    worst = max(c.residual for c in checks)
    ok = all(c.passed for c in checks) and worst <= 1e-12
    report(5, "Fock X: one-photon stencil equivalence, Hermitian, commuting, additive",
           ok, f"worst={worst:.3e}")


def test_criterion_06_dirac_like():
    checks = verify.dirac_suite(seed=42)
    algebra = named(checks, "dirac.matrix_algebra")[0].residual
    on_shell = named(checks, "dirac.on_shell_transverse")[0].residual
    longitudinal = named(checks, "dirac.longitudinal_residual_is_omega")[0].residual
    ok = (all(c.passed for c in checks) and algebra == 0.0
          and on_shell <= 1e-12 and longitudinal <= 1e-12)
    report(6, "first-order wave equation: exact algebra, on-shell over 10^3 k",
           ok, f"on_shell={on_shell:.3e} longitudinal_dev={longitudinal:.3e}")


def test_criterion_07_kinematic_identities():
    checks = verify.kinematics_suite(seed=42)
    identity_names = [
        "kinematics.de_broglie_relations",
        "kinematics.energy_from_group_velocity",
        "kinematics.guide_wavelength",
        "kinematics.decomposition_invariants",
        "kinematics.decomposition_closure",
        "kinematics.plane_wave_pair",
    ]
    picked = [c for c in checks if c.name in identity_names]
    assert len(picked) == len(identity_names)
    worst = max(c.residual for c in picked)
    ok = worst <= 1e-12
    report(7, "kinematic identities <= 1e-12 relative over 10^3 samples",
           ok, f"worst={worst:.3e}")


def test_criterion_08_boost_minimum():
    checks = verify.kinematics_suite(seed=42)
    boost_min = named(checks, "kinematics.boost_minimum")[0]
    minimizer = named(checks, "kinematics.boost_minimizer")[0]
    invariance = named(checks, "kinematics.boost_invariance")[0]
    ok = (boost_min.residual <= 1e-9 and minimizer.passed
          and invariance.residual <= 1e-9)
    report(8, "boosted-energy minimum = m to 1e-9; minimizer at artanh(vg); norms invariant",
           ok, f"min_dev={boost_min.residual:.3e} inv={invariance.residual:.3e}")


def test_criterion_09_si_cross_check():
    from photonguide.waveguide_kinematics import cutoff_frequency_hz
    fc = cutoff_frequency_hz(0.02286, 0.01016, 1, 0)
    rel = abs(fc - 6.5566e9) / 6.5566e9
    ok = rel <= 1e-4
    report(9, "22.86 mm guide cutoff matches 6.5566 GHz within 0.01%",
           ok, f"fc={fc:.6e} rel_dev={rel:.3e}")


def test_criterion_10_cli_contract():
    args = CMD + ["verify", "--suite", "all", "--seed", "42"]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    deterministic = (first.returncode == 0 and second.returncode == 0
                     and first.stdout == second.stdout and first.stdout)
    matrix = [
        (["modes", "--b1", "2"], 2),                       # missing flag
        (["modes", "--b1", "x", "--b2", "1"], 2),          # unparsable float
        (["modes", "--b1", "-2", "--b2", "1"], 2),         # bad physics
        (["dispersion", "--b1", "2", "--b2", "1",
          "--omega-min", "0.5", "--omega-max", "3"], 2),   # below cutoff
        (["decompose", "--b1", "2", "--b2", "1", "--r", "0", "--k3", "1"], 2),
        (["no-such-command"], 2),
        (["verify", "--suite", "basis"], 0),
        (["verify", "--suite", "position", "--no-weight-term"], 1),
    ]
    codes_ok = True
    for extra, expected in matrix:
        got = subprocess.run(CMD + extra, capture_output=True).returncode
        if got != expected:
            codes_ok = False
            break
    ok = bool(deterministic and codes_ok)
    report(10, "verify output byte-identical across runs; exit codes 0/1/2 honored",
           ok, f"deterministic={bool(deterministic)} exit_matrix={codes_ok}")

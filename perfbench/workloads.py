"""The four benchmark workloads.

Each workload draws every input from the workload seed in :meth:`setup`, runs
one op per :meth:`op` call (the only timed code), and judges the op's output
in :meth:`check`, outside the timing.  Checks use numpy and mpmath only, never
photonguide, so a traced run attributes no check work to a layer.

A failed op is classified against the known-failure ledger (README.md): it
returns the ledger key it matches, or ``None`` when the failure is not a known
defect.  Known failures still count as failed ops.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

# --- ledger -----------------------------------------------------------------

SPINOR_MINUS_SEAM = "spinor_minus_seam"
COMMUTATOR_SMALL_K = "commutator_small_k"
TUNNELING_DOMAIN = "tunneling_domain_error"
CHI_STAR_PRECISION = "chi_star_precision"

# Below this k3/m the closed-form critical rapidity is reproduced to 1e-9;
# above it the bisection's cancellation is a known defect.
CHI_STAR_KNOWN_FROM = 1e3
# Above this k3/m, p/E rounds to 1 and atanh raises.
DOMAIN_ERROR_KNOWN_FROM = 1e7
# Within this distance of the seam of g(-k) the spinor_minus stencils are a
# known defect.
SEAM_KNOWN_WITHIN = 0.3

# The share of points whose k3 is drawn log-uniformly over [1e-3, 1e12] * m.
EXTREME_EVERY = 8
EXTREME_DECADES = (-3.0, 12.0)


class OpFailure(Exception):
    """An op's output failed the benchmark's check."""

    def __init__(self, message: str, ledger: str | None = None):
        super().__init__(message)
        self.ledger = ledger


def _close(value: float, reference: float, rel: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= rel * max(abs(reference), 1e-300)


def _require(ok: bool, message: str, ledger: str | None = None) -> None:
    if not ok:
        raise OpFailure(message, ledger)


def _guides(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    """Guides with b2 < b1 in [0.5, 3], a mode (r, s), and its apparent mass."""
    dims = np.sort(rng.uniform(0.5, 3.0, (n, 2)), axis=1)
    r = rng.integers(1, 4, n)
    s = rng.integers(0, 4, n)
    m = np.hypot(r * np.pi / dims[:, 1], s * np.pi / dims[:, 0])
    return {"b1": dims[:, 1], "b2": dims[:, 0], "r": r, "s": s, "m": m}


def _k3_over_m(rng: np.random.Generator, n: int, extreme: np.ndarray) -> np.ndarray:
    """k3 / m: uniform over [0.1, 5], or log-uniform over the extreme domain."""
    ratio = rng.uniform(0.1, 5.0, n)
    logs = rng.uniform(*EXTREME_DECADES, n)
    return np.where(extreme, 10.0 ** logs, ratio)


def _offseam_k(rng: np.random.Generator, n: int, min_dist=0.5, max_norm=3.0) -> np.ndarray:
    """k as ``verify`` samples it: in the cube, |k| <= 3, and at least 0.5
    from the origin and from the seam half-axis."""
    out = np.empty((0, 3))
    while len(out) < n:
        k = rng.uniform(-max_norm, max_norm, (4 * n + 16, 3))
        norm = np.linalg.norm(k, axis=1)
        dist = np.where(k[:, 2] <= 0.0, np.hypot(k[:, 0], k[:, 1]), norm)
        out = np.concatenate([out, k[(dist >= min_dist) & (norm <= max_norm)]])
    return out[:n]


def _mp():
    # Imported on first check, so that mpmath never counts in setup_s.
    import mpmath

    mpmath.mp.dps = 40
    return mpmath


def _chi_star_reference(mp, k3: float, m, wc_new) -> float:
    """Closed-form critical rapidity asinh(p/m) - acosh(wc'/m), or 0 when
    the photon is already below the new cutoff."""
    p = mp.mpf(k3)
    if mp.sqrt(p * p + m * m) <= wc_new:
        return 0.0
    return float(mp.asinh(p / m) - mp.acosh(wc_new / m))


def _mp_mass(mp, b1: float, b2: float, r: int, s: int):
    return mp.sqrt((r * mp.pi / mp.mpf(b1)) ** 2 + (s * mp.pi / mp.mpf(b2)) ** 2)


class Workload:
    """Interface shared by the workloads.  ``rate`` sizes a run: it holds
    ``seconds x rate`` ops, about as many as a 2-vCPU VM completes in that
    time."""

    name: str
    rate: float
    min_ops = 3
    setup_modules: tuple[str, ...] = ()
    in_process = True

    def __init__(self):
        self.state: dict = {}

    def ops_for(self, seconds: float) -> int:
        return max(self.min_ops, round(seconds * self.rate))

    def import_program(self) -> None:
        for name in self.setup_modules:
            __import__(name)

    def setup(self, seed: int, n: int, workdir: str) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> None:
        raise NotImplementedError

    def classify_error(self, i: int, exc: BaseException) -> str | None:
        return None


# --- verify_all -------------------------------------------------------------

CHECK_NAMES = (
    [f"basis.{n}" for n in ("orthonormality", "completeness", "curl_eigenvector",
                            "triad_right_handed", "triad_near_axis", "lipschitz_bound_reported")]
    + ["position.eigenvalue_residual", "position.eigenvalue_order_dev", "position.commutator.naive"]
    + [f"position.{n}.{v}" for v in ("vector", "spinor_plus", "spinor_minus")
       for n in ("commutator", "commutator_order_dev")]
    + [f"position.{n}" for n in ("connection_identity", "connection_missing_sector_detected", "linearity")]
    + [f"fock.{n}" for n in ("one_photon_equivalence", "position_hermitian", "components_commute",
                             "number_conserved", "two_photon_additivity", "vacuum_annihilated",
                             "ladder_commutator", "one_body_vs_ladder")]
    + [f"dirac.{n}" for n in ("matrix_algebra", "on_shell_transverse", "longitudinal_residual_is_omega",
                              "helicity_eigenvectors", "guided_on_shell", "mass_shell_identities",
                              "eta_orthogonality", "off_shell_detected")]
    + [f"kinematics.{n}" for n in ("de_broglie_relations", "energy_from_group_velocity", "guide_wavelength",
                                   "decomposition_invariants", "decomposition_closure", "plane_wave_pair",
                                   "boost_minimum", "boost_minimizer", "boost_invariance",
                                   "si_half_wavelength", "si_reference_value", "cutoff_monotonicity",
                                   "group_velocity_vanishes_at_cutoff", "tunneling_predicate")]
)

VERIFY_LEDGER = {
    "position.commutator.spinor_minus": SPINOR_MINUS_SEAM,
    "position.commutator.vector": COMMUTATOR_SMALL_K,
    "position.commutator.spinor_plus": COMMUTATOR_SMALL_K,
}


class VerifyAll(Workload):
    """``cli.main(["verify", "--suite", "all", ...])`` in-process, one fresh
    verify seed per op."""

    name = "verify_all"
    rate = 0.3
    setup_modules = ("photonguide.cli",)

    def setup(self, seed, n, workdir):
        from photonguide import cli

        rng = np.random.default_rng([seed, 1])
        self.state = {
            "cli": cli,
            "seeds": [int(s) for s in rng.integers(0, 2**31 - 1, n)],
            "out": os.path.join(workdir, "verify.out"),
        }

    def op(self, i):
        st = self.state
        return st["cli"].main(["verify", "--suite", "all", "--seed", str(st["seeds"][i]), "--out", st["out"]])

    def check(self, i, code):
        with open(self.state["out"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        os.remove(self.state["out"])
        _require(len(lines) == len(CHECK_NAMES) + 1, f"expected {len(CHECK_NAMES) + 1} lines, got {len(lines)}")
        failed = []
        for line, name in zip(lines, CHECK_NAMES):
            status, got, residual, *_ = line.split(" ")
            _require(got == name and status in ("PASS", "FAIL"), f"unexpected check line {line!r}")
            _require(math.isfinite(float(residual.split("=", 1)[1])), f"non-finite residual in {line!r}")
            if status == "FAIL":
                failed.append(name)
        passed = len(CHECK_NAMES) - len(failed)
        _require(lines[-1] == f"{passed}/{len(CHECK_NAMES)} checks passed", f"bad summary {lines[-1]!r}")
        _require(code == (1 if failed else 0), f"exit code {code} with {len(failed)} FAIL lines")
        if failed:
            keys = {VERIFY_LEDGER.get(name) for name in failed}
            ledger = None if None in keys else "+".join(sorted(keys))
            raise OpFailure(f"exit 1: FAIL {', '.join(failed)}", ledger)


# --- fock_build -------------------------------------------------------------

class FockBuild(Workload):
    """Build a 4x3x3, n<=2 Fock space and its X, then take <X> on seeded one-
    and two-photon states."""

    SHAPE = (4, 3, 3)

    name = "fock_build"
    rate = 2.0
    setup_modules = ("photonguide.second_quantization",)

    def setup(self, seed, n, workdir):
        from photonguide import second_quantization as sq

        rng = np.random.default_rng([seed, 2])
        npoints = int(np.prod(self.SHAPE))
        self.state = {
            "sq": sq,
            "spacing": rng.uniform(0.5, 1.5, n),
            # Two one-photon states, and a product pair in distinct helicity sectors.
            "one": rng.standard_normal((n, 2, npoints, 3)) + 1j * rng.standard_normal((n, 2, npoints, 3)),
            "pair": rng.standard_normal((n, 2, npoints)) + 1j * rng.standard_normal((n, 2, npoints)),
        }

    def op(self, i):
        st = self.state
        sq = st["sq"]
        space = sq.FockSpace(sq.MomentumLattice(self.SHAPE, float(st["spacing"][i])), n_max=2)
        ops = space.position_operators()
        states = [space.one_photon_vector(c) for c in st["one"][i]]
        ca, cb = st["pair"][i]
        pair = np.zeros(len(space.basis), dtype=complex)
        plus = [space.mode_index(p, +1) for p in range(len(ca))]
        minus = [space.mode_index(p, -1) for p in range(len(cb))]
        for mu, a in zip(plus, ca):
            for nu, b in zip(minus, cb):
                pair[space.index[(nu, mu) if nu < mu else (mu, nu)]] = a * b
        states.append(pair)
        values = [[sq.expectation(x, vec) for x in ops] for vec in states]
        return space, ops, states, values

    def check(self, i, result):
        space, ops, states, values = result
        index = space.index
        spacing = float(self.state["spacing"][i])
        for x in ops:
            _require(abs(x - x.conj().T).max() <= 1e-12, "X is not Hermitian")
        for a in range(3):
            for b in range(a + 1, 3):
                _require(abs(ops[a] @ ops[b] - ops[b] @ ops[a]).max() <= 1e-12, "X components do not commute")
        one_idx = np.array([index[(mu,)] for mu in range(space.nmodes)])
        for c, vec in zip(self.state["one"][i], states):
            grid = c.reshape(self.SHAPE + (3,))
            for axis in range(3):
                stencil = 1j * (np.roll(grid, -1, axis) - np.roll(grid, 1, axis)) / (2.0 * spacing)
                via_fock = (ops[axis] @ vec)[one_idx].reshape(-1, 3)
                _require(np.max(np.abs(via_fock - stencil.reshape(-1, 3))) <= 1e-12,
                         "X differs from the lattice gradient on a one-photon state")
        for row in values:
            for value in row:
                _require(cmath.isfinite(value) and abs(value.imag) <= 1e-12 * max(1.0, abs(value)),
                         f"<X> not real and finite: {value}")


# --- point_calls ------------------------------------------------------------

class PointCalls(Workload):
    """Single-point public calls for one drawn point per op."""

    KINDS = ("VECTOR", "SPINOR_PLUS", "SPINOR_MINUS")

    name = "point_calls"
    rate = 550.0
    min_ops = 16
    setup_modules = ("photonguide",)

    def setup(self, seed, n, workdir):
        from photonguide import momentum_basis as mb
        from photonguide import position_operator as po
        from photonguide import waveguide_kinematics as wk

        rng = np.random.default_rng([seed, 3])
        extreme = np.arange(n) % EXTREME_EVERY == EXTREME_EVERY - 1
        g = _guides(rng, n)
        self.state = {
            "mb": mb, "po": po, "wk": wk,
            "scheme": po.Scheme(1e-4),
            "kinds": [po.PositionKind[self.KINDS[i % 3]] for i in range(n)],
            "k": _offseam_k(rng, n),
            "x0": rng.uniform(-2.0, 2.0, (n, 3)),
            "lam": [(-1, 0, 1)[(i // 3) % 3] for i in range(n)],
            "b1": g["b1"].tolist(), "b2": g["b2"].tolist(),
            "r": g["r"].tolist(), "s": g["s"].tolist(), "m": g["m"],
            "shrink": rng.uniform(0.3, 0.9, n).tolist(),
            "k3": (_k3_over_m(rng, n, extreme) * g["m"]).tolist(),
            "azimuth": rng.uniform(0.0, 2.0 * math.pi, n).tolist(),
            "mp": None,
        }

    def op(self, i):
        st = self.state
        mb, po, wk = st["mb"], st["po"], st["wk"]
        k = st["k"][i]
        triad = mb.rotated_triad(k)
        eps = mb.polarization_triad(k)
        residual = po.eigenvalue_residual(st["x0"][i], st["lam"][i], [k], st["scheme"], kind=st["kinds"][i])
        b1, b2, r, s, f = st["b1"][i], st["b2"][i], st["r"][i], st["s"][i], st["shrink"][i]
        md = wk.mode(wk.WaveguideSpec(b1, b2), r, s)
        dec = wk.decompose(md, st["k3"][i], st["azimuth"][i])
        vel = wk.velocities(md, dec.k_L.t)
        verdict = wk.tunneling_predicate(md, st["k3"][i], wk.mode(wk.WaveguideSpec(f * b1, f * b2), r, s))
        return triad, eps, residual, dec, vel, verdict

    def _near_minus_seam(self, i) -> bool:
        k = self.state["k"][i]
        return self.state["kinds"][i].name == "SPINOR_MINUS" and k[2] > 0 and math.hypot(k[0], k[1]) < SEAM_KNOWN_WITHIN

    def classify_error(self, i, exc):
        k3_over_m = self.state["k3"][i] / self.state["m"][i]
        if isinstance(exc, ValueError) and "math domain error" in str(exc) and k3_over_m >= DOMAIN_ERROR_KNOWN_FROM:
            return TUNNELING_DOMAIN
        return None

    def check(self, i, result):
        st = self.state
        triad, eps, residual, dec, vel, verdict = result
        eye = np.eye(3)
        _require(np.max(np.abs(triad @ triad.T - eye)) <= 1e-12, "triad not orthonormal")
        _require(np.linalg.norm(np.cross(triad[0], triad[1]) - triad[2]) <= 1e-12, "triad not right-handed")
        _require(np.allclose(triad[2], st["k"][i] / np.linalg.norm(st["k"][i]), rtol=0, atol=1e-12), "e3 != k/|k|")
        _require(np.max(np.abs(eps.conj() @ eps.T - eye)) <= 1e-12, "polarization triad not orthonormal")
        _require(math.isfinite(residual) and residual <= 1e-6, f"eigenvalue residual {residual:.3g} > 1e-6",
                 SPINOR_MINUS_SEAM if self._near_minus_seam(i) else None)

        k3, m, az = st["k3"][i], float(st["m"][i]), st["azimuth"][i]
        energy = math.hypot(k3, m)
        mu = dec.k_mu
        _require(_close(mu.t, energy, 1e-12) and _close(dec.k_L.z, k3, 1e-12), "decompose: wrong (E, p)")
        _require(abs(mu.x - m * math.cos(az)) <= 1e-12 * m and abs(mu.y - m * math.sin(az)) <= 1e-12 * m,
                 "decompose: wrong k_T")
        vg, vp, lambda_g = vel
        _require(_close(vg, k3 / energy, 1e-9) and _close(vg * vp, 1.0, 1e-12), "velocities: wrong v_g or v_g v_p")
        _require(_close(lambda_g, 2.0 * math.pi / k3, 1e-9), "velocities: wrong guide wavelength")

        if st["mp"] is None:
            st["mp"] = _mp()
        mp = st["mp"]
        b1, b2, r, s, f = st["b1"][i], st["b2"][i], st["r"][i], st["s"][i], st["shrink"][i]
        m_mp = _mp_mass(mp, b1, b2, r, s)
        wc_new = _mp_mass(mp, f * b1, f * b2, r, s)
        _require(not verdict.propagates and _close(verdict.new_cutoff, float(wc_new), 1e-12),
                 "tunneling: a narrower guide must not always propagate")
        chi = verdict.critical_rapidity
        reference = _chi_star_reference(mp, k3, m_mp, wc_new)
        _require(chi is not None and math.isfinite(chi) and abs(chi - reference) <= 1e-9,
                 f"chi* {chi!r} vs closed form {reference!r}",
                 CHI_STAR_PRECISION if k3 / m >= CHI_STAR_KNOWN_FROM else None)


# --- cli_cold ---------------------------------------------------------------

CLI_KINDS = ("modes", "modes_si", "dispersion", "decompose", "boost", "tunneling")


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_csv(text: str) -> list[dict[str, str]]:
    lines = text.splitlines()
    _require(len(lines) >= 2, f"expected a CSV header and records, got {text!r}")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        _require(len(cells) == len(header), f"ragged CSV line {line!r}")
        rows.append(dict(zip(header, cells)))
    return rows


def _floats(row: dict[str, str], skip=("verdict",)) -> dict[str, float]:
    out = {}
    for key, cell in row.items():
        if key in skip:
            continue
        value = float(cell)
        _require(math.isfinite(value), f"non-finite {key}={cell}")
        out[key] = value
    return out


@dataclass
class ChildResult:
    code: int
    stdout: str
    stderr: str
    report: dict


class CliCold(Workload):
    """One ``python -m photonguide <sub> ...`` child per op, cycling through
    the subcommands."""

    name = "cli_cold"
    rate = 1.6
    min_ops = len(CLI_KINDS)
    setup_modules = ("photonguide.cli",)
    in_process = False

    def __init__(self):
        super().__init__()
        self.child_env: dict[str, str] = {}
        self.child_flags: list[str] = []

    def setup(self, seed, n, workdir):
        rng = np.random.default_rng([seed, 4])
        extreme = rng.random(n) < 1.0 / EXTREME_EVERY
        g = _guides(rng, n)
        k3 = _k3_over_m(rng, n, extreme) * g["m"]
        si_dims = np.sort(rng.uniform(0.005, 0.05, (n, 2)), axis=1)
        u = rng.uniform(0.0, 1.0, (n, 4))
        steps = rng.integers(5, 60, n)
        max_rs = rng.integers(1, 5, (n, 2))
        specs = []
        for i in range(n):
            kind = CLI_KINDS[i % len(CLI_KINDS)]
            b1, b2, r, s, m = float(g["b1"][i]), float(g["b2"][i]), int(g["r"][i]), int(g["s"][i]), float(g["m"][i])
            guide = ["--b1", _fmt(b1), "--b2", _fmt(b2)]
            spec = {"kind": kind, "b1": b1, "b2": b2, "r": r, "s": s, "m": m, "k3": float(k3[i])}
            if kind in ("modes", "modes_si"):
                if kind == "modes_si":
                    spec["b1"], spec["b2"] = float(si_dims[i, 1]), float(si_dims[i, 0])
                    guide = ["--b1", _fmt(spec["b1"]), "--b2", _fmt(spec["b2"]), "--si"]
                spec["max_r"], spec["max_s"] = int(max_rs[i, 0]), int(max_rs[i, 1]) - 1
                argv = ["modes", *guide, "--max-r", str(spec["max_r"]), "--max-s", str(spec["max_s"])]
            elif kind == "dispersion":
                lo = m * (1.01 + 0.5 * u[i, 0])
                hi = math.hypot(spec["k3"], m) if extreme[i] else lo * (1.1 + 3.0 * u[i, 1])
                spec.update(lo=lo, hi=max(hi, lo * 1.1), steps=int(steps[i]))
                argv = ["dispersion", *guide, "--r", str(r), "--s", str(s), "--omega-min", _fmt(lo),
                        "--omega-max", _fmt(spec["hi"]), "--steps", str(spec["steps"])]
            elif kind == "decompose":
                spec["azimuth"] = 2.0 * math.pi * u[i, 2]
                argv = ["decompose", *guide, "--r", str(r), "--s", str(s), "--k3", _fmt(spec["k3"]),
                        "--azimuth", _fmt(spec["azimuth"])]
            elif kind == "boost":
                az, chi = 2.0 * math.pi * u[i, 2], 4.0 * u[i, 3] - 2.0
                spec.update(t=math.hypot(spec["k3"], m), x=m * math.cos(az), y=m * math.sin(az), z=spec["k3"], chi=chi)
                argv = ["boost", "--t", _fmt(spec["t"]), "--x", _fmt(spec["x"]), "--y", _fmt(spec["y"]),
                        "--z", _fmt(spec["z"]), "--chi", _fmt(chi)]
            else:
                spec["f"] = 0.3 + 0.6 * u[i, 0]
                argv = ["tunneling", *guide, "--r", str(r), "--s", str(s), "--k3", _fmt(spec["k3"]),
                        "--new-b1", _fmt(spec["f"] * b1), "--new-b2", _fmt(spec["f"] * b2),
                        "--new-r", str(r), "--new-s", str(s)]
            spec["argv"] = argv
            specs.append(spec)
        self.state = {"specs": specs, "mp": None}

    def op(self, i):
        read_fd, write_fd = os.pipe()
        env = dict(self.child_env, PERFBENCH_REPORT_FD=str(write_fd))
        try:
            proc = subprocess.Popen(
                [sys.executable, *self.child_flags, "-m", "photonguide", *self.state["specs"][i]["argv"]],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=env, pass_fds=(write_fd,),
            )
        finally:
            os.close(write_fd)
        with os.fdopen(read_fd, "rb") as report_pipe:
            stdout, stderr = proc.communicate()
            report = report_pipe.read()
        return ChildResult(proc.returncode, stdout.decode(), stderr.decode(), json.loads(report or b"{}"))

    def check(self, i, res: ChildResult):
        spec = self.state["specs"][i]
        stderr = "\n".join(line for line in res.stderr.splitlines() if not line.startswith("import time:"))
        if res.code != 0 or stderr:
            known = (spec["kind"] == "tunneling" and res.code == 1 and "math domain error" in stderr
                     and spec["k3"] / spec["m"] >= DOMAIN_ERROR_KNOWN_FROM)
            raise OpFailure(f"exit {res.code}, stderr {stderr[-200:]!r}", TUNNELING_DOMAIN if known else None)
        rows = [_floats(row) if spec["kind"] != "tunneling" else row for row in _parse_csv(res.stdout)]
        getattr(self, "_check_" + spec["kind"])(spec, rows)

    def _check_modes(self, spec, rows, si=False):
        expected = sorted((math.hypot(r * math.pi / spec["b1"], s * math.pi / spec["b2"]), r, s)
                          for r in range(1, spec["max_r"] + 1) for s in range(spec["max_s"] + 1))
        _require(len(rows) == len(expected), "modes: wrong row count")
        for row, (wc, r, s) in zip(rows, expected):
            _require((row["r"], row["s"]) == (r, s), "modes: rows not sorted by cutoff")
            if si:
                _require(_close(row["fc_hz"], wc * 299_792_458.0 / (2 * math.pi), 1e-12), "modes --si: wrong fc")
                _require(_close(row["lambda_com_m"], 1.0 / wc, 1e-12), "modes --si: wrong Compton wavelength")
            else:
                _require(_close(row["omega_c"], wc, 1e-12) and row["m"] == row["omega_c"], "modes: wrong cutoff")
                _require(_close(row["lambda_com"], 1.0 / wc, 1e-12), "modes: wrong Compton wavelength")

    def _check_modes_si(self, spec, rows):
        self._check_modes(spec, rows, si=True)

    def _check_dispersion(self, spec, rows):
        _require(len(rows) == spec["steps"], "dispersion: wrong row count")
        m = spec["m"]
        for j, row in enumerate(rows):
            w = spec["lo"] + (spec["hi"] - spec["lo"]) * j / (spec["steps"] - 1)
            k3 = math.sqrt((w - m) * (w + m))
            _require(_close(row["omega"], w, 1e-12) and _close(row["E"], w, 1e-12), "dispersion: wrong omega/E")
            _require(_close(row["k3"], k3, 1e-9) and row["p"] == row["k3"], "dispersion: wrong k3")
            _require(_close(row["vg"], k3 / w, 1e-9) and _close(row["vp"], w / k3, 1e-9), "dispersion: wrong velocities")
            _require(_close(row["lambda_g"], 2 * math.pi / k3, 1e-9), "dispersion: wrong guide wavelength")
            _require(row["kg_residual"] <= 1e-12 * w * w, "dispersion: mass-shell residual too large")

    def _check_decompose(self, spec, rows):
        _require(len(rows) == 1, "decompose: expected one record")
        row, m, k3, az = rows[0], spec["m"], spec["k3"], spec["azimuth"]
        energy = math.hypot(k3, m)
        _require(_close(row["omega"], energy, 1e-12) and row["E"] == row["omega"], "decompose: wrong E")
        _require(_close(row["kz"], k3, 1e-12) and row["p"] == row["kz"], "decompose: wrong p")
        for key, ref in (("kx", m * math.cos(az)), ("ky", m * math.sin(az))):
            _require(abs(row[key] - ref) <= 1e-12 * m and row["kT" + key[1]] == row[key], f"decompose: wrong {key}")
        _require(row["null_residual"] <= 1e-12 * energy * energy, "decompose: k not null")
        _require(row["ortho_residual"] <= 1e-12 * energy * m and row["eta_norm_residual"] <= 1e-12,
                 "decompose: split not orthogonal")

    def _check_boost(self, spec, rows):
        _require(len(rows) == 1, "boost: expected one record")
        row, ch, sh = rows[0], math.cosh(spec["chi"]), math.sinh(spec["chi"])
        scale = (abs(spec["t"]) + abs(spec["z"])) * ch
        _require(abs(row["t"] - (spec["t"] * ch - spec["z"] * sh)) <= 1e-12 * scale, "boost: wrong t")
        _require(abs(row["z"] - (spec["z"] * ch - spec["t"] * sh)) <= 1e-12 * scale, "boost: wrong z")
        _require(row["x"] == spec["x"] and row["y"] == spec["y"], "boost: transverse part changed")
        _require(abs(row["norm2_after"] - row["norm2_before"]) <= 1e-12 * scale * scale, "boost: norm not invariant")

    def _check_tunneling(self, spec, rows):
        _require(len(rows) == 1, "tunneling: expected one record")
        row = rows[0]
        values = _floats(row, skip=("verdict", "chi_star"))
        if self.state["mp"] is None:
            self.state["mp"] = _mp()
        mp = self.state["mp"]
        m = _mp_mass(mp, spec["b1"], spec["b2"], spec["r"], spec["s"])
        wc_new = _mp_mass(mp, spec["f"] * spec["b1"], spec["f"] * spec["b2"], spec["r"], spec["s"])
        _require(_close(values["m_old"], float(m), 1e-12) and _close(values["omega_c_new"], float(wc_new), 1e-12),
                 "tunneling: wrong masses")
        _require(row["verdict"] == "EvanescentInSomeFrame", "tunneling: a narrower guide must not always propagate")
        chi = float(row["chi_star"])
        reference = _chi_star_reference(mp, spec["k3"], m, wc_new)
        _require(math.isfinite(chi) and abs(chi - reference) <= 1e-9, f"chi* {chi!r} vs closed form {reference!r}",
                 CHI_STAR_PRECISION if spec["k3"] / spec["m"] >= CHI_STAR_KNOWN_FROM else None)


WORKLOADS = {w.name: w for w in (VerifyAll(), FockBuild(), PointCalls(), CliCold())}


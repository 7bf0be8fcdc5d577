"""Seeded verification suites: every numerical claim the library makes,
re-checked against independent evaluation at desk scale.

Each suite returns a list of :class:`CheckResult`; a check passes when its
residual is below tolerance (or above it, for the deliberate negative
controls whose job is to prove the suite can detect a broken operator).
All sampling is driven by an explicit seed, so identical invocations are
byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dirac_like as dl
from . import momentum_basis as mb
from . import waveguide_kinematics as wk
from .position_operator import (
    PositionKind,
    Scheme,
    apply_position,
    commutator_residual,
    connection_identity_residual,
    eigenvalue_residual,
    localized,
    singular_distance,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float
    direction: str = "below"  # "above" for detection checks that must exceed tol

    @property
    def passed(self) -> bool:
        # A non-finite residual (nan from a broken stencil, say) never passes.
        held = self.residual > self.tol if self.direction == "above" else self.residual <= self.tol
        return held and math.isfinite(self.residual)


def _sample_k(rng: np.random.Generator, n: int, min_norm=1e-6) -> np.ndarray:
    """(n, 3) points uniform in [-5, 5)^3 with |k| > min_norm.

    Each round draws only the rows still missing, so no row past the n-th
    accepted one is drawn: the rows, and the generator state after them, are
    those of drawing one row at a time until n have passed."""
    blocks, have = [np.empty((0, 3))], 0
    while have < n:
        rows = rng.uniform(-5.0, 5.0, (n - have, 3))
        rows = rows[mb.omega(rows) > min_norm]
        blocks.append(rows)
        have += len(rows)
    return np.concatenate(blocks)


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """rng.uniform(lo, hi) as a float, from one rng.random() draw.  numpy's
    uniform is lo + (hi - lo) * next_double, so the value and the generator
    state after it are those of rng.uniform, at a third of its call cost."""
    return lo + (hi - lo) * rng.random()


def _sample_offseam_k(rng: np.random.Generator, min_dist=0.5) -> np.ndarray:
    """A point of the ball |k| <= 3 at least min_dist from the origin and the seam."""
    while True:
        k = rng.uniform(-3.0, 3.0, 3)
        if singular_distance(k) >= min_dist and np.linalg.norm(k) <= 3.0:
            return k


def _sample_mode(rng: np.random.Generator) -> wk.WaveguideMode:
    """A random mode (r in 1..3, s in 0..3) of a guide with sides in [0.5, 3)."""
    b2, b1 = sorted((_uniform(rng, 0.5, 3.0), _uniform(rng, 0.5, 3.0)))
    return wk.mode(wk.WaveguideSpec(b1, b2), int(rng.integers(1, 4)), int(rng.integers(0, 4)))


def _worst(residuals) -> float:
    """The largest residual, or 0.0 when there are none."""
    return float(np.max(residuals, initial=0.0))


def _order_dev(coarse: float, fine: float) -> float:
    """|log2(coarse / fine) - 2|, the distance of the decay order seen at h
    and h/2 from 2: 0.0 if fine is exactly 0, nan if either is; never raises."""
    if math.isnan(coarse) or math.isnan(fine):
        return math.nan
    if fine == 0.0:
        return 0.0
    ratio = coarse / fine
    return abs(math.log2(ratio) - 2.0) if ratio > 0.0 else math.inf


# --- basis ------------------------------------------------------------------

def basis_suite(seed: int = 42, samples: int = 1000) -> list[CheckResult]:
    rng = np.random.default_rng([seed, 0])
    eye = np.eye(3)
    ks = _sample_k(rng, samples)
    triads = mb.rotated_triad(ks)
    handed = _worst(np.linalg.norm(np.cross(triads[:, 0], triads[:, 1]) - triads[:, 2], axis=-1))
    eps = mb.polarization_triad(ks)
    gram = eps.conj() @ eps.swapaxes(-1, -2)
    ortho = _worst(np.abs(gram - eye))
    completeness = np.einsum("nli,nlj->nij", eps, eps.conj())
    comp = _worst(np.abs(completeness - eye))
    khat = ks / mb.omega(ks)[:, None]
    curl = 0.0
    for lam in (-1, +1):
        e = eps[:, lam + 1]
        curl = max(curl, _worst(np.linalg.norm(np.cross(khat, e) + 1j * lam * e, axis=-1)))

    # Near-axis triads, both signs of k3, down to 1e-8 off axis.
    near = np.array([[d, 0.7 * d, sign * 1.0] for sign in (+1.0, -1.0) for d in (1e-8, 1e-6, 1e-4)])
    triads = mb.rotated_triad(near)
    near_axis = max(
        _worst(np.abs(triads @ triads.swapaxes(-1, -2) - eye)),
        _worst(np.linalg.norm(np.cross(triads[:, 0], triads[:, 1]) - triads[:, 2], axis=-1)),
    )

    # Measured Lipschitz bound for eps(k, lam) at seam distance >= 0.1.
    offseam, steps = [], []
    for _ in range(100):
        offseam.append(_sample_offseam_k(rng, min_dist=0.1))
        step = rng.standard_normal(3)
        step *= 1e-5 / np.linalg.norm(step)
        steps.append(step)
    offseam, steps = np.array(offseam), np.array(steps)
    diff = mb.polarization_triad(offseam + steps) - mb.polarization_triad(offseam)
    lipschitz = _worst(np.linalg.norm(diff, axis=-1) / 1e-5)

    return [
        CheckResult("basis.orthonormality", ortho, 1e-12),
        CheckResult("basis.completeness", comp, 1e-12),
        CheckResult("basis.curl_eigenvector", curl, 1e-12),
        CheckResult("basis.triad_right_handed", handed, 1e-12),
        CheckResult("basis.triad_near_axis", near_axis, 1e-12),
        CheckResult("basis.lipschitz_bound_reported", lipschitz, 1e3),
    ]


# --- position operator ------------------------------------------------------

def position_suite(seed: int = 42, h: float = 1e-4, include_weight_term: bool = True) -> list[CheckResult]:
    rng = np.random.default_rng([seed, 1])

    # Eigenvalue relation on 50 (x0, lam, k) triples, all helicities, at h and
    # h/2.  Triple t has lam = HELICITIES[t % 3], so each helicity is one call.
    draws = [(rng.uniform(-2.0, 2.0, 3), _sample_offseam_k(rng)) for _ in range(50)]
    x0s, eigen_ks = (np.array(column) for column in zip(*draws))
    res_h, res_h2 = (
        _worst([eigenvalue_residual(x0s[r::3], lam, eigen_ks[r::3], Scheme(step),
                                    include_weight_term=include_weight_term)
                for r, lam in enumerate(mb.HELICITIES)])
        for step in (h, h / 2)
    )
    results = [
        CheckResult("position.eigenvalue_residual", res_h, 1e-6),
        CheckResult("position.eigenvalue_order_dev", _order_dev(res_h, res_h2), 0.2),
    ]

    # Commuting components: every pair, every variant.  The residual is
    # taken at order 4, whose truncation error stays far below the tolerance
    # wherever the sampler puts k; the order-2 pair at hc and hc/2 shows the
    # O(h^2) decay of the stencil.
    hc = 1e-3
    x0 = np.array([1.0, -2.0, 0.5])
    ks = np.array([_sample_offseam_k(rng) for _ in range(3)])
    for kind in PositionKind:
        phi = localized(kind, x0, +1)

        def comm(scheme):
            return _worst(commutator_residual(kind, phi, ks, scheme))

        results.append(CheckResult(f"position.commutator.{kind.value}", comm(Scheme(hc, order=4)), 1e-5))
        if kind is not PositionKind.NAIVE:
            # The naive variant's commutator is pure rounding noise (flat
            # connection), so a decay order is not measurable for it.
            order_dev = _order_dev(comm(Scheme(hc)), comm(Scheme(hc / 2)))
            results.append(CheckResult(f"position.commutator_order_dev.{kind.value}", order_dev, 0.4))

    # Connection identity: exact with the full helicity sum, order-one without
    # the longitudinal sector.
    conn_ks = np.concatenate([[[0.0, 0.0, 1.0], [0.3, 0.4, 1.2]], ks])
    conn = _worst([connection_identity_residual(conn_ks, lam, Scheme(1e-4)) for lam in mb.HELICITIES])
    truncated = connection_identity_residual(np.array([0.3, 0.4, 1.2]), +1, Scheme(1e-4), helicities=(-1, +1))
    results.append(CheckResult("position.connection_identity", conn, 1e-10))
    results.append(CheckResult("position.connection_missing_sector_detected", truncated, 1e-3, "above"))

    # Linearity of the stencil operator.
    phi1 = localized(PositionKind.VECTOR, np.array([0.5, 0.2, -0.3]), +1)
    phi2 = localized(PositionKind.VECTOR, np.array([-1.0, 0.4, 0.8]), 0)
    a, b = 0.7 - 0.2j, -1.1 + 0.5j

    def combo(k):
        return a * phi1(k) + b * phi2(k)

    k = ks[0]
    # h-independent identity; a coarse step keeps the eps/h rounding noise
    # of the difference quotients well below the tolerance.
    coarse = Scheme(1e-3)
    lin = np.linalg.norm(
        apply_position(PositionKind.VECTOR, combo, k, coarse)
        - a * apply_position(PositionKind.VECTOR, phi1, k, coarse)
        - b * apply_position(PositionKind.VECTOR, phi2, k, coarse)
    )
    results.append(CheckResult("position.linearity", float(lin), 1e-12))
    return results


# --- second quantization ----------------------------------------------------

def _ladders(space) -> tuple[list, list]:
    """a(mode) and a^dag(mode) for every mode of a second-quantization
    ``FockSpace``, in mode order, as dense arrays: on the small oracle spaces
    sparse overhead would dominate.  Each a^dag(mode) is the conjugate
    transpose of a(mode), so each ladder operator is built once."""
    annihilators = [space.annihilate(m // 3, mb.HELICITIES[m % 3]).toarray() for m in range(space.nmodes)]
    return annihilators, [a.conj().T for a in annihilators]


def fock_suite(seed: int = 42, shape=(3, 3, 3), n_max: int = 2) -> list[CheckResult]:
    # Only this suite needs the Fock layer and scipy, so the others start
    # without them.
    import scipy.sparse as sp

    from . import second_quantization as sq

    rng = np.random.default_rng([seed, 2])
    lattice = sq.MomentumLattice(shape, spacing=1.0)
    space = sq.FockSpace(lattice, n_max=n_max)
    ops = space.position_operators()

    hermiticity = max(float(abs(x - x.conj().T).max()) for x in ops)
    commuting = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            commuting = max(commuting, float(abs(ops[i] @ ops[j] - ops[j] @ ops[i]).max()))
    n_op = space.number_operator()
    number = max(float(abs(x @ n_op - n_op @ x).max()) for x in ops)
    vacuum = max(float(np.linalg.norm(x @ space.vacuum())) for x in ops)

    # X on one-photon states against i times the lattice stencil applied
    # directly to the coefficient function, over 20 random states: the same
    # stencil by two code paths.
    equivalence = 0.0
    for _ in range(20):
        c = rng.standard_normal((lattice.npoints, 3)) + 1j * rng.standard_normal((lattice.npoints, 3))
        vec = space.one_photon_vector(c)
        stencil = 1j * sq.lattice_gradient(lattice, c.reshape(lattice.shape + (3,)))
        for axis in range(3):
            direct = stencil[axis].reshape(lattice.npoints, 3)
            via_fock = (ops[axis] @ vec)[space.offsets[1]:space.offsets[2]].reshape(lattice.npoints, 3)
            equivalence = max(equivalence, float(np.max(np.abs(direct - via_fock))))

    # Additivity of <X> over a two-photon product state in distinct helicity
    # sectors, against the one-photon expectations.
    points = lattice.points
    xa, xb = np.array([0.4, -0.2, 0.9]), np.array([-0.7, 0.3, 0.1])
    ca = np.exp(-1j * points @ xa) / np.sqrt(lattice.npoints)
    cb = np.exp(-1j * points @ xb) / np.sqrt(lattice.npoints)
    coeff_a = np.zeros((lattice.npoints, 3), dtype=complex)
    coeff_b = np.zeros((lattice.npoints, 3), dtype=complex)
    coeff_a[:, 2] = ca  # helicity +1
    coeff_b[:, 0] = cb  # helicity -1
    vec_a = space.one_photon_vector(coeff_a)
    vec_b = space.one_photon_vector(coeff_b)
    pair = np.zeros(space.dim, dtype=complex)
    minus = [space.mode_index(pb, -1) for pb in range(lattice.npoints)]
    for pa in range(lattice.npoints):
        mu = space.mode_index(pa, +1)
        for pb, nu in enumerate(minus):
            pair[space.index[(mu, nu) if mu <= nu else (nu, mu)]] = ca[pa] * cb[pb]
    additivity = 0.0
    for x in ops:
        lhs = sq.expectation(x, pair)
        rhs = sq.expectation(x, vec_a) + sq.expectation(x, vec_b)
        additivity = max(additivity, abs(lhs - rhs))

    # Ladder algebra on a small lattice: [a, a'^dag] = delta below the cap.
    small = sq.FockSpace(sq.MomentumLattice((2, 1, 1), spacing=1.0), n_max=2)
    low = range(small.offsets[small.n_max])
    annihilators, creators = _ladders(small)
    eye, block = np.eye(small.dim), np.ix_(low, low)
    ladder = 0.0
    for m1, a1 in enumerate(annihilators):
        for m2, c2 in enumerate(creators):
            comm = a1 @ c2 - c2 @ a1
            expected = (1.0 if m1 == m2 else 0.0) * eye
            ladder = max(ladder, float(np.abs((comm - expected)[block]).max()))

    # One-body construction against the explicit ladder-product sum.
    line = sq.FockSpace(sq.MomentumLattice((3, 1, 1), spacing=1.0), n_max=2)
    h_mode = 1j * sp.kron(line.lattice.gradient_matrix(0), sp.identity(3))
    direct = line.one_body_operator(h_mode)
    h_dense = np.asarray(h_mode.todense())
    annihilators, creators = _ladders(line)
    explicit = np.zeros((line.dim, line.dim), dtype=complex)
    for nu in range(line.nmodes):
        for mu in range(line.nmodes):
            if h_dense[nu, mu] != 0:
                explicit += h_dense[nu, mu] * (creators[nu] @ annihilators[mu])
    one_body_dev = float(np.abs(direct.toarray() - explicit).max())

    return [
        CheckResult("fock.one_photon_equivalence", equivalence, 1e-12),
        CheckResult("fock.position_hermitian", hermiticity, 1e-12),
        CheckResult("fock.components_commute", commuting, 1e-12),
        CheckResult("fock.number_conserved", number, 1e-12),
        CheckResult("fock.two_photon_additivity", additivity, 1e-12),
        CheckResult("fock.vacuum_annihilated", vacuum, 1e-12),
        CheckResult("fock.ladder_commutator", ladder, 1e-12),
        CheckResult("fock.one_body_vs_ladder", one_body_dev, 1e-13),
    ]


# --- first-order wave equation ----------------------------------------------

def dirac_suite(seed: int = 42, samples: int = 1000) -> list[CheckResult]:
    rng = np.random.default_rng([seed, 3])
    tau = dl.spin_one_matrices()

    algebra = float(np.abs(dl.BETA0 @ dl.BETA0 - np.eye(6)).max())
    for l in range(3):
        algebra = max(algebra, float(np.abs(tau[l] - tau[l].conj().T).max()))
    levi = tau * 1j  # recover eps_{lmn}
    for i in range(3):
        for j in range(3):
            rhs = sum(1j * levi[i, j, kk].real * tau[kk] for kk in range(3))
            algebra = max(algebra, float(np.abs(tau[i] @ tau[j] - tau[j] @ tau[i] - rhs).max()))

    ks = _sample_k(rng, samples)
    w = mb.omega(ks)
    tk = np.tensordot(ks / w[:, None], tau, axes=1)
    on_shell = max(_worst(dl.on_shell_residual(ks, lam)) for lam in (-1, +1))
    eps = mb.polarization_triad(ks)
    helicity_eigen = 0.0
    for row, lam in enumerate(mb.HELICITIES):
        e = eps[:, row]
        helicity_eigen = max(helicity_eigen, _worst(np.linalg.norm((tk @ e[:, :, None])[:, :, 0] - lam * e, axis=-1)))
    longitudinal = _worst(np.abs(dl.on_shell_residual(ks, 0) - w) / w)

    # The 200 guided draws stay sequential, in generator order; the spinor
    # residuals are then taken on the stacked momenta, one call each.
    kg = transversality = 0.0
    energies, k_null, k_bad, masses = [], [], [], []
    for _ in range(200):
        md = _sample_mode(rng)
        k3 = _uniform(rng, 0.0, 5.0)
        azimuth = _uniform(rng, 0.0, 2.0 * math.pi)
        shell, null_chain = wk.klein_gordon_residual(md, k3, azimuth)
        m = md.mass
        kg = max(kg, shell / m**2, null_chain / m**2)
        k_mu, k_L, _, eta = wk.decompose(md, k3, azimuth)
        transversality = max(transversality, abs(eta.mdot(k_L)))
        energies.append(k_mu.t)
        k_null.append(k_mu[1:])
        # Off-shell detection: perturb the apparent mass by 1e-3.
        m_bad = (1.0 + 1e-3) * m
        k_bad.append((k_L.x + m_bad * eta.x, k_L.y + m_bad * eta.y, k_L.z + m_bad * eta.z))
        masses.append(m)
    energies, k_null, k_bad = np.array(energies), np.array(k_null), np.array(k_bad)
    guided = max(_worst(dl.waveguide_dirac_residual(energies, k_null, lam)) for lam in (-1, +1))
    detect = float(np.min(dl.waveguide_dirac_residual(energies, k_bad, +1) / np.array(masses)))

    return [
        CheckResult("dirac.matrix_algebra", algebra, 1e-15),
        CheckResult("dirac.on_shell_transverse", on_shell, 1e-12),
        CheckResult("dirac.longitudinal_residual_is_omega", longitudinal, 1e-12),
        CheckResult("dirac.helicity_eigenvectors", helicity_eigen, 1e-12),
        CheckResult("dirac.guided_on_shell", guided, 1e-12),
        CheckResult("dirac.mass_shell_identities", kg, 1e-12),
        CheckResult("dirac.eta_orthogonality", transversality, 1e-12),
        CheckResult("dirac.off_shell_detected", detect, 1e-4, "above"),
    ]


# --- waveguide kinematics ---------------------------------------------------

# The rapidity grid of the boost-minimum check, np.linspace(-10, 10, 1_000_001),
# is evaluated in blocks of this many points so that no full-grid temporary
# is ever allocated.
_CHI_START, _CHI_STOP, _CHI_POINTS = -10.0, 10.0, 1_000_001
_CHI_BLOCK = 1 << 16


def _boost_grid_minimum(energy: float, p: float) -> tuple[int, float, float, float]:
    """First minimum of energy cosh(chi) - p sinh(chi) over the rapidity grid:
    (index, minimum, chi there, grid step).

    Each block forms its points as np.linspace does (i * step + start, the
    last point set to stop), and a later block wins only with a strictly
    smaller value, argmin's first-occurrence rule; so all four values are
    bitwise those of the one-piece grid.  The blocks are evaluated into four
    buffers allocated once, by the same ufuncs in the same order as the
    expression energy * cosh(chi) - p * sinh(chi)."""
    step = (_CHI_STOP - _CHI_START) / (_CHI_POINTS - 1)
    best = (-1, math.inf, math.nan)
    index = np.arange(_CHI_BLOCK, dtype=float)
    chi_buf, boosted_buf, sinh_buf = (np.empty(_CHI_BLOCK) for _ in range(3))
    for lo in range(0, _CHI_POINTS, _CHI_BLOCK):
        n = min(_CHI_BLOCK, _CHI_POINTS - lo)
        chi, boosted, sinh = chi_buf[:n], boosted_buf[:n], sinh_buf[:n]
        np.multiply(index[:n], step, out=chi)
        chi += _CHI_START
        index += _CHI_BLOCK  # whole numbers below 2**53: exact
        if lo == 0:
            grid_step = float(chi[1] - chi[0])
        if lo + n == _CHI_POINTS:
            chi[-1] = _CHI_STOP
        np.cosh(chi, out=boosted)
        boosted *= energy
        np.sinh(chi, out=sinh)
        sinh *= p
        boosted -= sinh
        i = int(np.argmin(boosted))
        if boosted[i] < best[1]:
            best = (lo + i, float(boosted[i]), float(chi[i]))
    return (*best, grid_step)


def kinematics_suite(seed: int = 42, samples: int = 1000) -> list[CheckResult]:
    rng = np.random.default_rng([seed, 4])
    debroglie = decomposition = closure = pair_mass = energy_vg = wavelength = 0.0
    for _ in range(samples):
        md = _sample_mode(rng)
        m = md.mass
        w = m * (1.0 + _uniform(rng, 1e-3, 3.0))
        vg, vp, lambda_g = wk.velocities(md, w)
        k3 = wk.axial_wavenumber(md, w).k3
        energy, p = wk.dispersion(md, k3)
        debroglie = max(
            debroglie,
            abs(vg * vp - 1.0),
            abs(energy * energy - p * p - m * m) / (m * m),
            abs(p - 2.0 * math.pi / lambda_g) / max(p, m),
        )
        energy_vg = max(energy_vg, abs(energy - m / math.sqrt(1.0 - vg * vg)) / energy)
        wavelength = max(wavelength, abs(lambda_g - (2.0 * math.pi / w) / math.sqrt(1.0 - (m / w) ** 2)) / lambda_g)

        azimuth = _uniform(rng, 0.0, 2.0 * math.pi)
        dec = wk.decompose(md, k3, azimuth)
        decomposition = max(
            decomposition,
            abs(dec.k_L.mdot(dec.k_T)) / (m * m),
            abs(dec.eta.mdot(dec.eta) + 1.0),
            abs(dec.k_mu.mdot(dec.k_mu)) / (energy * energy),
        )
        mu, k_L, k_T = dec.k_mu, dec.k_L, dec.k_T
        closure = max(closure, abs(mu.t - k_L.t - k_T.t), abs(mu.x - k_L.x - k_T.x),
                      abs(mu.y - k_L.y - k_T.y), abs(mu.z - k_L.z - k_T.z))
        w1, w2 = wk.plane_wave_pair(md, k3, azimuth)
        total = w1 + w2
        pair_mass = max(
            pair_mass,
            abs(w1.mdot(w1)) / (energy * energy),
            abs(w2.mdot(w2)) / (energy * energy),
            abs(total.mdot(total) - 4.0 * m * m) / (4.0 * m * m),
        )

    # Boost minimum: fundamental mode with m = 1, k3 = sqrt(3).
    md = wk.mode(wk.WaveguideSpec(math.pi, math.pi / 2), 1, 0)
    k3 = math.sqrt(3.0)
    energy, p = wk.dispersion(md, k3)
    _, boosted_min, chi_min, grid_step = _boost_grid_minimum(energy, p)
    boost_min = abs(boosted_min - md.mass)
    minimizer_dev = abs(chi_min - wk.rest_frame_rapidity(md, k3))

    invariance = 0.0
    for _ in range(100):
        md_i = _sample_mode(rng)
        dec = wk.decompose(md_i, _uniform(rng, 0.0, 5.0), _uniform(rng, 0.0, 2 * math.pi))
        before = dec.k_L.norm2()
        after = wk.boost(dec.k_L, _uniform(rng, -2.0, 2.0)).norm2()
        invariance = max(invariance, abs(after - before) / abs(before))

    # SI cross-check against the half-wavelength formula for the fundamental.
    b1_m, b2_m = 0.02286, 0.01016
    fc = wk.cutoff_frequency_hz(b1_m, b2_m, 1, 0)
    si_formula = abs(fc - wk.C_LIGHT / (2.0 * b1_m)) / fc
    si_reference = abs(fc - 6.5566e9) / 6.5566e9

    # Cutoff rises strictly as either transverse dimension shrinks.
    margin = math.inf
    for _ in range(100):
        b2, b1 = sorted((_uniform(rng, 0.5, 3.0), _uniform(rng, 0.5, 3.0)))
        b2 *= 0.8  # keep 0.9 * b1 > b2 so shrinking never reorders the dimensions
        md_i = wk.mode(wk.WaveguideSpec(b1, b2), int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        shrunk1 = wk.mode(wk.WaveguideSpec(0.9 * b1, b2), md_i.r, md_i.s)
        shrunk2 = wk.mode(wk.WaveguideSpec(b1, 0.9 * b2), md_i.r, md_i.s)
        margin = min(margin, shrunk1.cutoff - md_i.cutoff, shrunk2.cutoff - md_i.cutoff)

    vg_cutoff, _, _ = wk.velocities(md, md.cutoff * (1.0 + 1e-9))

    # Tunneling predicate: the critical rapidity is the closed form, and
    # boosting k_L by it brings the energy down onto the new cutoff, at
    # k3 = sqrt(3) (E equals the new cutoff, chi* = 0) and k3 = 3.
    tighter = wk.mode(wk.WaveguideSpec(math.pi / 2, math.pi / 4), 1, 0)  # cutoff 2
    wider = wk.mode(wk.WaveguideSpec(2 * math.pi, math.pi), 1, 0)  # cutoff 0.5
    tunneling_ok = wk.tunneling_predicate(md, k3, md).propagates and wk.tunneling_predicate(md, k3, wider).propagates
    for k3_t in (k3, 3.0):
        verdict = wk.tunneling_predicate(md, k3_t, tighter)
        closed_form = wk.rest_frame_rapidity(md, k3_t) - math.acosh(tighter.cutoff / md.mass)
        tunneling_ok = (
            tunneling_ok
            and not verdict.propagates
            and abs(verdict.critical_rapidity - closed_form) < 1e-9
            and abs(wk.boost(wk.decompose(md, k3_t).k_L, verdict.critical_rapidity).t - tighter.cutoff)
            <= 1e-9 * tighter.cutoff
        )

    return [
        CheckResult("kinematics.de_broglie_relations", debroglie, 1e-12),
        CheckResult("kinematics.energy_from_group_velocity", energy_vg, 1e-12),
        CheckResult("kinematics.guide_wavelength", wavelength, 1e-12),
        CheckResult("kinematics.decomposition_invariants", decomposition, 1e-12),
        CheckResult("kinematics.decomposition_closure", closure, 1e-12),
        CheckResult("kinematics.plane_wave_pair", pair_mass, 1e-12),
        CheckResult("kinematics.boost_minimum", boost_min, 1e-9),
        CheckResult("kinematics.boost_minimizer", minimizer_dev, grid_step),
        CheckResult("kinematics.boost_invariance", invariance, 1e-9),
        CheckResult("kinematics.si_half_wavelength", si_formula, 1e-12),
        CheckResult("kinematics.si_reference_value", si_reference, 1e-4),
        CheckResult("kinematics.cutoff_monotonicity", margin, 0.0, "above"),
        CheckResult("kinematics.group_velocity_vanishes_at_cutoff", vg_cutoff, 1e-4),
        CheckResult("kinematics.tunneling_predicate", 0.0 if tunneling_ok else 1.0, 0.5),
    ]


SUITES = {
    "basis": basis_suite,
    "position": position_suite,
    "fock": fock_suite,
    "dirac": dirac_suite,
    "kinematics": kinematics_suite,
}

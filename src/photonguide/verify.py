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
from array import array
from dataclasses import dataclass

import numpy as np

from . import dirac_like as dl
from . import momentum_basis as mb
from . import waveguide_kinematics as wk
from .errors import InvalidScheme
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


_MIN_NORM = 1e-6


def _sample_k(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 3) points uniform in [-5, 5)^3 with |k| > _MIN_NORM.

    Each round draws only the rows still missing, so no row past the n-th
    accepted one is drawn: the rows, and the generator state after them, are
    those of drawing one row at a time until n have passed."""
    blocks, have = [np.empty((0, 3))], 0
    while have < n:
        rows = rng.uniform(-5.0, 5.0, (n - have, 3))
        rows = rows[mb.omega(rows) > _MIN_NORM]
        blocks.append(rows)
        have += len(rows)
    return np.concatenate(blocks)


def _sample_offseam_k(rng: np.random.Generator, min_dist=0.5) -> np.ndarray:
    """A point of the ball |k| <= 3 at least min_dist from the origin and the seam."""
    while True:
        k = rng.uniform(-3.0, 3.0, 3)
        if singular_distance(k) >= min_dist and mb._norm(k) <= 3.0:
            return k


# Column layouts of the mode-sampling loops, one entry per column of a row, in
# draw order: a pair of floats (lo, hi) is an rng.uniform(lo, hi) column and a
# range an rng.integers(start, stop) column.
_MODE_ROW = ((0.5, 3.0), (0.5, 3.0), range(1, 4), range(0, 4))
_KINEMATICS_ROW = _MODE_ROW + ((1e-3, 3.0), (0.0, 2.0 * math.pi))
_INVARIANCE_ROW = _MODE_ROW + ((0.0, 5.0), (0.0, 2.0 * math.pi), (-2.0, 2.0))
_MONOTONICITY_ROW = ((0.5, 3.0), (0.5, 3.0), range(1, 4), range(1, 4))
_GUIDED_ROW = _MODE_ROW + ((0.0, 5.0), (0.0, 2.0 * math.pi))


def _draw_rows(rng: np.random.Generator, n: int, layout: tuple):
    """n rows of Python floats and ints, drawn as one column of n per layout
    entry in layout order; the columns are read through memoryviews, so no
    list of rows is held."""
    columns = [rng.integers(entry.start, entry.stop, n) if isinstance(entry, range) else rng.uniform(*entry, n)
               for entry in layout]
    return zip(*map(memoryview, columns))


def _guide_mode(side: float, other_side: float, r: int, s: int) -> wk.WaveguideMode:
    """Mode (r, s) of the guide whose sides are the two drawn, longer first."""
    b2, b1 = sorted((side, other_side))
    return wk.mode(wk.WaveguideSpec(b1, b2), r, s)


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

def basis_suite(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng([seed, 0])
    eye = np.eye(3)
    ks = _sample_k(rng, 1000)
    triads = mb.rotated_triad(ks)
    handed = _worst(np.linalg.norm(np.cross(triads[:, 0], triads[:, 1]) - triads[:, 2], axis=-1))
    eps = mb.polarization_triad(ks)
    # The gram's products are three times the gram: four blocks of 250 points.
    ortho = _worst([_worst(np.abs(mb._dot(block.conj()[:, :, None, :], block[:, None, :, :]) - eye))
                    for block in np.split(eps, 4)])
    completeness = np.einsum("nli,nlj->nij", eps, eps.conj())
    comp = _worst(np.abs(completeness - eye))
    khat = ks / mb.omega(ks)[:, None]
    curl = _worst([_worst(np.linalg.norm(np.cross(khat, eps[:, lam + 1]) + 1j * lam * eps[:, lam + 1], axis=-1))
                   for lam in (-1, +1)])

    # Near-axis triads, both signs of k3, down to 1e-8 off axis.
    near = np.array([[d, 0.7 * d, sign * 1.0] for sign in (+1.0, -1.0) for d in (1e-8, 1e-6, 1e-4)])
    triads = mb.rotated_triad(near)
    near_axis = _worst([
        _worst(np.abs(mb._dot(triads[:, :, None, :], triads[:, None, :, :]) - eye)),
        _worst(np.linalg.norm(np.cross(triads[:, 0], triads[:, 1]) - triads[:, 2], axis=-1)),
    ])

    # Measured Lipschitz bound for eps(k, lam) at seam distance >= 0.1.
    offseam, steps = [], []
    for _ in range(100):
        offseam.append(_sample_offseam_k(rng, min_dist=0.1))
        step = rng.standard_normal(3)
        step *= 1e-5 / mb._norm(step)
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

def position_suite(seed: int, h: float, include_weight_term: bool) -> list[CheckResult]:
    if h > 0.0 and h / 2 == 0.0:
        # Only at the smallest subnormal h: name the h given, not the 0.0 Scheme would reject.
        raise InvalidScheme(f"step h={h!r} is too small: the order check's step h/2 underflows to 0.0")
    rng = np.random.default_rng([seed, 1])

    # Eigenvalue relation on 50 (x0, lam, k) triples, all helicities, at h and
    # h/2.  Triple t has lam = HELICITIES[t % 3], so each helicity is one call.
    draws = [(rng.uniform(-2.0, 2.0, 3), _sample_offseam_k(rng)) for _ in range(50)]
    x0s, eigen_ks = (np.array(column) for column in zip(*draws))
    # At a subnormal h numpy's complex quotient by 2h is nan (it multiplies by
    # 1/(2h), which overflows); a nan residual fails, so its warnings go.
    with np.errstate(over="ignore", invalid="ignore"):
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
    # spinor_minus's frame has its seam on +k3, where its nested order-4
    # stencils reach 10 hc + 2 hc + 2 hc: a point that near is drawn again.
    ks = []
    while len(ks) < 3:
        ks += [k for k in [_sample_offseam_k(rng)] if singular_distance(-k) >= 14.0 * hc]
    for kind in PositionKind:
        def comm(scheme):
            return _worst(commutator_residual(x0, +1, ks, scheme, kind))

        results.append(CheckResult(f"position.commutator.{kind.value}", comm(Scheme(hc, order=4)), 1e-5))
        if kind is not PositionKind.NAIVE:
            # The naive variant's commutator is pure rounding noise (flat
            # connection), so a decay order is not measurable for it.
            order_dev = _order_dev(comm(Scheme(hc)), comm(Scheme(hc / 2)))
            results.append(CheckResult(f"position.commutator_order_dev.{kind.value}", order_dev, 0.4))

    # Connection identity, every helicity row: exact with the full helicity
    # sum, order-one in row lam = +1 without the longitudinal sector.
    conn_ks = np.concatenate([[[0.0, 0.0, 1.0], [0.3, 0.4, 1.2]], ks])
    conn = _worst(connection_identity_residual(conn_ks, Scheme(1e-4)))
    truncated = float(connection_identity_residual(np.array([0.3, 0.4, 1.2]), Scheme(1e-4), helicities=(-1, +1))[2])
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


def _x_residuals(ops, n) -> tuple[float, float, float]:
    """The largest |entry| of X - X^dag, of [X_i, X_j] over the pairs of
    components and of [X, N], for the CSR components ops of X and the
    diagonal n of the number operator N.

    Each |.| is taken on the entries of a difference.  [X_i, X_j] is formed
    over two row halves of X, so that no full product is held; a product row
    is summed from that row of the left factor alone, so every entry has the
    bits of the whole product's.  The halves split X_x's entries evenly:
    scipy copies a slice that holds less than half its array."""
    hermitian = _worst([_worst(np.abs((x - x.conj().T).data)) for x in ops])
    dim = ops[0].shape[0]
    mid = int(np.searchsorted(ops[0].indptr, ops[0].nnz // 2))
    halves = [[type(x)((x.data[x.indptr[lo]:x.indptr[hi]], x.indices[x.indptr[lo]:x.indptr[hi]],
                              x.indptr[lo:hi + 1] - x.indptr[lo]), shape=(hi - lo, dim))
               for lo, hi in ((0, mid), (mid, dim))] for x in ops]
    commuting = _worst([_worst(np.abs((xi @ ops[j] - xj @ ops[i]).data))
                        for i, j in ((0, 1), (0, 2), (1, 2)) for xi, xj in zip(halves[i], halves[j])])
    # [X, N] entry by entry: X[r, c] n[c] - n[r] X[r, c].
    number = _worst([_worst(np.abs(x.data * n[x.indices] - np.repeat(n, np.diff(x.indptr)) * x.data)) for x in ops])
    return hermitian, commuting, number


def fock_suite(seed: int) -> list[CheckResult]:
    # Only this suite needs the Fock layer, and with it scipy, so the others
    # start without them.
    from . import second_quantization as sq

    rng = np.random.default_rng([seed, 2])
    lattice = sq.MomentumLattice((3, 3, 3), spacing=1.0)
    space = sq.FockSpace(lattice, n_max=2)
    ops = space.position_operators()

    n = space.number_operator().diagonal()
    hermiticity, commuting, number = _x_residuals(ops, n)
    vacuum = _worst([float(np.linalg.norm(x @ space.vacuum())) for x in ops])

    # X on one-photon states against i times the lattice stencil applied
    # directly to the coefficient function, over 20 random states, each drawn
    # real part then imaginary part: the same stencil by two code paths.
    one = slice(space.offsets[1], space.offsets[2])
    draws = rng.standard_normal((20, 2, lattice.npoints * 3))
    coeffs = np.ascontiguousarray((draws[:, 0] + 1j * draws[:, 1]).T)
    stencil = 1j * sq.lattice_gradient(lattice, coeffs.reshape(lattice.shape + (3, 20)))
    equivalence = _worst([_worst(np.abs(stencil[axis].reshape(coeffs.shape) - x[one, one] @ coeffs))
                          for axis, x in enumerate(ops)])

    # Additivity of <X> over a two-photon product state in distinct helicity
    # sectors, against the one-photon expectations.
    points = lattice.points
    xa, xb = np.array([0.4, -0.2, 0.9]), np.array([-0.7, 0.3, 0.1])
    ca = np.exp(-1j * mb._dot(points, xa)) / np.sqrt(lattice.npoints)
    cb = np.exp(-1j * mb._dot(points, xb)) / np.sqrt(lattice.npoints)
    coeff_a = np.zeros((lattice.npoints, 3), dtype=complex)
    coeff_b = np.zeros((lattice.npoints, 3), dtype=complex)
    coeff_a[:, 2] = ca  # helicity +1
    coeff_b[:, 0] = cb  # helicity -1
    vec_a = space.one_photon_vector(coeff_a)
    vec_b = space.one_photon_vector(coeff_b)
    # ca[pa] cb[pb] at the state (mode(pa, +1), mode(pb, -1)), each product
    # rounded as the scalar complex multiply rounds it: numpy's array multiply
    # may fuse the products of the parts.
    amplitude = np.empty((lattice.npoints, lattice.npoints), dtype=complex)
    amplitude.real = np.outer(ca.real, cb.real) - np.outer(ca.imag, cb.imag)
    amplitude.imag = np.outer(ca.real, cb.imag) + np.outer(ca.imag, cb.real)
    plus, minus = np.meshgrid(3 * np.arange(lattice.npoints) + 2, 3 * np.arange(lattice.npoints), indexing="ij")
    states = np.stack([np.minimum(plus, minus).ravel(), np.maximum(plus, minus).ravel()], axis=1)
    pair = np.zeros(space.dim, dtype=complex)
    pair[space._ranks(states)] = amplitude.ravel()
    additivity = _worst([abs(sq.expectation(x, pair) - (sq.expectation(x, vec_a) + sq.expectation(x, vec_b)))
                         for x in ops])
    del ops, pair, stencil

    # Ladder algebra on a small lattice: [a, a'^dag] = delta below the cap.
    small = sq.FockSpace(sq.MomentumLattice((2, 1, 1), spacing=1.0), n_max=2)
    low = range(small.offsets[small.n_max])
    annihilators, creators = _ladders(small)
    eye, block = np.eye(small.dim), np.ix_(low, low)
    ladder = _worst([float(np.abs((a1 @ c2 - c2 @ a1 - (1.0 if m1 == m2 else 0.0) * eye)[block]).max())
                     for m1, a1 in enumerate(annihilators) for m2, c2 in enumerate(creators)])

    # One-body construction against the explicit ladder-product sum.
    line = sq.FockSpace(sq.MomentumLattice((3, 1, 1), spacing=1.0), n_max=2)
    h_mode = 1j * np.kron(line.lattice.gradient_matrix(0).toarray(), np.eye(3))
    direct = line.one_body_operator(h_mode)
    annihilators, creators = _ladders(line)
    explicit = np.zeros((line.dim, line.dim), dtype=complex)
    for nu in range(line.nmodes):
        for mu in range(line.nmodes):
            if h_mode[nu, mu] != 0:
                explicit += h_mode[nu, mu] * (creators[nu] @ annihilators[mu])
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

def dirac_suite(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng([seed, 3])
    tau = dl.spin_one_matrices()

    algebra = [float(np.abs(dl.BETA0 @ dl.BETA0 - np.eye(6)).max())]
    algebra += [float(np.abs(tau[l] - tau[l].conj().T).max()) for l in range(3)]
    levi = tau * 1j  # recover eps_{lmn}
    for i in range(3):
        for j in range(3):
            rhs = sum(1j * levi[i, j, kk].real * tau[kk] for kk in range(3))
            algebra.append(float(np.abs(tau[i] @ tau[j] - tau[j] @ tau[i] - rhs).max()))

    ks = _sample_k(rng, 1000)
    w = mb.omega(ks)
    tk = np.tensordot(ks / w[:, None], tau, axes=1)
    # Rows lam = -1, 0, +1, in four blocks of 250 points: the contraction's
    # products are six times its result.
    on_shell_rows = np.concatenate([dl.on_shell_residual(block) for block in np.split(ks, 4)])
    on_shell = _worst(on_shell_rows[:, ::2])
    eps = mb.polarization_triad(ks)
    helicity_eigen = _worst([_worst(np.linalg.norm(mb._dot(tk, eps[:, row, None, :]) - lam * eps[:, row], axis=-1))
                             for row, lam in enumerate(mb.HELICITIES)])
    longitudinal = _worst(np.abs(on_shell_rows[:, 1] - w) / w)

    # The 200 guided rows come from one block of draws; the spinor residuals
    # are then taken on the stacked momenta, both helicities at once.
    kg, transversality, energies, k_null, k_bad, masses = [], [], [], [], [], []
    for side, other_side, r, s, k3, azimuth in _draw_rows(rng, 200, _GUIDED_ROW):
        md = _guide_mode(side, other_side, r, s)
        shell, null_chain = wk.klein_gordon_residual(md, k3, azimuth)
        m = md.mass
        kg += (shell / m**2, null_chain / m**2)
        k_mu, k_L, _, eta = wk.decompose(md, k3, azimuth)
        transversality.append(abs(eta.mdot(k_L)))
        energies.append(k_mu.t)
        k_null.append(k_mu[1:])
        # Off-shell detection: perturb the apparent mass by 1e-3.
        m_bad = (1.0 + 1e-3) * m
        k_bad.append((k_L.x + m_bad * eta.x, k_L.y + m_bad * eta.y, k_L.z + m_bad * eta.z))
        masses.append(m)
    energies, k_null, k_bad = np.array(energies), np.array(k_null), np.array(k_bad)
    guided = _worst(dl.waveguide_dirac_residual(energies, k_null))
    detect = float(np.min(dl.waveguide_dirac_residual(energies, k_bad)[:, 1] / np.array(masses)))  # lam = +1

    return [
        CheckResult("dirac.matrix_algebra", _worst(algebra), 1e-15),
        CheckResult("dirac.on_shell_transverse", on_shell, 1e-12),
        CheckResult("dirac.longitudinal_residual_is_omega", longitudinal, 1e-12),
        CheckResult("dirac.helicity_eigenvectors", helicity_eigen, 1e-12),
        CheckResult("dirac.guided_on_shell", guided, 1e-12),
        CheckResult("dirac.mass_shell_identities", _worst(kg), 1e-12),
        CheckResult("dirac.eta_orthogonality", _worst(transversality), 1e-12),
        CheckResult("dirac.off_shell_detected", detect, 1e-4, "above"),
    ]


# --- waveguide kinematics ---------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _boost_minimum(energy: float, p: float) -> tuple[float, float]:
    """(minimum, chi there) of energy cosh(chi) - p sinh(chi) over chi in
    [-10, 10], by golden-section search (Kiefer 1953): the function is
    convex, so each step keeps the part of the bracket that holds the
    minimum.  The search stops once the bracket is under 1e-12 wide, after 66
    values.  A nan or inf pair reads as a minimum that is nan or infinite."""
    def boosted(chi: float) -> float:
        return energy * math.cosh(chi) - p * math.sinh(chi)

    lo, hi = -10.0, 10.0
    left, right = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f_left, f_right = boosted(left), boosted(right)
    while hi - lo > 1e-12:
        if f_left < f_right:
            hi, right, f_right = right, left, f_left
            left = hi - _GOLDEN * (hi - lo)
            f_left = boosted(left)
        else:
            lo, left, f_left = left, right, f_right
            right = lo + _GOLDEN * (hi - lo)
            f_right = boosted(right)
    return (f_left, left) if f_left < f_right else (f_right, right)


def kinematics_suite(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng([seed, 4])
    # 15 000 residuals, kept as doubles: a list would keep a float object for each.
    debroglie, decomposition, closure, pair_mass, energy_vg, wavelength = (array("d") for _ in range(6))
    for side, other_side, r, s, excess, azimuth in _draw_rows(rng, 1000, _KINEMATICS_ROW):
        md = _guide_mode(side, other_side, r, s)
        m = md.mass
        w = m * (1.0 + excess)
        vg, vp, lambda_g = wk.velocities(md, w)
        k3 = wk.axial_wavenumber(md, w).k3
        energy, p = wk.dispersion(md, k3)
        debroglie.extend((
            abs(vg * vp - 1.0),
            abs(energy * energy - p * p - m * m) / (m * m),
            abs(p - 2.0 * math.pi / lambda_g) / max(p, m),
        ))
        energy_vg.append(abs(energy - m / math.sqrt(1.0 - vg * vg)) / energy)
        # sqrt(1 - (m/w)^2) factored as sqrt((w - m)(w + m))/w, so the
        # reference keeps the digits that the library keeps at the cutoff.
        wavelength.append(abs(lambda_g - (2.0 * math.pi / w) / (math.sqrt((w - m) * (w + m)) / w)) / lambda_g)

        dec = wk.decompose(md, k3, azimuth)
        decomposition.extend((
            abs(dec.k_L.mdot(dec.k_T)) / (m * m),
            abs(dec.eta.mdot(dec.eta) + 1.0),
            abs(dec.k_mu.mdot(dec.k_mu)) / (energy * energy),
        ))
        mu, k_L, k_T = dec.k_mu, dec.k_L, dec.k_T
        closure.extend((abs(mu.t - k_L.t - k_T.t), abs(mu.x - k_L.x - k_T.x),
                        abs(mu.y - k_L.y - k_T.y), abs(mu.z - k_L.z - k_T.z)))
        w1, w2 = wk.plane_wave_pair(md, k3, azimuth)
        total = w1 + w2
        pair_mass.extend((
            abs(w1.mdot(w1)) / (energy * energy),
            abs(w2.mdot(w2)) / (energy * energy),
            abs(total.mdot(total) - 4.0 * m * m) / (4.0 * m * m),
        ))

    # Boost minimum: fundamental mode with m = 1, k3 = sqrt(3).
    md = wk.mode(wk.WaveguideSpec(math.pi, math.pi / 2), 1, 0)
    k3 = math.sqrt(3.0)
    energy, p = wk.dispersion(md, k3)
    boosted_min, chi_min = _boost_minimum(energy, p)
    boost_min = abs(boosted_min - md.mass)
    minimizer_dev = abs(chi_min - wk.rest_frame_rapidity(md, k3))

    invariance = []
    for side, other_side, r, s, k3_i, azimuth, rapidity in _draw_rows(rng, 100, _INVARIANCE_ROW):
        dec = wk.decompose(_guide_mode(side, other_side, r, s), k3_i, azimuth)
        before = dec.k_L.norm2()
        after = wk.boost(dec.k_L, rapidity).norm2()
        invariance.append(abs(after - before) / abs(before))

    # SI cross-check against the half-wavelength formula for the fundamental.
    b1_m, b2_m = 0.02286, 0.01016
    fc = wk.cutoff_frequency_hz(b1_m, b2_m, 1, 0)
    si_formula = abs(fc - wk.C_LIGHT / (2.0 * b1_m)) / fc
    si_reference = abs(fc - 6.5566e9) / 6.5566e9

    # Cutoff rises strictly as either transverse dimension shrinks.
    margins = []
    for side, other_side, r, s in _draw_rows(rng, 100, _MONOTONICITY_ROW):
        b2, b1 = sorted((side, other_side))
        b2 *= 0.8  # keep 0.9 * b1 > b2 so shrinking never reorders the dimensions
        md_i = wk.mode(wk.WaveguideSpec(b1, b2), r, s)
        shrunk1 = wk.mode(wk.WaveguideSpec(0.9 * b1, b2), md_i.r, md_i.s)
        shrunk2 = wk.mode(wk.WaveguideSpec(b1, 0.9 * b2), md_i.r, md_i.s)
        margins += (shrunk1.cutoff - md_i.cutoff, shrunk2.cutoff - md_i.cutoff)

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
        CheckResult("kinematics.de_broglie_relations", _worst(debroglie), 1e-12),
        CheckResult("kinematics.energy_from_group_velocity", _worst(energy_vg), 1e-12),
        CheckResult("kinematics.guide_wavelength", _worst(wavelength), 1e-12),
        CheckResult("kinematics.decomposition_invariants", _worst(decomposition), 1e-12),
        CheckResult("kinematics.decomposition_closure", _worst(closure), 1e-12),
        CheckResult("kinematics.plane_wave_pair", _worst(pair_mass), 1e-12),
        CheckResult("kinematics.boost_minimum", boost_min, 1e-9),
        CheckResult("kinematics.boost_minimizer", minimizer_dev, 1e-6),
        CheckResult("kinematics.boost_invariance", _worst(invariance), 1e-9),
        CheckResult("kinematics.si_half_wavelength", si_formula, 1e-12),
        CheckResult("kinematics.si_reference_value", si_reference, 1e-4),
        CheckResult("kinematics.cutoff_monotonicity", float(np.min(margins)), 0.0, "above"),
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

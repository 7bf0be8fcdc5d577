"""Truncated Fock space over a discrete momentum lattice and the
second-quantized photon position operator.

The position operator is the one-body operator

    X_j = sum_{k, lam} a^dag(k, lam) a(k, lam) (i d/dk_j)

realized so that on a one-photon state with coefficient function c(k, lam)
its action is i times the periodic central-difference stencil applied to c.
Periodic wrap is mandatory: it is what makes the stencil anti-Hermitian and
hence X Hermitian.  Stencils along distinct axes commute as lattice matrices,
so the components of X commute exactly, photon number is conserved, and on
product multi-photon states the expectation is additive over photons.

Truncation is by *total* photon number (n_max quanta overall, default 2).
A one-body operator never changes the total, so the truncation is exact for
everything verified here; creation out of the top sector maps to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import momentum_basis as mb
from .errors import (
    LatticeTooSmall, PhotonGuideError, StencilCrossesSingularity, UnknownMode, ZeroMomentum,
)
from .position_operator import PositionKind, Scheme, apply_position

HELICITIES = mb.HELICITIES


@dataclass(frozen=True)
class MomentumLattice:
    """Regular rectangular k-grid, k = origin + spacing * (n1, n2, n3).

    The default origin keeps every point strictly inside the positive octant,
    so k = 0 is excluded and all points are well away from the polarization
    seam.  ``periodic`` reflects the box boundary conditions and must stay
    True for the position operator.
    """

    shape: tuple[int, int, int]
    spacing: float
    origin: tuple[float, float, float] | None = None
    periodic: bool = True

    def __post_init__(self):
        if self.spacing <= 0.0:
            raise ValueError(f"lattice spacing must be positive, got {self.spacing}")
        if self.origin is None:
            object.__setattr__(self, "origin", (self.spacing,) * 3)
        if np.any(np.all(self.points == 0.0, axis=1)):
            raise ZeroMomentum("momentum lattice must exclude k = 0")

    @property
    def npoints(self) -> int:
        n1, n2, n3 = self.shape
        return n1 * n2 * n3

    @property
    def points(self) -> np.ndarray:
        """(N, 3) array, flattened in C order over the index grid."""
        grids = [self.origin[a] + self.spacing * np.arange(self.shape[a]) for a in range(3)]
        mesh = np.meshgrid(*grids, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def gradient_matrix(self, axis: int) -> sp.csr_matrix:
        """Periodic central-difference matrix D_axis on flat point indices."""
        if not self.periodic:
            raise LatticeTooSmall("non-periodic lattices are rejected: X would not be Hermitian")
        if self.shape[axis] < 3:
            raise LatticeTooSmall(
                f"need >= 3 points along axis {axis}, got {self.shape[axis]}"
            )
        idx = np.arange(self.npoints).reshape(self.shape)
        fwd = np.roll(idx, -1, axis=axis).ravel()
        bwd = np.roll(idx, +1, axis=axis).ravel()
        rows = np.concatenate([idx.ravel(), idx.ravel()])
        cols = np.concatenate([fwd, bwd])
        half = 1.0 / (2.0 * self.spacing)
        data = np.concatenate([np.full(self.npoints, half), np.full(self.npoints, -half)])
        return sp.csr_matrix((data, (rows, cols)), shape=(self.npoints, self.npoints))


def lattice_gradient(lattice: MomentumLattice, c: np.ndarray) -> np.ndarray:
    """Periodic central-difference gradient of a grid function.

    c has shape lattice.shape (+ trailing axes); returns (3,) + c.shape.
    """
    out = []
    for axis in range(3):
        if lattice.shape[axis] < 3:
            raise LatticeTooSmall(f"need >= 3 points along axis {axis}")
        out.append((np.roll(c, -1, axis=axis) - np.roll(c, +1, axis=axis)) / (2.0 * lattice.spacing))
    return np.array(out)


class FockSpace:
    """Occupation-number space over (lattice point, helicity) modes, truncated
    at ``n_max`` total photons.

    Basis states are sorted tuples of mode indices (multisets); mode index is
    point_index * 3 + helicity_index with helicities ordered (-1, 0, +1).  The
    basis runs sector by sector in photon number and lexicographically within
    a sector, the order of ``itertools.combinations_with_replacement``.
    ``sectors[n]`` holds the n-photon states as rows of an (S_n, n) integer
    array starting at basis index ``offsets[n]``; ``basis`` and ``index`` are
    the same states as tuples and their inverse map.
    """

    def __init__(self, lattice: MomentumLattice, n_max: int = 2):
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        self.lattice = lattice
        self.n_max = n_max
        self.nmodes = lattice.npoints * 3
        if self.nmodes ** n_max > np.iinfo(np.int64).max:
            raise PhotonGuideError(
                f"{self.nmodes} modes at n_max={n_max}: base-{self.nmodes} state keys "
                "would overflow int64"
            )
        # Sector n+1 extends each sector-n row by every mode >= its last mode;
        # extending rows in order keeps the sector lexicographic.
        self.sectors = [np.zeros((1, 0), dtype=np.int64)]
        last = np.zeros(1, dtype=np.int64)
        for _ in range(n_max):
            prev = self.sectors[-1]
            counts = self.nmodes - last
            starts = np.cumsum(counts) - counts
            appended = np.repeat(last - starts, counts) + np.arange(counts.sum())
            self.sectors.append(np.column_stack([np.repeat(prev, counts, axis=0), appended]))
            last = appended
        self.offsets = np.concatenate([[0], np.cumsum([len(states) for states in self.sectors])])
        # Base-M keys, most significant slot first, rise with the sector order.
        self._powers = [
            self.nmodes ** np.arange(n - 1, -1, -1, dtype=np.int64) for n in range(n_max + 1)
        ]
        self._keys = [states @ powers for states, powers in zip(self.sectors, self._powers)]
        self.basis: list[tuple[int, ...]] = [
            tuple(row) for states in self.sectors for row in states.tolist()
        ]
        self.index = {state: i for i, state in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return int(self.offsets[-1])

    def _ranks(self, states: np.ndarray) -> np.ndarray:
        """Basis indices of the rows of an (S, n) array of sorted mode indices."""
        n = states.shape[1]
        return self.offsets[n] + np.searchsorted(self._keys[n], states @ self._powers[n])

    def mode_index(self, point_index: int, lam: int) -> int:
        if lam not in HELICITIES or not (0 <= point_index < self.lattice.npoints):
            raise UnknownMode(f"no lattice mode (point {point_index}, helicity {lam})")
        return point_index * 3 + HELICITIES.index(lam)

    def annihilate(self, point_index: int, lam: int) -> sp.csr_matrix:
        """Ladder operator a(k, lam) with the standard sqrt(n) factors."""
        mu = self.mode_index(point_index, lam)
        rows, cols, data = [], [], []
        for col, state in enumerate(self.basis):
            c = state.count(mu)
            if c == 0:
                continue
            pos = state.index(mu)
            target = state[:pos] + state[pos + 1:]
            rows.append(self.index[target])
            cols.append(col)
            data.append(np.sqrt(c))
        return sp.csr_matrix((data, (rows, cols)), shape=(self.dim, self.dim))

    def create(self, point_index: int, lam: int) -> sp.csr_matrix:
        """a^dag(k, lam); components beyond the total-number cap are dropped."""
        return self.annihilate(point_index, lam).conj().T.tocsr()

    def number_operator(self) -> sp.csr_matrix:
        totals = np.repeat(np.arange(self.n_max + 1, dtype=float), np.diff(self.offsets))
        return sp.diags(totals).tocsr()

    def one_body_operator(self, h_mode: sp.spmatrix) -> sp.csr_matrix:
        """sum_{mu,nu} h[nu, mu] a^dag(nu) a(mu) for an (M, M) mode matrix.

        Built sector by sector and slot by slot over all states at once: the
        slot p holding the first copy of mode mu (c copies) hops to each nu in
        column mu of h, and the re-sorted row is ranked within its sector.
        The amplitude is h[nu, mu] sqrt(c) sqrt(copies of nu left + 1).
        Conserves total photon number by construction.
        """
        h = sp.csc_matrix(h_mode, dtype=complex)
        rows, cols, data = [], [], []
        for n in range(1, self.n_max + 1):
            states = self.sectors[n]
            for p in range(n):
                if p == 0:
                    sel = np.arange(len(states))
                else:
                    sel = np.flatnonzero(states[:, p] != states[:, p - 1])
                src = states[sel]
                mu = src[:, p]
                nhops = h.indptr[mu + 1] - h.indptr[mu]
                hop_src = np.repeat(np.arange(len(sel)), nhops)
                first_hop = np.cumsum(nhops) - nhops
                hop = np.repeat(h.indptr[mu] - first_hop, nhops) + np.arange(len(hop_src))
                nu, val = h.indices[hop], h.data[hop]
                before = src[hop_src]
                copies = (src == mu[:, None]).sum(axis=1)[hop_src]
                rest_nu = (before == nu[:, None]).sum(axis=1) - (nu == mu[hop_src])
                after = before.copy()
                after[:, p] = nu
                after.sort(axis=1)
                rows.append(self._ranks(after))
                cols.append(self.offsets[n] + sel[hop_src])
                data.append(val * np.sqrt(copies) * np.sqrt(rest_nu + 1))
        mat = sp.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.dim, self.dim),
        )
        mat.sum_duplicates()
        return mat

    def position_operators(self) -> list[sp.csr_matrix]:
        """The three components of X; each Hermitian, mutually commuting."""
        eye3 = sp.identity(3, format="csr")
        return [
            self.one_body_operator(1j * sp.kron(self.lattice.gradient_matrix(axis), eye3))
            for axis in range(3)
        ]

    # --- state constructors -------------------------------------------------

    def vacuum(self) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.offsets[0]] = 1.0
        return vec

    def basis_state(self, modes: tuple[int, ...]) -> np.ndarray:
        state = np.sort(np.asarray(modes, dtype=np.int64))[None, :]
        if state.shape[1] > self.n_max or np.any((state < 0) | (state >= self.nmodes)):
            raise UnknownMode(
                f"no basis state {tuple(modes)} with {self.nmodes} modes and n_max={self.n_max}"
            )
        vec = np.zeros(self.dim, dtype=complex)
        vec[self._ranks(state)] = 1.0
        return vec

    def one_photon_vector(self, coeffs: np.ndarray) -> np.ndarray:
        """Embed a coefficient array of shape (npoints, 3) as a one-photon state."""
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.offsets[1]:self.offsets[2]] = np.asarray(coeffs, dtype=complex).ravel()
        return vec

    def one_photon_coefficients(self, vec: np.ndarray) -> np.ndarray:
        one = np.array(vec[self.offsets[1]:self.offsets[2]], dtype=complex)
        return one.reshape(self.lattice.npoints, 3)


def expectation(op: sp.spmatrix, vec: np.ndarray) -> complex:
    return complex(np.vdot(vec, op @ vec) / np.vdot(vec, vec))


def one_photon_equivalence(space: FockSpace, rng: np.random.Generator, samples: int = 20) -> float:
    """Max deviation between X acting on one-photon states and the direct
    i * lattice stencil on the coefficient function.  Same stencil, two code
    paths; should agree to rounding."""
    lattice = space.lattice
    ops = space.position_operators()
    worst = 0.0
    for _ in range(samples):
        c = rng.standard_normal((lattice.npoints, 3)) + 1j * rng.standard_normal((lattice.npoints, 3))
        vec = space.one_photon_vector(c)
        grid = c.reshape(lattice.shape + (3,))
        stencil = 1j * lattice_gradient(lattice, grid)
        for axis in range(3):
            direct = stencil[axis].reshape(lattice.npoints, 3)
            via_fock = space.one_photon_coefficients(ops[axis] @ vec)
            worst = max(worst, float(np.max(np.abs(direct - via_fock))))
    return worst


def momentum_average_position(
    lattice_points: np.ndarray,
    plus_coeffs,
    minus_coeffs,
    scheme: Scheme | None = None,
) -> np.ndarray:
    """Momentum-space average of the position operator over spinor fields.

    ``plus_coeffs`` and ``minus_coeffs`` are the k-independent amplitudes
    (ordered by helicity -1, 0, +1) multiplying the f spinors and the
    reflected g spinors respectively; the fields are

        phi_plus(k)  = sum_lam plus[lam]  sqrt(omega) f(k, lam)
        phi_minus(k) = sum_lam minus[lam] sqrt(omega) g(-k, lam)

    and the result is sum_k (1/2 omega) [phi+^dag X+ phi+ + phi-^dag X- phi-]
    with the 6-component operator variants applied by finite differences at
    each lattice point.  Returned with its (rounding-level) imaginary part so
    callers can verify Hermiticity.
    """
    scheme = scheme or Scheme(h=1e-3, order=4)
    plus = np.asarray(plus_coeffs, dtype=complex)
    minus = np.asarray(minus_coeffs, dtype=complex)

    def phi_plus(k):
        w = np.sqrt(mb.omega(k))[..., None]
        return sum(plus[i] * w * mb.spinor_f(k, lam) for i, lam in enumerate(HELICITIES))

    def phi_minus(k):
        w = np.sqrt(mb.omega(k))[..., None]
        return sum(minus[i] * w * mb.spinor_g(-k, lam) for i, lam in enumerate(HELICITIES))

    k = np.asarray(lattice_points, dtype=float).reshape(-1, 3)
    weight = 2.0 * mb.omega(k)[:, None]
    total = np.zeros(3, dtype=complex)
    for kind, coeffs, rule in ((PositionKind.SPINOR_PLUS, plus, phi_plus),
                               (PositionKind.SPINOR_MINUS, minus, phi_minus)):
        if np.any(coeffs != 0.0):
            phi = mb.BatchedWavefunction(rule, 6)
            applied = apply_position(kind, phi, k, scheme)
            total += np.sum((applied @ np.conj(phi(k))[..., None])[..., 0] / weight, axis=0)
    return total

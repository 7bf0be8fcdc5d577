"""Kinematics of photons guided by a rectangular waveguide.

A mode (r, s) of a guide with transverse dimensions b1 > b2 carries the fixed
transverse wavenumbers r pi / b1 and s pi / b2.  The cutoff frequency
omega_c = sqrt((r pi / b1)^2 + (s pi / b2)^2) acts as a rest mass m for
motion along the guide:

    E^2 = k3^2 + m^2

and the group/phase velocities, guide wavelength and boost behaviour all
follow the massive-particle pattern.  The null photon 4-momentum splits into
a time-like "active" part k_L = (E; p) and a space-like "frozen" part
k_T = m eta with eta.eta = -1 and k_L.k_T = 0.

Everything is in natural units internally; the SI helpers at the bottom
convert angular frequencies (per meter) to and from hertz via the exact
speed of light.

The module is plain float arithmetic on ``math`` and imports no numpy, so
the kinematics CLI starts without it.

The records are ``collections.namedtuple`` classes rather than dataclasses,
so importing the module loads neither ``dataclasses`` nor ``inspect``.  They
are immutable tuples: they unpack and index, and they compare equal to plain
tuples of the same fields.  The one operator they redefine is ``+`` on ``FourMomentum``, which
adds 4-vectors.  ``WaveguideSpec`` and ``WaveguideMode`` check their fields
in ``__new__``, and their ``_make``/``_replace`` go through the same checks;
``WaveguideMode.__new__`` also computes the cutoff, once, into the instance dict.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .errors import AtOrBelowCutoff, InvalidIndex, InvalidMode, RapidityOverflow

C_LIGHT = 299_792_458.0  # m/s, exact

# Builds a record from a tuple of its fields, as the generated __new__ does,
# without that Python-level call: records are built thousands of times per
# verify run, the checked ones by their own __new__ after its checks.
_record = tuple.__new__


class FourMomentum(namedtuple("FourMomentum", "t x y z")):
    """(t; x, y, z) with metric diag(1, -1, -1, -1)."""

    __slots__ = ()

    def mdot(self, other: "FourMomentum") -> float:
        return self.t * other.t - self.x * other.x - self.y * other.y - self.z * other.z

    def norm2(self) -> float:
        return self.mdot(self)

    def __add__(self, other: "FourMomentum") -> "FourMomentum":
        return _record(FourMomentum, (self.t + other.t, self.x + other.x, self.y + other.y, self.z + other.z))


def boost(v: FourMomentum, chi: float) -> FourMomentum:
    """Boost by rapidity chi along the guide axis (the z components)."""
    try:
        ch, sh = math.cosh(chi), math.sinh(chi)
    except OverflowError:
        raise RapidityOverflow(f"cosh({chi}) overflows a float") from None
    return _record(FourMomentum, (v.t * ch - v.z * sh, v.x, v.y, v.z * ch - v.t * sh))


class WaveguideSpec(namedtuple("WaveguideSpec", "b1 b2")):
    """Transverse sides of a rectangular guide, in either order: the larger is b1."""

    __slots__ = ()

    def __new__(cls, b1: float, b2: float):
        if not (b1 > 0.0 and b2 > 0.0):
            raise InvalidMode(f"guide dimensions must be positive, got b1={b1}, b2={b2}")
        if math.inf in (b1, b2):
            raise InvalidMode(f"guide dimensions must be finite, got b1={b1}, b2={b2}")
        if b1 < b2:
            b1, b2 = b2, b1
        return _record(cls, (b1, b2))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class WaveguideMode(namedtuple("WaveguideMode", "spec r s")):
    """A (r, s) eigenmode of a guide; r >= 1, s >= 0."""

    def __new__(cls, spec: WaveguideSpec, r: int, s: int):
        try:
            valid = operator.index(r) >= 1 and operator.index(s) >= 0
        except TypeError:
            valid = False
        if not valid:
            raise InvalidIndex(f"mode indices need integers r >= 1, s >= 0, got (r, s) = ({r}, {s})")
        self = _record(cls, (spec, r, s))
        b1, b2 = spec
        self._cutoff = math.hypot(r * math.pi / b1, s * math.pi / b2)
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    cutoff = property(operator.attrgetter("_cutoff"), doc="omega_c = hypot(r pi / b1, s pi / b2), computed when built.")
    mass = property(operator.attrgetter("_cutoff"), doc="Apparent rest mass of guided photons: equal to the cutoff.")

    @property
    def compton_wavelength(self) -> float:
        """Equivalent Compton wavelength 1/m: the localization precision bound."""
        return 1.0 / self.mass


def mode(spec: WaveguideSpec, r: int, s: int) -> WaveguideMode:
    return WaveguideMode(spec, r, s)


def dispersion(md: WaveguideMode, k3: float) -> tuple[float, float]:
    """(E, |p|) for axial wavenumber k3 >= 0: E = sqrt(k3^2 + m^2)."""
    if k3 < 0.0:
        raise InvalidMode(f"axial wavenumber must be >= 0, got {k3}")
    m = md.mass
    return math.hypot(k3, m), k3


Propagating = namedtuple("Propagating", "k3")

# Below-cutoff outcome; decay_constant = sqrt(m^2 - E^2) is the axial
# exponential falloff rate of the evanescent field.
Evanescent = namedtuple("Evanescent", "decay_constant")


def axial_wavenumber(md: WaveguideMode, energy: float):
    """Invert the dispersion relation: Propagating(k3) or Evanescent(kappa).

    Both roots take the difference of squares factored, (E - m)(E + m), so
    that they keep full precision at the cutoff, where E - m is exact."""
    if not energy >= 0.0:  # also rejects nan
        raise InvalidMode(f"energy must be >= 0, got {energy}")
    m = md.mass
    if energy >= m:
        return _record(Propagating, (math.sqrt((energy - m) * (energy + m)),))
    return _record(Evanescent, (math.sqrt((m - energy) * (m + energy)),))


def velocities(md: WaveguideMode, w: float) -> tuple[float, float, float]:
    """(v_g, v_p, lambda_g) at frequency w > cutoff.

    v_g = sqrt(1 - (omega_c/w)^2), v_p = 1/v_g (so v_g v_p = 1), and the
    guide wavelength is the free-space wavelength stretched by 1/v_g.  v_g is
    computed as sqrt((w - omega_c)/w (1 + omega_c/w)): w - omega_c is exact
    near the cutoff, where 1 - (omega_c/w)^2 would cancel, and nothing
    overflows for large w.  At w = inf, where (w - omega_c)/w is nan, v_g is
    its limit 1.
    """
    wc = md.cutoff
    if not w > wc:  # also rejects nan, which a sweep that overflows produces
        raise AtOrBelowCutoff(f"frequency {w} is not above cutoff {wc}")
    vg = math.sqrt((w - wc) / w * (1.0 + wc / w)) if w < math.inf else 1.0
    vp = 1.0 / vg
    lambda_g = (2.0 * math.pi / w) / vg
    return vg, vp, lambda_g


# Orthogonal split k_mu = k_L + k_T of the null guided 4-momentum, each a
# FourMomentum.  k_L = (E; p) is time-like with k_L.k_L = m^2; k_T = (0; k_T)
# = m eta is space-like with eta.eta = -1 and k_L.k_T = 0.
DecomposedMomentum = namedtuple("DecomposedMomentum", "k_mu k_L k_T eta")


def decompose(md: WaveguideMode, k3: float, azimuth: float = 0.0) -> DecomposedMomentum:
    """Build the orthogonal 4-momentum decomposition in the guide-aligned frame.

    The guide axis is the z direction; ``azimuth`` orients the frozen
    transverse momentum within the x-y plane.  |k_T| = m exactly.
    """
    energy, _ = dispersion(md, k3)
    m = md.mass
    c, s = math.cos(azimuth), math.sin(azimuth)
    mc, ms = m * c, m * s
    # k_mu is k_L + k_T written out; the 0.0 + and + 0.0 that sum adds turn
    # a -0.0 component into 0.0, as printed.
    return _record(DecomposedMomentum, (_record(FourMomentum, (energy, 0.0 + mc, 0.0 + ms, k3 + 0.0)),
                                        _record(FourMomentum, (energy, 0.0, 0.0, k3)),
                                        _record(FourMomentum, (0.0, mc, ms, 0.0)),
                                        _record(FourMomentum, (0.0, c, s, 0.0))))


def klein_gordon_residual(md: WaveguideMode, k3: float,
                          azimuth: float = 0.0) -> tuple[float, float]:
    """(|k_L.k_L - m^2|, |k_L.k_L + k_T.k_T|) for the decomposed momentum.

    Both vanish identically: the first is the mass-shell relation
    E^2 - p^2 = m^2, the second the null chain k_L.k_L + k_T.k_T = k.k = 0.
    """
    dec = decompose(md, k3, azimuth)
    m2 = md.mass ** 2
    kl2 = dec.k_L.norm2()
    kt2 = dec.k_T.norm2()
    return abs(kl2 - m2), abs(kl2 + kt2)


def plane_wave_pair(md: WaveguideMode, k3: float, azimuth: float) -> tuple[FourMomentum, FourMomentum]:
    """The two null plane waves whose superposition is the guided field.

    Both share the frequency E of the guided photon; their spatial parts are
    p +- k_T, so each is null and their sum squares to 4 m^2.  The first is
    the guided momentum k_L + k_T itself.
    """
    dec = decompose(md, k3, azimuth)
    k_L, k_T = dec.k_L, dec.k_T
    return dec.k_mu, _record(FourMomentum, (k_L.t, k_L.x - k_T.x, k_L.y - k_T.y, k_L.z - k_T.z))


def rest_frame_rapidity(md: WaveguideMode, k3: float) -> float:
    """Rapidity artanh(v_g) = arsinh(p/m) of the boost that brings the photon
    to E' = m.  The arsinh form stays finite and accurate where p/E rounds to 1."""
    _, p = dispersion(md, k3)
    return math.asinh(p / md.mass)


# critical_rapidity is the smallest |chi| with E'(chi) below the new cutoff,
# or None when the photon propagates in every frame.
TunnelingVerdict = namedtuple("TunnelingVerdict", "propagates apparent_mass new_cutoff critical_rapidity")


def tunneling_predicate(old_mode: WaveguideMode, k3: float, new_mode: WaveguideMode) -> TunnelingVerdict:
    """Can the photon always propagate in the new guide, in every inertial frame?

    The boosted frequency E'(chi) = E cosh(chi) - p sinh(chi) = m_old cosh(chi_min - chi)
    attains its minimum, the apparent mass m_old, at chi_min = arsinh(p/m_old).
    If the new guide's cutoff exceeds m_old there is a frame in which the
    photon is below cutoff and must tunnel; the critical rapidity, where E'
    first falls to the new cutoff, is chi_min - arcosh(omega_c'/m_old).
    """
    # Neither nan nor inf has a verdict (max(0.0, nan) is 0.0); -inf gets
    # dispersion's message.
    if not k3 < math.inf:
        raise InvalidMode(f"axial wavenumber must be finite, got {k3}")
    m_old = old_mode.mass
    wc_new = new_mode.cutoff
    energy, p = dispersion(old_mode, k3)
    if wc_new <= m_old:
        return _record(TunnelingVerdict, (True, m_old, wc_new, None))
    if energy < wc_new:
        return _record(TunnelingVerdict, (False, m_old, wc_new, 0.0))
    # chi* = log(p + E) - log(omega_c' + sqrt(omega_c'^2 - m_old^2)), each log
    # taken apart so that nothing overflows where p/m_old would: with
    # s = max(p, m_old), p + E = s (p/s + hypot(p/s, m_old/s)).  At E = omega_c'
    # the two logs are equal and rounding can leave -1 ulp.
    s, r = max(p, m_old), m_old / wc_new
    chi_star = (math.log(s) + math.log(p / s + math.hypot(p / s, m_old / s))
                - math.log(wc_new) - math.log1p(math.sqrt((1.0 - r) * (1.0 + r))))
    return _record(TunnelingVerdict, (False, m_old, wc_new, max(0.0, chi_star)))


# --- SI helpers -------------------------------------------------------------

def omega_to_hz(omega: float) -> float:
    """Frequency in hertz of the natural angular frequency omega (per meter)."""
    return omega * C_LIGHT / (2.0 * math.pi)


def hz_to_omega(f_hz: float) -> float:
    """Natural angular frequency (per meter) of the frequency f_hz in hertz."""
    return 2.0 * math.pi * f_hz / C_LIGHT


def cutoff_frequency_hz(b1_m: float, b2_m: float, r: int, s: int) -> float:
    """Cutoff frequency in hertz for guide dimensions given in meters."""
    return omega_to_hz(mode(WaveguideSpec(b1_m, b2_m), r, s).cutoff)

"""Tests for waveguide photon kinematics: apparent mass, dispersion,
velocities, the orthogonal 4-momentum split, boosts and tunneling."""

import copy
import math
import pickle
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonguide import verify
from photonguide import waveguide_kinematics as wk
from photonguide.errors import AtOrBelowCutoff, InvalidIndex, InvalidMode, RapidityOverflow
from test_verify import reference_sample_mode

RNG = np.random.default_rng(20240821)


def four(v):
    """The 4-vector (t; x, y, z) as a numpy array."""
    return np.array([v.t, v.x, v.y, v.z])


def named_check(checks, name):
    return next(c for c in checks if c.name == name)


def unit_mode():
    return wk.mode(wk.WaveguideSpec(math.pi, math.pi / 2), 1, 0)


class TestModesAndMass:
    def test_unit_mass_construction(self):
        md = unit_mode()
        assert md.cutoff == pytest.approx(1.0, abs=1e-15)
        assert md.mass == md.cutoff
        assert md.compton_wavelength == pytest.approx(1.0, abs=1e-15)

    def test_mass_against_mpmath_oracle(self):
        # b1 = 2, b2 = 1, (r, s) = (1, 1): frozen 50-digit value of
        # sqrt((pi/2)^2 + pi^2) = pi sqrt(5) / 2.
        md = wk.mode(wk.WaveguideSpec(2.0, 1.0), 1, 1)
        oracle = float(mpmath.sqrt((mpmath.pi / 2) ** 2 + mpmath.pi ** 2))
        assert oracle == 3.5124073655203634
        assert md.mass == pytest.approx(oracle, rel=1e-15)

    def test_cutoff_ordering(self):
        spec = wk.WaveguideSpec(2.0, 1.0)
        cutoffs = [wk.mode(spec, r, s).cutoff for r, s in [(1, 0), (2, 0), (1, 1)]]
        assert cutoffs[0] < cutoffs[1] < cutoffs[2]

    def test_narrowing_raises_cutoff(self):
        wide = wk.mode(wk.WaveguideSpec(2.0, 1.0), 1, 0)
        narrow = wk.mode(wk.WaveguideSpec(1.6, 0.8), 1, 0)
        assert narrow.cutoff > wide.cutoff

    @pytest.mark.filterwarnings("error")
    def test_sides_come_in_either_order(self):
        # The larger side is b1, silently: whichever comes first, directly or
        # through _replace, the spec and its modes are the same.
        spec = wk.WaveguideSpec(1.0, 2.0)
        assert type(spec) is wk.WaveguideSpec and (spec.b1, spec.b2) == (2.0, 1.0)
        assert spec == wk.WaveguideSpec(2.0, 1.0)
        assert wk.mode(spec, 1, 1).cutoff == wk.mode(wk.WaveguideSpec(2.0, 1.0), 1, 1).cutoff
        assert wk.WaveguideSpec(1.5, 1.5) == (1.5, 1.5)
        assert spec._replace(b1=3.0) == (3.0, 1.0)
        assert spec._replace(b2=3.0) == (3.0, 2.0)
        assert type(spec._replace(b2=3.0)) is wk.WaveguideSpec

    def test_invalid_inputs(self):
        with pytest.raises(InvalidMode):
            wk.WaveguideSpec(-1.0, 1.0)
        with pytest.raises(InvalidIndex):
            wk.mode(wk.WaveguideSpec(2.0, 1.0), 0, 0)

    @pytest.mark.parametrize("r, s", [(1.5, 0), (1, 0.5), (math.nan, 0), (1, math.nan)])
    def test_non_integer_indices_rejected(self, r, s):
        # A fractional or nan index once built a mode with a fractional or
        # nan cutoff, which then flowed into dispersion and decompose.
        with pytest.raises(InvalidIndex, match="integers"):
            wk.mode(wk.WaveguideSpec(2.0, 1.0), r, s)

    def test_numpy_integer_indices_build(self):
        md = wk.mode(wk.WaveguideSpec(2.0, 1.0), np.int64(1), np.int64(1))
        assert md == wk.mode(md.spec, 1, 1)

    @pytest.mark.parametrize("sides", [(math.inf, 1.0), (2.0, math.inf), (math.inf, math.inf)])
    def test_infinite_side_rejected(self, sides):
        # An infinite side once gave mass 0 and a ZeroDivisionError from
        # compton_wavelength, which is not a PhotonGuideError.
        with pytest.raises(InvalidMode, match="must be finite"):
            wk.WaveguideSpec(*sides)



RECORDS = {
    "FourMomentum": (lambda: wk.FourMomentum(1.0, 2.0, 3.0, 4.0), "t"),
    "WaveguideSpec": (lambda: wk.WaveguideSpec(2.0, 1.0), "b1"),
    "WaveguideMode": (lambda: wk.mode(wk.WaveguideSpec(2.0, 1.0), 1, 1), "r"),
    "Propagating": (lambda: wk.axial_wavenumber(unit_mode(), 2.0), "k3"),
    "Evanescent": (lambda: wk.axial_wavenumber(unit_mode(), 0.5), "decay_constant"),
    "DecomposedMomentum": (lambda: wk.decompose(unit_mode(), 1.5, 0.3), "eta"),
    "TunnelingVerdict": (lambda: wk.tunneling_predicate(unit_mode(), 3.0, unit_mode()), "propagates"),
}


class TestRecords:
    def test_four_momentum_sum_is_componentwise(self):
        total = wk.FourMomentum(1.0, 2.0, 3.0, 4.0) + wk.FourMomentum(0.5, -1.0, 0.25, 2.0)
        assert type(total) is wk.FourMomentum
        assert (total.t, total.x, total.y, total.z) == (1.5, 1.0, 3.25, 6.0)

    @pytest.mark.parametrize("name", RECORDS)
    def test_fields_are_read_only(self, name):
        build, field = RECORDS[name]
        record = build()
        assert type(record).__name__ == name
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    @pytest.mark.parametrize("name", RECORDS)
    def test_equal_records_hash_equal(self, name):
        build, _ = RECORDS[name]
        first, second = build(), build()
        assert first == second
        assert hash(first) == hash(second)

    def test_replace_checks_like_the_constructor(self):
        md = wk.mode(wk.WaveguideSpec(2.0, 1.0), 1, 1)
        assert md._replace(s=2) == wk.mode(md.spec, 1, 2)
        with pytest.raises(InvalidIndex):
            md._replace(r=0)
        with pytest.raises(InvalidIndex):
            md._replace(r=1.5)
        with pytest.raises(InvalidMode, match="must be positive"):
            md.spec._replace(b2=-1.0)

    def test_records_are_tuples_of_their_fields(self):
        md = wk.mode(wk.WaveguideSpec(2.0, 1.0), 1, 1)
        spec, r, s = md
        assert (spec, r, s) == ((2.0, 1.0), 1, 1)
        assert md.cutoff == math.hypot(math.pi / 2.0, math.pi / 1.0)

    def test_repr_names_the_fields(self):
        assert repr(wk.FourMomentum(1.0, 0.0, -2.5, 3.0)) == "FourMomentum(t=1.0, x=0.0, y=-2.5, z=3.0)"
        assert repr(wk.WaveguideSpec(2.0, 1.0)) == "WaveguideSpec(b1=2.0, b2=1.0)"


class TestDispersion:
    def test_energy_at_sqrt3(self):
        energy, p = wk.dispersion(unit_mode(), math.sqrt(3.0))
        assert energy == pytest.approx(2.0, abs=1e-15)
        assert p == math.sqrt(3.0)

    def test_cutoff_is_rest_energy(self):
        energy, p = wk.dispersion(unit_mode(), 0.0)
        assert (energy, p) == (1.0, 0.0)

    def test_inversion_roundtrip(self):
        md = unit_mode()
        for k3 in (0.0, 0.4, 2.7, 11.0):
            energy, _ = wk.dispersion(md, k3)
            out = wk.axial_wavenumber(md, energy)
            assert isinstance(out, wk.Propagating)
            assert out.k3 == pytest.approx(k3, abs=1e-12)

    def test_evanescent_decay_constant(self):
        # E = 0.9, m = 1: kappa = sqrt(0.19), frozen from mpmath.
        out = wk.axial_wavenumber(unit_mode(), 0.9)
        assert isinstance(out, wk.Evanescent)
        oracle = float(mpmath.sqrt(mpmath.mpf("0.19")))
        assert oracle == 0.43588989435406733
        assert out.decay_constant == pytest.approx(oracle, rel=1e-15)

    def test_negative_k3_rejected(self):
        with pytest.raises(InvalidMode):
            wk.dispersion(unit_mode(), -1.0)

    def test_nan_energy_rejected(self):
        # nan < 0 is false: a nan energy must not pass for an evanescent one.
        with pytest.raises(InvalidMode, match="energy must be >= 0, got nan"):
            wk.axial_wavenumber(unit_mode(), math.nan)


class TestVelocities:
    def test_octave_above_cutoff(self):
        vg, vp, lambda_g = wk.velocities(unit_mode(), 2.0)
        assert vg == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)
        assert vp == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-15)
        assert vg * vp == pytest.approx(1.0, rel=1e-15)
        assert lambda_g == pytest.approx((2.0 * math.pi / 2.0) / (math.sqrt(3.0) / 2.0), rel=1e-15)

    def test_group_velocity_vanishes_at_cutoff(self):
        vg, vp, _ = wk.velocities(unit_mode(), 1.0 + 1e-9)
        assert vg < 1e-4
        assert vp > 1e4

    def test_energy_from_group_velocity(self):
        # E = m / sqrt(1 - v_g^2): the massive-particle relation.
        md = unit_mode()
        for w in (1.1, 1.7, 3.0, 8.0):
            vg, _, _ = wk.velocities(md, w)
            assert md.mass / math.sqrt(1.0 - vg * vg) == pytest.approx(w, rel=1e-12)

    def test_group_velocity_tends_to_one_without_overflow(self):
        # (w - wc)(w + wc) would overflow above w ~ 1.3e154; the factored
        # form divides by w first.  At w = inf v_g is its limit, not nan.
        for w in (1e160, 1e300, 1.7e308, math.inf):
            vg, vp, _ = wk.velocities(unit_mode(), w)
            assert vg == 1.0 and vp == 1.0
        assert wk.velocities(unit_mode(), math.inf) == (1.0, 1.0, 0.0)

    def test_below_cutoff_rejected(self):
        with pytest.raises(AtOrBelowCutoff):
            wk.velocities(unit_mode(), 1.0)
        with pytest.raises(AtOrBelowCutoff):
            wk.velocities(unit_mode(), 0.3)


# Three ulps of 1: the factored roots measured within 2.1 half-ulps of the
# 50-digit reference over 30 000 seeded draws.
NEAR_CUTOFF_RTOL = 3 * 2.0**-52


@settings(derandomize=True, max_examples=300, deadline=None)
@given(sides=st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)), r=st.integers(1, 3), s=st.integers(0, 3),
       exponent=st.floats(-15.0, 0.0), above=st.booleans())
def test_roots_at_the_cutoff_hold_full_precision(sides, r, s, exponent, above):
    # E = m (1 +- 10^exponent): v_g and k3 above the cutoff, kappa below, to
    # a few ulps of sqrt(|E^2 - m^2|) taken at 50 digits on the double E.
    md = wk.mode(wk.WaveguideSpec(*sides), r, s)
    m = md.mass
    energy = m * (1.0 + 10.0**exponent) if above else m * (1.0 - 10.0**exponent)
    with mpmath.workdps(50):
        root = mpmath.sqrt(abs(mpmath.mpf(energy) ** 2 - mpmath.mpf(m) ** 2))
        if above:
            pairs = [(wk.velocities(md, energy)[0], root / energy), (wk.axial_wavenumber(md, energy).k3, root)]
        else:
            pairs = [(wk.axial_wavenumber(md, energy).decay_constant, root)]
        for got, expected in pairs:
            assert abs(got - expected) <= NEAR_CUTOFF_RTOL * expected, (energy, m, got)


class TestDecomposition:
    def test_invariants_random(self):
        md = wk.mode(wk.WaveguideSpec(2.0, 1.0), 1, 1)
        m2 = md.mass ** 2
        for _ in range(100):
            k3 = RNG.uniform(0.0, 10.0)
            az = RNG.uniform(0.0, 2.0 * math.pi)
            dec = wk.decompose(md, k3, az)
            assert abs(dec.k_mu.norm2()) <= 1e-12 * m2           # null total
            assert dec.k_L.norm2() == pytest.approx(m2, rel=1e-12)
            assert dec.k_T.norm2() == pytest.approx(-m2, rel=1e-12)
            assert abs(dec.k_L.mdot(dec.k_T)) <= 1e-12 * m2      # orthogonal
            assert dec.eta.norm2() == pytest.approx(-1.0, rel=1e-12)
            total = dec.k_L + dec.k_T
            assert np.allclose(four(total), four(dec.k_mu), atol=1e-14)

    def test_plane_wave_pair_null_and_closing(self):
        md = unit_mode()
        ka, kb = wk.plane_wave_pair(md, math.sqrt(3.0), azimuth=0.4)
        assert abs(ka.norm2()) <= 1e-12
        assert abs(kb.norm2()) <= 1e-12
        total = ka + kb
        assert total.norm2() == pytest.approx(4.0 * md.mass ** 2, rel=1e-12)
        dec = wk.decompose(md, math.sqrt(3.0), 0.4)
        assert np.allclose(0.5 * four(total), four(dec.k_L), atol=1e-12)

    def test_float_components_match_the_array_reference(self):
        # Every component equals, bit for bit, the 4-vector arithmetic done
        # on numpy arrays: k_T = m n, plane waves (E; +-k_T + p).
        rng = np.random.default_rng(20240822)
        triples = [(unit_mode(), 0.0, 0.0), (unit_mode(), 0.0, -0.0), (unit_mode(), 2.0, math.pi)]
        for _ in range(200):
            b2, b1 = np.sort(rng.uniform(0.5, 3.0, 2))
            md = wk.mode(wk.WaveguideSpec(b1, b2), int(rng.integers(1, 4)), int(rng.integers(0, 4)))
            triples.append((md, float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.0, 2.0 * math.pi))))
        for md, k3, az in triples:
            m, energy = md.mass, math.hypot(k3, md.mass)
            n = np.array([math.cos(az), math.sin(az), 0.0])
            k_L = np.array([energy, 0.0, 0.0, k3])
            k_T = np.concatenate([[0.0], m * n])
            expected = [k_L + k_T, k_L, k_T, np.concatenate([[0.0], n]),
                        np.concatenate([[energy], k_T[1:] + k_L[1:]]),
                        np.concatenate([[energy], -k_T[1:] + k_L[1:]])]
            dec = wk.decompose(md, k3, az)
            got = [dec.k_mu, dec.k_L, dec.k_T, dec.eta, *wk.plane_wave_pair(md, k3, az)]
            for vec, ref in zip(got, expected):
                assert four(vec).tobytes() == ref.tobytes(), (md, k3, az)

    def test_mdot_against_exact_arithmetic(self):
        # Four rounded products and three rounded sums: each product is off by
        # at most 1/2 ulp of the largest |term| T, the partial sums (below 2T,
        # 3T, 4T) by at most 1, 2, 2 ulp of T, so 4/2 + 1 + 2 + 2 = 7 ulp of T
        # bound the total.
        rng = np.random.default_rng(20240823)
        for _ in range(200):
            a, b = rng.uniform(-3.0, 3.0, (2, 4)) * 10.0 ** rng.uniform(-3.0, 3.0, (2, 1))
            u, v = wk.FourMomentum(*a.tolist()), wk.FourMomentum(*b.tolist())
            exact = sum(sign * Fraction(x) * Fraction(y) for sign, x, y in zip((1, -1, -1, -1), a, b))
            largest = max(abs(x * y) for x, y in zip(a.tolist(), b.tolist()))
            assert abs(Fraction(u.mdot(v)) - exact) <= 7 * Fraction(math.ulp(largest))
            assert u.mdot(v) == v.mdot(u)

    def test_standing_wave_at_cutoff(self):
        # k3 = 0: two opposite purely transverse null waves.
        ka, kb = wk.plane_wave_pair(unit_mode(), 0.0, 0.0)
        assert np.allclose(np.array(ka[1:]) + np.array(kb[1:]), 0.0, atol=1e-15)
        assert ka.t == kb.t == pytest.approx(1.0, abs=1e-15)


def old_mass(md):
    """The cutoff as the property chain computed it."""
    return math.hypot(md.r * math.pi / md.spec.b1, md.s * math.pi / md.spec.b2)


def old_decompose(md, k3, azimuth=0.0):
    """decompose as composed from dispersion and the 4-vector sum k_L + k_T."""
    energy, p = wk.dispersion(md, k3)
    m = old_mass(md)
    c, s = math.cos(azimuth), math.sin(azimuth)
    eta = wk.FourMomentum(0.0, c, s, 0.0)
    k_T = wk.FourMomentum(0.0, m * c, m * s, 0.0)
    k_L = wk.FourMomentum(energy, 0.0, 0.0, p)
    return wk.DecomposedMomentum(k_L + k_T, k_L, k_T, eta)


def old_klein_gordon_residual(md, k3, azimuth=0.0):
    dec = old_decompose(md, k3, azimuth)
    kl2 = dec.k_L.norm2()
    return abs(kl2 - old_mass(md) ** 2), abs(kl2 + dec.k_T.norm2())


def old_plane_wave_pair(md, k3, azimuth=0.0):
    dec = old_decompose(md, k3, azimuth)
    k_L, k_T = dec.k_L, dec.k_T
    return dec.k_mu, wk.FourMomentum(k_L.t, k_L.x - k_T.x, k_L.y - k_T.y, k_L.z - k_T.z)


def bits(value):
    """Every float of a (nested) record as float.hex, so -0.0 differs from 0.0."""
    if isinstance(value, tuple):
        return [bits(v) for v in value]
    return float(value).hex()


def lean_cases():
    modes = [unit_mode(), wk.mode(wk.WaveguideSpec(2.0, 1.0), 2, 3),
             # m sin(-pi) underflows to -0.0 in the huge guide.
             wk.mode(wk.WaveguideSpec(1.7e308, 1.6e308), 1, 0)]
    rng = np.random.default_rng(18)
    modes += [reference_sample_mode(rng) for _ in range(20)]
    k3s = [0.0, -0.0, 1e-300, math.sqrt(3.0), 7.5, 1e300, math.nan] + rng.uniform(0.0, 5.0, 5).tolist()
    azimuths = [0.0, -0.0, math.pi, -math.pi, 0.5 * math.pi, 2.0 * math.pi, 1e6, math.nan] \
        + rng.uniform(0.0, 2.0 * math.pi, 5).tolist()
    return [(md, k3, az) for md in modes for k3 in k3s for az in azimuths]


class TestLeanRecords:
    """decompose and the residuals built on it against the old composition,
    bit for bit, signed zeros and nan included."""

    def test_mass_and_cutoff_are_the_old_getter(self):
        for md, _, _ in lean_cases()[::100]:
            assert md.mass.hex() == md.cutoff.hex() == old_mass(md).hex()

    def test_against_the_old_composition(self):
        for md, k3, az in lean_cases():
            dec = wk.decompose(md, k3, az)
            assert type(dec) is wk.DecomposedMomentum and {type(v) for v in dec} == {wk.FourMomentum}
            assert bits(dec) == bits(old_decompose(md, k3, az)), (md, k3, az)
            assert bits(wk.plane_wave_pair(md, k3, az)) == bits(old_plane_wave_pair(md, k3, az))
            assert bits(wk.klein_gordon_residual(md, k3, az)) == bits(old_klein_gordon_residual(md, k3, az))

    def test_signed_zeros_sum_to_zero(self):
        dec = wk.decompose(unit_mode(), -0.0, -0.0)
        assert bits(dec.k_L) == bits((1.0, 0.0, 0.0, -0.0))
        assert bits(dec.k_T) == bits((0.0, 1.0, -0.0, 0.0))
        assert bits(dec.k_mu) == bits((1.0, 1.0, 0.0, 0.0))
        huge = wk.mode(wk.WaveguideSpec(1.7e308, 1.6e308), 1, 0)
        dec = wk.decompose(huge, 0.0, -math.pi)
        assert bits(dec.k_T.y) == bits(-0.0) and bits(dec.k_mu.y) == bits(0.0)

    def test_negative_k3_rejected_alike(self):
        with pytest.raises(InvalidMode, match=r"^axial wavenumber must be >= 0, got -1e-300$"):
            wk.decompose(unit_mode(), -1e-300)
        with pytest.raises(InvalidMode, match=r"^axial wavenumber must be >= 0, got -1e-300$"):
            wk.dispersion(unit_mode(), -1e-300)


class TestModeRecord:
    """The cutoff is computed once, when a mode is built: it stays read-only,
    and every way of copying a mode gives the cutoff of a freshly built one."""

    @pytest.mark.parametrize("name", ["cutoff", "mass"])
    def test_cutoff_and_mass_cannot_be_set_or_deleted(self, name):
        md = wk.mode(wk.WaveguideSpec(2.0, 1.0), 2, 3)
        with pytest.raises(AttributeError):
            setattr(md, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(md, name)
        assert getattr(md, name).hex() == old_mass(md).hex()

    def test_copies_equal_a_fresh_mode(self):
        for md, _, _ in lean_cases()[::100]:
            fresh = wk.WaveguideMode(md.spec, md.r, md.s)
            copies = [pickle.loads(pickle.dumps(md, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            copies += [copy.copy(md), copy.deepcopy(md), md._replace(), md._replace(s=md.s)]
            for other in copies:
                assert type(other) is wk.WaveguideMode and other == fresh
                assert other.cutoff.hex() == other.mass.hex() == fresh.cutoff.hex() == old_mass(md).hex()

    @pytest.mark.parametrize("r, s", [(10 ** 400, 0), (1, 10 ** 400)], ids=["r", "s"])
    def test_an_index_past_the_float_range_fails_when_built(self, r, s):
        with pytest.raises(OverflowError, match="int too large to convert to float"):
            wk.mode(wk.WaveguideSpec(2.0, 1.0), r, s)


class TestBoost:
    def test_identity_at_zero_rapidity(self):
        v = wk.FourMomentum(2.0, 0.3, -0.4, 1.7)
        assert wk.boost(v, 0.0) == v

    def test_norm_invariance(self):
        for _ in range(100):
            v = wk.FourMomentum(*RNG.uniform(-3, 3, 4))
            chi = RNG.uniform(-2.0, 2.0)
            assert wk.boost(v, chi).norm2() == pytest.approx(v.norm2(), abs=1e-9)

    def test_overflowing_rapidity_is_a_domain_error(self):
        with pytest.raises(RapidityOverflow):
            wk.boost(wk.FourMomentum(2.0, 0.0, 0.0, 1.0), 1000.0)

    def test_rest_frame_reaches_apparent_mass(self):
        md = unit_mode()
        k3 = math.sqrt(3.0)
        dec = wk.decompose(md, k3)
        chi = wk.rest_frame_rapidity(md, k3)
        rest = wk.boost(dec.k_L, chi)
        assert rest.t == pytest.approx(md.mass, rel=1e-12)
        assert abs(rest.z) <= 1e-12

    def test_boosted_energy_minimum(self):
        # E'(chi) = E cosh chi - p sinh chi = m cosh(chi_min - chi): minimum m
        # exactly at chi_min = artanh(v_g).
        md = unit_mode()
        k3 = math.sqrt(3.0)
        energy, p = wk.dispersion(md, k3)
        chi_min = wk.rest_frame_rapidity(md, k3)
        for chi in np.linspace(-3.0, 3.0, 61):
            boosted = energy * math.cosh(chi) - p * math.sinh(chi)
            closed = md.mass * math.cosh(chi_min - chi)
            assert boosted == pytest.approx(closed, rel=1e-12)
            assert boosted >= md.mass - 1e-12


class TestTunneling:
    def test_same_guide_always_propagates(self):
        md = unit_mode()
        verdict = wk.tunneling_predicate(md, 2.0, md)
        assert verdict.propagates
        assert verdict.critical_rapidity is None

    def test_wider_guide_always_propagates(self):
        md = unit_mode()
        wider = wk.mode(wk.WaveguideSpec(2.0 * math.pi, math.pi), 1, 0)  # cutoff 1/2
        assert wk.tunneling_predicate(md, 5.0, wider).propagates

    def test_narrower_guide_has_critical_frame(self):
        # New cutoff 2 m_old: chi* satisfies m cosh(chi_min - chi*) = 2 m, so
        # chi* = chi_min - arcosh(2).
        md = unit_mode()
        narrow = wk.mode(wk.WaveguideSpec(math.pi / 2, math.pi / 4), 1, 0)  # cutoff 2
        k3 = 5.0
        verdict = wk.tunneling_predicate(md, k3, narrow)
        assert not verdict.propagates
        assert verdict.apparent_mass == pytest.approx(1.0, abs=1e-15)
        assert verdict.new_cutoff == pytest.approx(2.0, abs=1e-15)
        closed = wk.rest_frame_rapidity(md, k3) - math.acosh(2.0)
        assert verdict.critical_rapidity == pytest.approx(closed, abs=1e-9)

    @pytest.mark.parametrize("k3, chi_star", [(math.sqrt(3.0), 0.0), (3.0, 0.5015)])
    def test_critical_rapidity_boosts_onto_the_new_cutoff(self, k3, chi_star):
        md = unit_mode()
        narrow = wk.mode(wk.WaveguideSpec(math.pi / 2, math.pi / 4), 1, 0)  # cutoff 2
        verdict = wk.tunneling_predicate(md, k3, narrow)
        assert verdict.critical_rapidity == pytest.approx(chi_star, abs=1e-4)
        boosted = wk.boost(wk.decompose(md, k3).k_L, verdict.critical_rapidity)
        assert boosted.t == pytest.approx(narrow.cutoff, rel=1e-9)

    def test_verify_check_catches_a_wrong_rest_frame_rapidity(self, monkeypatch):
        # verify's closed form is spelled asinh - acosh through
        # rest_frame_rapidity, the verdict as a difference of logs: a wrong
        # rest-frame rapidity breaks their agreement.
        assert named_check(verify.kinematics_suite(seed=1), "kinematics.tunneling_predicate").passed
        monkeypatch.setattr(wk, "rest_frame_rapidity", lambda md, k3: 1.01 * math.asinh(k3 / md.mass))
        assert not named_check(verify.kinematics_suite(seed=1), "kinematics.tunneling_predicate").passed

    @pytest.mark.parametrize("side, shrinks, log10_k3_over_m", [
        # k3/m in [1e-3, 1e300] on a guide of order one.
        (1.0, (0.999, 0.9, 0.5), np.concatenate([np.linspace(-3.0, 12.0, 61), np.linspace(13.0, 300.0, 42)])),
        # Sides of 1e300 make m = pi/2e300, so p/m overflows a float for most
        # k3 here; the new guide is of order one.
        (1e300, (1e-300, 3e-301), np.linspace(300.0, 599.0, 30)),
    ])
    def test_critical_rapidity_against_mpmath_oracle(self, side, shrinks, log10_k3_over_m):
        # chi* = arsinh(p/m) - arcosh(omega_c'/m) in 50 digits, or 0 when the
        # photon is already below the new cutoff.
        md = wk.mode(wk.WaveguideSpec(2.0 * side, 1.0 * side), 1, 0)
        m = mpmath.mpf(md.mass)
        for shrink in shrinks:
            narrow = wk.mode(wk.WaveguideSpec(2.0 * side * shrink, 1.0 * side * shrink), 1, 0)
            for exponent in log10_k3_over_m:
                k3 = float(m * mpmath.mpf(10) ** exponent)
                verdict = wk.tunneling_predicate(md, k3, narrow)
                with mpmath.workdps(50):
                    p, wc = mpmath.mpf(k3), mpmath.mpf(narrow.cutoff)
                    below = mpmath.hypot(p, m) < wc
                    oracle = 0.0 if below else float(mpmath.asinh(p / m) - mpmath.acosh(wc / m))
                assert not verdict.propagates
                assert abs(verdict.critical_rapidity - oracle) <= 1e-9, (shrink, k3)

    @pytest.mark.parametrize("k3", [math.nan, math.inf])
    def test_non_finite_k3_has_no_verdict(self, k3):
        # max(0.0, nan) is 0.0, so without the guard both read as a confident
        # critical rapidity of 0.
        narrow = wk.mode(wk.WaveguideSpec(math.pi / 2, math.pi / 4), 1, 0)  # cutoff 2
        with pytest.raises(InvalidMode, match="axial wavenumber must be finite"):
            wk.tunneling_predicate(unit_mode(), k3, narrow)

    def test_negative_k3_keeps_the_dispersion_message(self):
        narrow = wk.mode(wk.WaveguideSpec(math.pi / 2, math.pi / 4), 1, 0)
        for k3 in (-1.0, -math.inf):
            with pytest.raises(InvalidMode, match="axial wavenumber must be >= 0"):
                wk.tunneling_predicate(unit_mode(), k3, narrow)

    def test_already_below_cutoff(self):
        md = unit_mode()
        narrow = wk.mode(wk.WaveguideSpec(math.pi / 4, math.pi / 8), 1, 0)  # cutoff 4
        verdict = wk.tunneling_predicate(md, 1.0, narrow)  # E = sqrt(2) < 4
        assert not verdict.propagates
        assert verdict.critical_rapidity == 0.0


class TestSIHelpers:
    def test_half_wavelength_identity(self):
        # Lowest mode: cutoff frequency = c / (2 b1), exactly.
        b1 = 0.02286
        fc = wk.cutoff_frequency_hz(b1, 0.01016, 1, 0)
        assert fc == pytest.approx(wk.C_LIGHT / (2.0 * b1), rel=1e-15)

    def test_x_band_reference_value(self):
        # WR-90 guide (22.86 mm x 10.16 mm): handbook cutoff 6.5566 GHz, our
        # exact value 6.5572 GHz; they agree to better than 0.01%.
        fc = wk.cutoff_frequency_hz(0.02286, 0.01016, 1, 0)
        assert abs(fc - 6.5566e9) / 6.5566e9 <= 1e-4

    def test_compton_wavelength_in_meters(self):
        b1 = 0.02286
        lam = wk.mode(wk.WaveguideSpec(b1, 0.01016), 1, 0).compton_wavelength
        assert lam == pytest.approx(b1 / math.pi, rel=1e-15)

"""Property test of the CLI exit-code contract: for any finite input, every
kinematics subcommand either prints finite records and exits 0, or prints a
one-line error and exits 2.  It never escapes with a traceback."""

import contextlib
import csv
import io
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonguide import cli
from photonguide import waveguide_kinematics as wk

# Boundary and extreme doubles: signed zeros, the smallest subnormal, the
# smallest normal, 1e+-300 and the largest finite double.
EDGES = [
    0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, sys.float_info.min, 1e-300, -1e-300,
    1e300, -1e300, sys.float_info.max, -sys.float_info.max,
]
FLOATS = st.one_of(
    st.sampled_from(EDGES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(0.1, 10.0),
)
INDICES = st.integers(-1, 4)
# Extra weight on ordinary guides and on frequencies above their cutoffs, so
# that a fair share of draws gets as far as printing records.
SIDES = st.one_of(st.floats(0.5, 5.0), FLOATS)
OMEGAS = st.one_of(st.floats(10.0, 1e3), FLOATS)

GUIDE = {"b1": SIDES, "b2": SIDES}
SUBCOMMANDS = {
    "modes": {**GUIDE, "max-r": st.integers(-1, 4), "max-s": st.integers(-1, 4), "si": st.booleans()},
    "dispersion": {
        **GUIDE, "r": INDICES, "s": INDICES, "omega-min": OMEGAS, "omega-max": OMEGAS,
        "steps": st.integers(0, 8), "si": st.booleans(),
    },
    "decompose": {**GUIDE, "r": INDICES, "s": INDICES, "k3": FLOATS, "azimuth": FLOATS},
    "boost": {"t": FLOATS, "x": FLOATS, "y": FLOATS, "z": FLOATS, "chi": FLOATS},
    "tunneling": {
        **GUIDE, "r": INDICES, "s": INDICES, "k3": FLOATS,
        "new-b1": SIDES, "new-b2": SIDES, "new-r": INDICES, "new-s": INDICES,
    },
}

# Columns that hold a word rather than a number.
TEXT_COLUMNS = {"verdict"}


def to_argv(command, values):
    argv = [command]
    for flag, value in values.items():
        if value is True:
            argv.append(f"--{flag}")
        elif value is not False:
            # --flag=value, so that a value such as -1e+300 is not read as a flag.
            argv.append(f"--{flag}={value!r}")
    return argv


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_exit_code_contract(command, data):
    argv = to_argv(command, data.draw(st.fixed_dictionaries(SUBCOMMANDS[command])))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (argv, err.getvalue())
        return
    assert err.getvalue() == ""
    for record in csv.DictReader(io.StringIO(out.getvalue())):
        for column, value in record.items():
            if value and column not in TEXT_COLUMNS:  # an empty field is a None
                assert math.isfinite(float(value)), (argv, column, value)


# Valid-domain inputs by construction: an ordinary guide, a mode that exists,
# a sweep range above that mode's cutoff and a second guide scaled narrower or
# wider.  Every draw must print finite records and exit 0.
VALID_SIDES = st.floats(0.5, 5.0)
MARGINS = st.floats(1e-3, 3.0)  # relative distance above cutoff


def cutoff(b1, b2, r, s):
    return wk.mode(wk.WaveguideSpec(max(b1, b2), min(b1, b2)), r, s).cutoff


@st.composite
def valid_dispersion(draw):
    b1, b2 = draw(VALID_SIDES), draw(VALID_SIDES)
    r, s = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    si = draw(st.booleans())
    wc = cutoff(b1, b2, r, s)
    lo, hi = (wc * (1.0 + draw(MARGINS)) for _ in range(2))
    if si:
        lo, hi = wk.omega_to_hz(lo), wk.omega_to_hz(hi)
    return {"b1": b1, "b2": b2, "r": r, "s": s, "omega-min": lo, "omega-max": hi,
            "steps": draw(st.integers(2, 8)), "si": si}


@st.composite
def valid_tunneling(draw):
    b1, b2 = draw(VALID_SIDES), draw(VALID_SIDES)
    scale = draw(st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 5.0)))
    return {
        "b1": b1, "b2": b2, "r": draw(st.integers(1, 3)), "s": draw(st.integers(0, 3)),
        "k3": draw(st.floats(0.0, 100.0)), "new-b1": scale * b1, "new-b2": scale * b2,
        "new-r": draw(st.integers(1, 3)), "new-s": draw(st.integers(0, 3)),
    }


@pytest.mark.parametrize("command, inputs", [("dispersion", valid_dispersion()), ("tunneling", valid_tunneling())])
@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_valid_inputs_print_finite_records(command, inputs, data):
    values = data.draw(inputs)
    argv = to_argv(command, values)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 0 and err.getvalue() == "", (argv, code, err.getvalue())
    records = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert len(records) == values.get("steps", 1)
    for record in records:
        for column, value in record.items():
            if value and column not in TEXT_COLUMNS:  # an empty field is a None
                assert math.isfinite(float(value)), (argv, column, value)

"""Command-line surface: mode tables, dispersion sweeps, decomposition,
boosts, tunneling verdicts and the verification suites.

Exit codes: 0 success, 1 verification-invariant violation, 2 bad input.
Identical flags plus seed produce byte-identical output.  A config file
(one ``key = value`` per line) may pre-set any flag of a subcommand;
explicit flags override the file.

Only ``verify`` loads numpy, inside :func:`cmd_verify`, and only its fock
suite loads scipy; the kinematics subcommands run on ``math`` alone and
start without either.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import output
from . import waveguide_kinematics as wk
from .errors import PhotonGuideError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2

# The --suite choices, in verify.SUITES order; spelled out so that building
# the parser does not import verify and, with it, numpy.
SUITE_NAMES = ("basis", "position", "fock", "dirac", "kinematics")

GUIDE_SIDE_HELP = "transverse side; the two may come in either order, and the larger is b1"


def _apply_config(argv: list[str]) -> tuple[list[str], list[tuple[str, str]]]:
    """Splice the flags of a key = value config file in right after the
    subcommand, so that flags given on the command line take precedence.
    Also the keys set to false, as (dest, 'path:line') pairs: ``false``
    leaves a switch unset, and :func:`main` rejects it for any other key."""
    path = None
    cleaned: list[str] = []
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--config":
            path = next(tokens, None)
            if path is None:
                raise PhotonGuideError("--config requires a path")
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
        else:
            cleaned.append(tok)
    if path is None:
        return cleaned, []
    if not cleaned:
        raise PhotonGuideError("--config given without a subcommand")
    try:
        # utf-8-sig: a leading byte-order mark is not part of the first key.
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise PhotonGuideError(f"{path}: not UTF-8 text") from None
    spliced, falses = cleaned[:1], []
    for line_no, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PhotonGuideError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if flag == "--config":
            raise PhotonGuideError(f"{path}:{line_no}: a config file cannot name another config file")
        if value.lower() == "true":
            spliced.append(flag)
        elif value.lower() == "false":
            falses.append((flag[2:].replace("-", "_"), f"{path}:{line_no}"))
        else:
            spliced.extend([flag, value])
    return spliced + cleaned[1:], falses


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finite_float(text: str) -> float:
    """argparse type for float flags: inf, nan and overflowing literals are
    bad input (exit 2), like any other malformed number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type for --seed: numpy seeds are non-negative integers."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


# --- subcommands ------------------------------------------------------------

def cmd_modes(args) -> int:
    spec = wk.WaveguideSpec(args.b1, args.b2)
    columns = ["r", "s", "fc_hz", "lambda_com_m"] if args.si else ["r", "s", "omega_c", "m", "lambda_com"]
    records = []
    for r in range(1, args.max_r + 1):
        for s in range(0, args.max_s + 1):
            md = wk.mode(spec, r, s)
            records.append((r, s, wk.omega_to_hz(md.cutoff), md.compton_wavelength) if args.si
                           else (r, s, md.cutoff, md.mass, md.compton_wavelength))
    # By cutoff, then r, then s.
    records.sort(key=lambda values: (values[2], values[0], values[1]))
    _emit(output.render([dict(zip(columns, values)) for values in records], columns, args.format), args.out)
    return EXIT_OK


def cmd_dispersion(args) -> int:
    md = wk.mode(wk.WaveguideSpec(args.b1, args.b2), args.r, args.s)
    if args.steps < 2:
        raise PhotonGuideError(f"need at least 2 sweep steps, got {args.steps}")
    if args.si:
        lo, hi = wk.hz_to_omega(args.omega_min), wk.hz_to_omega(args.omega_max)
    else:
        lo, hi = args.omega_min, args.omega_max
    if lo <= md.cutoff:
        raise PhotonGuideError(
            f"sweep range starts at or below cutoff ({lo} <= {md.cutoff}): below-cutoff "
            "propagation is evanescent; use the tunneling command"
        )
    columns = (["f_hz", "k3_per_m", "vg_mps", "vp_mps", "lambda_g_m", "kg_residual"] if args.si
               else ["omega", "k3", "E", "p", "vg", "vp", "lambda_g", "kg_residual"])
    rows = []
    for i in range(args.steps):
        w = lo + (hi - lo) * i / (args.steps - 1)
        vg, vp, lambda_g = wk.velocities(md, w)
        k3 = wk.axial_wavenumber(md, w).k3
        energy, p = wk.dispersion(md, k3)
        kg = max(wk.klein_gordon_residual(md, k3))
        values = ((wk.omega_to_hz(w), k3, vg * wk.C_LIGHT, vp * wk.C_LIGHT, lambda_g, kg) if args.si
                  else (w, k3, energy, p, vg, vp, lambda_g, kg))
        rows.append(dict(zip(columns, values)))
    # Rendered first, so that rejected records leave no chart; the chart is
    # written before the records, so that a failed write leaves stdout empty.
    text = output.render(rows, columns, args.format)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(output.dispersion_svg([(row[columns[0]], row[columns[1]]) for row in rows]))
    _emit(text, args.out)
    return EXIT_OK


def cmd_decompose(args) -> int:
    md = wk.mode(wk.WaveguideSpec(args.b1, args.b2), args.r, args.s)
    dec = wk.decompose(md, args.k3, args.azimuth)
    row = {
        "omega": dec.k_mu.t,
        "kx": dec.k_mu.x, "ky": dec.k_mu.y, "kz": dec.k_mu.z,
        # + 0.0: a k3 of -0.0 prints as 0 in p as in kz, the sum k_L.z + k_T.z.
        "E": dec.k_L.t, "p": dec.k_L.z + 0.0,
        "kTx": dec.k_T.x, "kTy": dec.k_T.y, "kTz": dec.k_T.z,
        "null_residual": abs(dec.k_mu.mdot(dec.k_mu)),
        "ortho_residual": abs(dec.k_L.mdot(dec.k_T)),
        "eta_norm_residual": abs(dec.eta.mdot(dec.eta) + 1.0),
    }
    _emit(output.render([row], list(row), args.format), args.out)
    return EXIT_OK


def cmd_boost(args) -> int:
    before = wk.FourMomentum(args.t, args.x, args.y, args.z)
    after = wk.boost(before, args.chi)
    row = {
        "t": after.t, "x": after.x, "y": after.y, "z": after.z,
        "norm2_before": before.norm2(),
        "norm2_after": after.norm2(),
    }
    _emit(output.render([row], list(row), args.format), args.out)
    return EXIT_OK


def cmd_tunneling(args) -> int:
    old = wk.mode(wk.WaveguideSpec(args.b1, args.b2), args.r, args.s)
    new = wk.mode(wk.WaveguideSpec(args.new_b1, args.new_b2), args.new_r, args.new_s)
    verdict = wk.tunneling_predicate(old, args.k3, new)
    row = {
        "m_old": verdict.apparent_mass,
        "lambda_com": old.compton_wavelength,
        "omega_c_new": verdict.new_cutoff,
        "verdict": "Propagates" if verdict.propagates else "EvanescentInSomeFrame",
        "chi_star": verdict.critical_rapidity,
    }
    _emit(output.render([row], list(row), args.format), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    position = {"include_weight_term": not args.no_weight_term}
    results = []
    for name in verify.SUITES if args.suite == "all" else [args.suite]:
        results.extend(verify.SUITES[name](seed=args.seed, **(position if name == "position" else {})))
    statuses = ["PASS" if c.passed else "FAIL" for c in results]
    if args.format is not None:
        columns = ["check", "status", "residual", "tol"]
        rows = [
            dict(zip(columns, (c.name, status, c.residual if math.isfinite(c.residual) else None, c.tol)))
            for c, status in zip(results, statuses)
        ]
        text = output.render(rows, columns, args.format)
    else:
        lines = [f"{status} {c.name} residual={output.fmt_value(c.residual)} "
                 f"{'>' if c.residual > c.tol else '<=' if c.residual <= c.tol else 'vs'} tol={output.fmt_value(c.tol)}"
                 for c, status in zip(results, statuses)]
        text = "\n".join(lines + [f"{statuses.count('PASS')}/{len(results)} checks passed"]) + "\n"
    _emit(text, args.out)
    return EXIT_OK if "FAIL" not in statuses else EXIT_VIOLATION


# --- parser -----------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, default_format: str | None = "csv") -> None:
    p.add_argument("--format", choices=["csv", "json"], default=default_format)
    p.add_argument("--out", default=None, help="write records to this path instead of stdout")
    p.add_argument("--config", default=None, help="key = value file pre-setting any flag")


def _add_guide(p: argparse.ArgumentParser) -> None:
    p.add_argument("--b1", type=_finite_float, required=True, help=GUIDE_SIDE_HELP)
    p.add_argument("--b2", type=_finite_float, required=True, help=GUIDE_SIDE_HELP)


def build_parser() -> argparse.ArgumentParser:
    # Flags match only as spelled: argparse would take a unique prefix as the flag.
    parser_class = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = parser_class(
        prog="photonguide",
        description="Waveguide photon kinematics and position-operator verification",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=parser_class)

    p = sub.add_parser("modes", help="cutoff / apparent-mass table, sorted by cutoff")
    _add_guide(p)
    p.add_argument("--max-r", type=int, default=3)
    p.add_argument("--max-s", type=int, default=3)
    p.add_argument("--si", action="store_true", help="dimensions in meters, output in hertz")
    _add_common(p)
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("dispersion", help="sweep E, k3, velocities over a frequency range")
    _add_guide(p)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--omega-min", type=_finite_float, required=True)
    p.add_argument("--omega-max", type=_finite_float, required=True)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--si", action="store_true", help="dimensions in meters, range in hertz")
    p.add_argument("--svg", default=None, help="also write a minimal SVG dispersion chart")
    _add_common(p)
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("decompose", help="orthogonal 4-momentum split k = k_L + m eta")
    _add_guide(p)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--k3", type=_finite_float, required=True)
    p.add_argument("--azimuth", type=_finite_float, default=0.0)
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("boost", help="boost a 4-vector along the guide axis")
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--x", type=_finite_float, default=0.0)
    p.add_argument("--y", type=_finite_float, default=0.0)
    p.add_argument("--z", type=_finite_float, default=0.0)
    p.add_argument("--chi", type=_finite_float, required=True, help="rapidity")
    _add_common(p)
    p.set_defaults(func=cmd_boost)

    p = sub.add_parser("tunneling", help="does the photon propagate in a new guide in every frame?")
    _add_guide(p)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--k3", type=_finite_float, required=True)
    p.add_argument("--new-b1", type=_finite_float, required=True, help=GUIDE_SIDE_HELP)
    p.add_argument("--new-b2", type=_finite_float, required=True, help=GUIDE_SIDE_HELP)
    p.add_argument("--new-r", type=int, default=1)
    p.add_argument("--new-s", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_tunneling)

    p = sub.add_parser("verify", help="run the numerical verification suites")
    p.add_argument("--suite", choices=["all", *SUITE_NAMES], default="all")
    p.add_argument("--seed", type=_non_negative_int, default=42)
    p.add_argument("--no-weight-term", action="store_true", help=argparse.SUPPRESS)
    # Without --format, verify prints one text line per check and a summary.
    _add_common(p, default_format=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, falses = _apply_config(argv)
        args = build_parser().parse_args(argv)
        for dest, where in falses:
            if not isinstance(getattr(args, dest, None), bool):
                raise PhotonGuideError(f"{where}: only a switch can be false, "
                                       f"and {dest} is not a switch of {args.command}")
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on malformed flags and 0 for --help; keep both.
        return int(exc.code) if exc.code else EXIT_OK
    except (PhotonGuideError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except OverflowError as exc:
        print(f"error: a result overflowed a float: {exc}", file=sys.stderr)
    return EXIT_BAD_INPUT

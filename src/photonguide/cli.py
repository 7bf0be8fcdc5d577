"""Command-line surface: mode tables, dispersion sweeps, decomposition,
boosts, tunneling verdicts and the verification suites.

Exit codes: 0 success, 1 verification-invariant violation, 2 bad input.
Identical flags plus seed produce byte-identical output.  A config file
(one ``key = value`` per line) may pre-set any flag of a subcommand;
explicit flags override the file.

Only ``verify`` loads numpy and scipy, inside :func:`cmd_verify`; the
kinematics subcommands run on ``math`` alone and start without them.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import output
from . import waveguide_kinematics as wk
from .errors import PhotonGuideError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2

# The --suite choices, in verify.SUITES order; spelled out so that building
# the parser does not import verify and, with it, numpy and scipy.
SUITE_NAMES = ("basis", "position", "fock", "dirac", "kinematics")


def _load_config(path: str) -> list[str]:
    """Turn a key = value config file into a flat argument list."""
    tokens: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise PhotonGuideError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    tokens.append(flag)
            else:
                tokens.extend([flag, value])
    return tokens


def _apply_config(argv: list[str]) -> list[str]:
    """Splice config-file tokens in right after the subcommand, so that flags
    given on the command line take precedence."""
    path = None
    cleaned: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            if i + 1 >= len(argv):
                raise PhotonGuideError("--config requires a path")
            path = argv[i + 1]
            i += 2
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            i += 1
        else:
            cleaned.append(tok)
            i += 1
    if path is None:
        return cleaned
    if not cleaned:
        raise PhotonGuideError("--config given without a subcommand")
    return cleaned[:1] + _load_config(path) + cleaned[1:]


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


def _spec(args, b1="b1", b2="b2") -> wk.WaveguideSpec:
    # The sides may be given in either order; the larger becomes b1 here, so
    # the library's swap warning never reaches stderr.
    sides = sorted((getattr(args, b1), getattr(args, b2)), reverse=True)
    return wk.WaveguideSpec(*sides)


# --- subcommands ------------------------------------------------------------

def cmd_modes(args) -> int:
    spec = _spec(args)
    rows = []
    for r in range(1, args.max_r + 1):
        for s in range(0, args.max_s + 1):
            md = wk.mode(spec, r, s)
            if args.si:
                rows.append({"r": r, "s": s, "fc_hz": wk.omega_to_hz(md.cutoff), "lambda_com_m": md.compton_wavelength})
            else:
                rows.append({
                    "r": r, "s": s,
                    "omega_c": md.cutoff, "m": md.mass, "lambda_com": md.compton_wavelength,
                })
    key = "fc_hz" if args.si else "omega_c"
    rows.sort(key=lambda row: (row[key], row["r"], row["s"]))
    columns = ["r", "s", "fc_hz", "lambda_com_m"] if args.si else ["r", "s", "omega_c", "m", "lambda_com"]
    _emit(output.render(rows, columns, args.format), args.out)
    return EXIT_OK


def cmd_dispersion(args) -> int:
    spec = _spec(args)
    md = wk.mode(spec, args.r, args.s)
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
    rows = []
    for i in range(args.steps):
        w = lo + (hi - lo) * i / (args.steps - 1)
        vg, vp, lambda_g = wk.velocities(md, w)
        k3 = wk.axial_wavenumber(md, w).k3
        energy, p = wk.dispersion(md, k3)
        shell, null_chain = wk.klein_gordon_residual(md, k3)
        kg = max(shell, null_chain)
        if args.si:
            rows.append({
                "f_hz": wk.omega_to_hz(w),
                "k3_per_m": k3,
                "vg_mps": vg * wk.C_LIGHT,
                "vp_mps": vp * wk.C_LIGHT,
                "lambda_g_m": lambda_g,
                "kg_residual": kg,
            })
        else:
            rows.append({
                "omega": w, "k3": k3, "E": energy, "p": p,
                "vg": vg, "vp": vp, "lambda_g": lambda_g, "kg_residual": kg,
            })
    columns = (
        ["f_hz", "k3_per_m", "vg_mps", "vp_mps", "lambda_g_m", "kg_residual"]
        if args.si
        else ["omega", "k3", "E", "p", "vg", "vp", "lambda_g", "kg_residual"]
    )
    _emit(output.render(rows, columns, args.format), args.out)
    if args.svg:
        plot_rows = rows if not args.si else [
            {"omega": row["f_hz"], "k3": row["k3_per_m"]} for row in rows
        ]
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(output.dispersion_svg(plot_rows))
    return EXIT_OK


def cmd_decompose(args) -> int:
    md = wk.mode(_spec(args), args.r, args.s)
    dec = wk.decompose(md, args.k3, args.azimuth)
    row = {
        "omega": dec.k_mu.t,
        "kx": dec.k_mu.x, "ky": dec.k_mu.y, "kz": dec.k_mu.z,
        "E": dec.k_L.t, "p": dec.k_L.z,
        "kTx": dec.k_T.x, "kTy": dec.k_T.y, "kTz": dec.k_T.z,
        "null_residual": abs(dec.k_mu.mdot(dec.k_mu)),
        "ortho_residual": abs(dec.k_L.mdot(dec.k_T)),
        "eta_norm_residual": abs(dec.eta.mdot(dec.eta) + 1.0),
    }
    columns = list(row.keys())
    _emit(output.render([row], columns, args.format), args.out)
    return EXIT_OK


def cmd_boost(args) -> int:
    before = wk.FourMomentum(args.t, args.x, args.y, args.z)
    after = wk.boost(before, args.chi)
    row = {
        "t": after.t, "x": after.x, "y": after.y, "z": after.z,
        "norm2_before": before.norm2(),
        "norm2_after": after.norm2(),
    }
    _emit(output.render([row], list(row.keys()), args.format), args.out)
    return EXIT_OK


def cmd_tunneling(args) -> int:
    old = wk.mode(_spec(args), args.r, args.s)
    new = wk.mode(_spec(args, "new_b1", "new_b2"), args.new_r, args.new_s)
    verdict = wk.tunneling_predicate(old, args.k3, new)
    row = {
        "m_old": verdict.apparent_mass,
        "lambda_com": old.compton_wavelength,
        "omega_c_new": verdict.new_cutoff,
        "verdict": "Propagates" if verdict.propagates else "EvanescentInSomeFrame",
        "chi_star": verdict.critical_rapidity,
    }
    _emit(output.render([row], list(row.keys()), args.format), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    results = verify.run_suites(names, seed=args.seed, h=args.h, include_weight_term=not args.no_weight_term)
    failed = sum(1 for c in results if not c.passed)
    if args.format is not None:
        rows = [
            {"check": c.name, "status": "PASS" if c.passed else "FAIL",
             "residual": c.residual if math.isfinite(c.residual) else None, "tol": c.tol}
            for c in results
        ]
        _emit(output.render(rows, ["check", "status", "residual", "tol"], args.format), args.out)
        return EXIT_OK if failed == 0 else EXIT_VIOLATION
    lines = []
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        bound = ">" if check.residual > check.tol else "<=" if check.residual <= check.tol else "vs"
        lines.append(
            f"{status} {check.name} residual={output.fmt_value(check.residual)} {bound} tol={output.fmt_value(check.tol)}"
        )
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if failed == 0 else EXIT_VIOLATION


# --- parser -----------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, default_format: str | None = "csv") -> None:
    p.add_argument("--format", choices=["csv", "json"], default=default_format)
    p.add_argument("--out", default=None, help="write records to this path instead of stdout")
    p.add_argument("--config", default=None, help="key = value file pre-setting any flag")


def _add_guide(p: argparse.ArgumentParser) -> None:
    p.add_argument("--b1", type=_finite_float, required=True, help="larger transverse dimension")
    p.add_argument("--b2", type=_finite_float, required=True, help="smaller transverse dimension")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonguide",
        description="Waveguide photon kinematics and position-operator verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
    p.add_argument("--new-b1", type=_finite_float, required=True)
    p.add_argument("--new-b2", type=_finite_float, required=True)
    p.add_argument("--new-r", type=int, default=1)
    p.add_argument("--new-s", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_tunneling)

    p = sub.add_parser("verify", help="run the numerical verification suites")
    p.add_argument("--suite", choices=["all", *SUITE_NAMES], default="all")
    p.add_argument("--seed", type=_non_negative_int, default=42)
    p.add_argument("--h", type=_finite_float, default=1e-4, help="finite-difference step")
    p.add_argument("--no-weight-term", action="store_true", help=argparse.SUPPRESS)
    # Without --format, verify prints one text line per check and a summary.
    _add_common(p, default_format=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
    except (PhotonGuideError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on malformed flags and 0 for --help; keep both.
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (PhotonGuideError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OverflowError as exc:
        print(f"error: a result overflowed a float: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: print operators, verify anticommuting partners,
solve spectra, scan a parameter to CSV, search for chiral partners, and dump
characteristic polynomials.

Exit codes: 0 success / verified, 1 clean negative result, 2 input or usage
error. CSV output uses 17 significant digits (round-trip exact for doubles);
human-readable tables use 6.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import charpoly, chiral, linalg, models
from .angmom import MAX_HILBERT_DIM, SpinLabel, build_spin_operators
from .chiral import Symmetry
from .rotations import CompositeRotation, RotationSpec, composite_matrix

TEXT_DIGITS = 6

# scan holds one step's model at a time; only its grid of --steps values
# grows with --steps (8 bytes each, so 128 MiB)
SCAN_MAX_STEPS = 1 << 24

_OPERATOR_NAMES = ("jx", "jy", "jz", "jplus", "jminus", "jsq")


def _fmt(x, digits: int = TEXT_DIGITS) -> str:
    return f"{float(x):.{digits}g}"


def _write(path, text):
    """Write text plus a newline to ``path``, or print it to stdout."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(args, lines_or_payload, path):
    """Write text lines or, with --format json, a JSON payload to ``path``
    or stdout."""
    if args.format == "json":
        _write(path, json.dumps(lines_or_payload[1], indent=2, sort_keys=True))
    else:
        _write(path, "\n".join(lines_or_payload[0]))


def _matrix_lines(m) -> list[str]:
    width = TEXT_DIGITS + 8
    lines = []
    for title, block in (("real part:", m.real), ("imag part:", m.imag)):
        lines.append(title)
        for row in block:
            lines.append("".join(f"{v:>{width}.{TEXT_DIGITS}g}" for v in row))
    return lines


def _matrix_entries(m) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in m.reshape(-1)]


def _rotation_payload(rot: CompositeRotation) -> dict:
    return {
        "description": rot.describe(),
        "factors": [
            {"slot": f.slot, "axis": list(f.axis), "angle": f.angle}
            for f in rot.factors
        ],
    }


def _verdict_payload(verdict) -> dict:
    return {
        "kind": verdict.kind.value,
        "residual_commute": verdict.residual_commute,
        "residual_anticommute": verdict.residual_anticommute,
    }


def _pairing_payload(report) -> dict:
    return {
        "pairs": [list(p) for p in report.pairs],
        "zero_modes": report.zero_modes,
        "is_chiral_paired": report.is_chiral_paired,
        "max_mismatch": report.max_mismatch,
    }


def _rotation_from_text(text) -> CompositeRotation:
    """Parse an explicit rotation: one {"slot","axis","angle"} object or a
    list of them. "slot" defaults to 0."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"rotation is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("rotation is nested too deeply to parse") from None
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list) or not doc:
        raise ValueError("rotation must be a JSON object or non-empty list of objects")
    factors = []
    for entry in doc:
        if not isinstance(entry, dict):
            raise ValueError("each rotation factor must be a JSON object")
        unknown = set(entry) - {"slot", "axis", "angle"}
        if unknown:
            raise ValueError(f"unknown rotation keys: {sorted(unknown)}")
        if "axis" not in entry or "angle" not in entry:
            raise ValueError('rotation factors need "axis" and "angle"')
        factors.append(RotationSpec(entry.get("slot", 0), entry["axis"], entry["angle"]))
    return CompositeRotation(tuple(factors))


def _tolerance(text) -> float:
    """argparse type for --tol: a finite positive real."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def cmd_ops(args) -> int:
    label = SpinLabel.parse(args.j)
    matrix = getattr(build_spin_operators(label), args.which)
    lines = [f"{args.which} for j = {label} (dim {label.dim}, hbar = 1)"]
    lines += _matrix_lines(matrix)
    payload = {
        "j": str(label),
        "which": args.which,
        "dim": label.dim,
        "entries": _matrix_entries(matrix),
    }
    _emit(args, (lines, payload), args.out)
    return 0


def cmd_verify(args) -> int:
    built = models.build(models.load_model_file(args.model_file))
    tag, shifted = built.spec.tag, built.shifted
    if args.rotation == "auto":
        rot = built.chiral_partner
        if rot is None:
            lines = [
                f"model: {tag}",
                "rotation: auto (no partner: chiral condition unmet)",
                f"condition: {built.condition_note}",
                "verdict: not verified",
            ]
            payload = {
                "model": tag,
                "rotation": None,
                "chiral_condition_met": False,
                "condition_note": built.condition_note,
                "verified": False,
            }
            _emit(args, (lines, payload), args.out)
            return 1
    else:
        rot = _rotation_from_text(args.rotation)
    verdict = chiral.classify(composite_matrix(rot, built.dims), shifted, args.tol)
    _, pairing = chiral.spectral_pairing(shifted)
    verified = (
        verdict.kind in (Symmetry.ANTICOMMUTING, Symmetry.BOTH)
        and pairing.is_chiral_paired
    )
    lines = [
        f"model: {tag} (dim {shifted.shape[0]}, shift {_fmt(built.shift)})",
        f"rotation: {rot.describe()}",
        f"verdict: {verdict.kind.value} "
        f"(commute residual {verdict.residual_commute:.3e}, "
        f"anticommute residual {verdict.residual_anticommute:.3e})",
        f"pairing: {'ok' if pairing.is_chiral_paired else 'FAILED'} "
        f"({len(pairing.pairs)} pairs, {pairing.zero_modes} zero modes, "
        f"max mismatch {pairing.max_mismatch:.3e})",
        f"condition: {built.condition_note}",
        f"verified: {'yes' if verified else 'no'}",
    ]
    payload = {
        "model": tag,
        "dim": shifted.shape[0],
        "shift": built.shift,
        "rotation": _rotation_payload(rot),
        "verdict": _verdict_payload(verdict),
        "pairing": _pairing_payload(pairing),
        "chiral_condition_met": built.chiral_condition_met,
        "condition_note": built.condition_note,
        "verified": verified,
    }
    _emit(args, (lines, payload), args.out)
    return 0 if verified else 1


def _spectrum_lines(tag, built, report, closed_phys, numeric_phys) -> list[str]:
    lines = [
        f"model: {tag} (dim {built.shifted.shape[0]}, shift {_fmt(built.shift)})",
        f"method: {report.method.value}",
        f"parity_ok (shifted): {report.parity_ok}",
    ]
    if closed_phys is not None:
        lines.append(f"{'closed form':>16} {'numeric':>16}")
        for c, n in zip(closed_phys, numeric_phys):
            lines.append(f"{_fmt(c):>16} {_fmt(n):>16}")
        lines.append(f"max |closed - numeric| = {report.max_root_deviation:.3e}")
    else:
        lines.append(f"{'numeric':>16}")
        for n in numeric_phys:
            lines.append(f"{_fmt(n):>16}")
    return lines


def cmd_spectrum(args) -> int:
    built = models.build(models.load_model_file(args.model_file))
    tag, shifted = built.spec.tag, built.shifted
    if args.method == "numeric":
        numeric = linalg.hermitian_eigensolve(shifted, vectors=False).eigenvalues + built.shift
        lines = [
            f"model: {tag} (dim {shifted.shape[0]})",
            "method: numeric_only (requested)",
            f"{'numeric':>16}",
        ]
        lines += [f"{_fmt(v):>16}" for v in numeric]
        payload = {
            "model": tag,
            "method": "numeric_only",
            "eigenvalues_numeric": [float(v) for v in numeric],
        }
        _emit(args, (lines, payload), args.out)
        return 0
    report = charpoly.full_solve(shifted)
    # the polynomial pipeline works on H - shift; add the shift back so both
    # columns are physical energies
    numeric_phys = [v + built.shift for v in report.numeric_eigenvalues]
    closed_phys = None
    if report.closed_form_eigenvalues is not None:
        closed_phys = [v + built.shift for v in report.closed_form_eigenvalues]
    if args.method == "radicals" and report.method is not charpoly.SolveMethod.RADICALS:
        reason = (
            f"radicals unavailable for dim {shifted.shape[0]}: "
            f"classifier says {report.method.value}"
            + ("" if report.parity_ok else " (characteristic polynomial is not even)")
        )
        print(reason, file=sys.stderr)
        return 1
    lines = _spectrum_lines(tag, built, report, closed_phys, numeric_phys)
    payload = {
        "model": tag,
        "dim": shifted.shape[0],
        "shift": built.shift,
        "method": report.method.value,
        "parity_ok": report.parity_ok,
        "charpoly_shifted": None if report.charpoly is None else list(report.charpoly.coeffs),
        "eigenvalues_numeric": numeric_phys,
        "eigenvalues_closed_form": closed_phys,
        "max_root_deviation": report.max_root_deviation,
    }
    _emit(args, (lines, payload), args.out)
    return 0


def _scan_step(built, param):
    """Pair the eigenvalues of one scanned model's H - shift, computed
    without eigenvectors or the partner: (parameter value, physical
    eigenvalues, pairing report)."""
    eigs, report = chiral.spectral_pairing(built.shifted)
    return getattr(built.spec, param), eigs + built.shift, report


def cmd_scan(args) -> int:
    spec = models.load_model_file(args.model_file)
    if not 1 <= args.steps <= SCAN_MAX_STEPS:
        raise ValueError(f"--steps must be between 1 and {SCAN_MAX_STEPS}, got {args.steps}")
    if not args.out:
        raise ValueError("scan writes CSV and requires --out PATH")
    if not math.isfinite(args.stop - args.start):
        raise ValueError("--from and --to must be finite and differ by a finite amount, "
                         f"got {args.start!r} and {args.stop!r}")
    # step 1 runs before --out is opened, so a bad name, model or first value leaves no file
    grid = np.linspace(args.start, args.stop, args.steps)
    solved = (_scan_step(built, args.param) for built in models.iter_parameter_sweep(spec, args.param, grid))
    first = next(solved)
    header = (
        ["param", args.param]
        + [f"lambda_{i}" for i in range(1, len(first[1]) + 1)]
        + ["pairing_ok", "max_pair_mismatch"]
    )
    # one format per row; "%.17g" % x is f"{x:.17g}", and the name is an
    # identifier (the sweep checked it), so it holds no "%"
    row = f"{args.param},%.17g{',%.17g' * len(first[1])},%s,%.17g\n"
    failure = None
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        try:
            fh.write(",".join(header) + "\n")
            for value, eigs, report in itertools.chain([first], solved):
                fh.write(row % (value, *eigs.tolist(), "true" if report.is_chiral_paired else "false",
                                report.max_mismatch))
                if failure is None and not report.is_chiral_paired:
                    failure = {"param_value": value, "max_pair_mismatch": report.max_mismatch}
        except BaseException:
            fh.close()
            # remove the partial CSV, never a device or link (/dev/null, /dev/stdout)
            if os.path.isfile(args.out) and not os.path.islink(args.out):
                os.remove(args.out)
            raise
    summary = (
        "all rows chiral-paired"
        if failure is None
        else (
            f"pairing FAILED first at {args.param} = {_fmt(failure['param_value'])} "
            f"(mismatch {failure['max_pair_mismatch']:.3e})"
        )
    )
    payload = {"rows": args.steps, "out": args.out, "all_paired": failure is None, "first_failure": failure}
    # --out holds the CSV, so the summary goes to stdout
    _emit(args, ([f"wrote {args.steps} rows to {args.out}; {summary}"], payload), None)
    return 0


def _is_positive_integer(value) -> bool:
    if isinstance(value, float):
        return value.is_integer() and value >= 1
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _entry_part(value) -> float:
    try:
        return float(value)
    except OverflowError:  # an int beyond the double range, rejected as 1e400 is
        return math.inf


def _matrix_from_doc(doc, origin):
    unknown = set(doc) - {"dims", "entries"}
    if unknown:
        raise ValueError(f"{origin}: unknown keys {sorted(unknown)}")
    raw = doc["dims"]
    if not isinstance(raw, list) or not raw or not all(_is_positive_integer(d) for d in raw):
        raise ValueError(f"{origin}: dims must be a non-empty list of positive integers, got {raw!r}")
    dims = tuple(int(d) for d in raw)
    n = math.prod(dims)
    if n > MAX_HILBERT_DIM:
        raise ValueError(f"{origin}: matrix has dimension {n}, above the limit {MAX_HILBERT_DIM}")
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != n * n:
        raise ValueError(f"{origin}: expected {n * n} [re, im] entries")
    # each entry unpacks as a pair, as ``re, im = entry`` unpacks it (a
    # two-character string too), and every part is a number or a numeric
    # string; an int beyond the double range reads as inf
    try:
        if set(map(len, entries)) != {2}:
            raise TypeError("matrix entries must be pairs")
        parts = list(itertools.chain.from_iterable(entries))
        if bool in set(map(type, parts)):
            raise TypeError("boolean matrix entry")
        try:
            flat = np.fromiter(map(float, parts), float, len(parts))
        except OverflowError:
            flat = np.fromiter(map(_entry_part, parts), float, len(parts))
    except (TypeError, ValueError):
        raise ValueError(f"{origin}: entries must be [re, im] pairs of numbers") from None
    h = linalg.require_hermitian(flat.view(np.complex128).reshape(n, n), f"{origin}: matrix")
    return h, dims


def cmd_search(args) -> int:
    doc = models.read_json_file(args.input_file)
    if not isinstance(doc, dict):
        raise ValueError(f"{args.input_file}: expected a JSON object")
    if "model" in doc:
        built = models.build(models.load_model_file(args.input_file, doc))
        origin, h, dims = built.spec.tag, built.shifted, built.dims
    elif {"dims", "entries"} <= set(doc):
        h, dims = _matrix_from_doc(doc, args.input_file)
        origin = "matrix"
    else:
        raise ValueError(
            f"{args.input_file}: expected a model document or a matrix document "
            'with "dims" and "entries"'
        )
    hits = chiral.search_partners(h, dims, tol=args.tol)
    lines = [f"search over {origin} (dim {h.shape[0]}, subsystems {list(dims)}):"]
    if hits:
        lines += [
            f"  {hit.describe()}  anticommute residual {verdict.residual_anticommute:.3e}"
            for hit, verdict in hits
        ]
    else:
        lines.append("  no anticommuting rotation in the candidate family")
    payload = {
        "input": origin,
        "dims": list(dims),
        "count": len(hits),
        "hits": [
            {**_rotation_payload(hit), "residual_anticommute": verdict.residual_anticommute}
            for hit, verdict in hits
        ],
    }
    _emit(args, (lines, payload), args.out)
    return 0 if hits else 1


def cmd_charpoly(args) -> int:
    built = models.build(models.load_model_file(args.model_file))
    tag, shifted = built.spec.tag, built.shifted
    report = charpoly.full_solve(shifted)
    poly, reduced = report.charpoly, report.reduced
    if poly is None:
        print(f"characteristic polynomial unavailable for dim {shifted.shape[0]}: "
              f"{report.charpoly_unavailable}", file=sys.stderr)
        return 1
    lines = [
        f"model: {tag} (dim {poly.dim}, shift {_fmt(built.shift)})",
        "coefficients of det(H - shift - lambda), ascending in lambda:",
        "  " + ", ".join(_fmt(c) for c in poly.coeffs),
        f"parity_ok: {report.parity_ok}",
        f"zero-root multiplicity: {report.zero_root_multiplicity}",
    ]
    if reduced is not None:
        lines.append("reduced polynomial in mu = lambda^2, ascending:")
        lines.append("  " + ", ".join(_fmt(c) for c in reduced.mu_coeffs))
    payload = {
        "model": tag,
        "dim": poly.dim,
        "shift": built.shift,
        "coefficients": list(poly.coeffs),
        "parity_ok": report.parity_ok,
        "zero_root_multiplicity": report.zero_root_multiplicity,
        "mu_coefficients": None if reduced is None else list(reduced.mu_coeffs),
    }
    _emit(args, (lines, payload), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # global flags live on a parent so they are accepted both before and
    # after the subcommand; SUPPRESS keeps the subparser from clobbering a
    # value parsed at the top level, and main supplies the defaults
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"),
                        default=argparse.SUPPRESS,
                        help="output format (default text)")
    common.add_argument("--tol", type=_tolerance, default=argparse.SUPPRESS,
                        help="override the classification tolerance, finite and "
                             "positive (default 1e-10)")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write output to this path (scan: the CSV file)")

    parser = argparse.ArgumentParser(
        prog="chiralspin",
        parents=[common],
        description=(
            "Angular-momentum Hamiltonians, anticommuting rotation symmetries, "
            "and radical-solvable spectra (hbar = 1)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ops", parents=[common],
                       help="print an angular momentum operator matrix")
    p.add_argument("--j", required=True, help='spin label, e.g. "1/2", "1", "5/2"')
    p.add_argument("--which", required=True, choices=_OPERATOR_NAMES)
    p.set_defaults(func=cmd_ops)

    p = sub.add_parser("verify", parents=[common],
                       help="verify an anticommuting partner and spectral pairing")
    p.add_argument("model_file")
    p.add_argument("--rotation", default="auto",
                   help='"auto" (documented partner) or JSON like '
                        '{"slot":0,"axis":[0,0,1],"angle":"pi"}')
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", parents=[common],
                       help="closed-form and numeric eigenvalues")
    p.add_argument("model_file")
    p.add_argument("--method", choices=("auto", "numeric", "radicals"), default="auto")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("scan", parents=[common],
                       help="sweep one parameter and write spectra to CSV")
    p.add_argument("model_file")
    p.add_argument("--param", required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("search", parents=[common],
                       help="search rotation products for anticommuting partners")
    p.add_argument("input_file",
                   help="model file, or matrix file with dims + row-major [re, im] entries")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("charpoly", parents=[common],
                       help="characteristic polynomial and parity reduction")
    p.add_argument("model_file")
    p.set_defaults(func=cmd_charpoly)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call rather than at import and
    shared by every later call: ``parse_args`` keeps what it parses in the
    namespace it is given, not in the parser."""
    return build_parser()


def main(argv=None) -> int:
    defaults = argparse.Namespace(format="text", tol=chiral.DEFAULT_TOL, out=None)
    args = _parser().parse_args(argv, defaults)
    try:
        # numpy warns of the overflow that linalg.frobenius rescales away and of
        # the inf and nan of out-of-range parameters, which build then rejects
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: solve quintics and verify the reports.

All numbers cross the process boundary as decimal strings in the complex
literal grammar; binary floats never appear in reports.  Exit codes: 0
success, 1 usage/parse error, 2 structured solver or verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ParseError, QuinticError
from .mpfield import PrecisionCtx, format_complex, parse_complex
from .oracle import aberth_solve
from .tschirnhaus import MonicQuintic
from .closedform import RootReport, inclusion_radii, solve_quintic

__all__ = ["main", "cmd_solve", "cmd_verify", "report_to_json"]

_COEFF_FLAGS = ("--m", "--n", "--p", "--q", "--r")


def _merge_coefficient_values(argv):
    """Glue '--m -200i' into '--m=-200i' so argparse keeps negative literals."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _COEFF_FLAGS:
            try:
                out.append(tok + "=" + next(it))
            except StopIteration:
                out.append(tok)
        else:
            out.append(tok)
    return out


def _out_digits(digits: int) -> int:
    return max(10, digits - 15)


def _root_entries(roots, residuals, digits: int) -> dict:
    """The "roots" and "residuals" keys shared by every solve payload."""
    out_digits = _out_digits(digits)
    return {
        "roots": [
            {"re": format_complex(x.real, out_digits), "im": format_complex(x.imag, out_digits)} for x in roots
        ],
        "residuals": [format_complex(v, 10) for v in residuals],
    }


def _input_entry(quintic: MonicQuintic, digits: int) -> dict:
    """The "input" key of every solve payload, from which ``verify`` rebuilds the quintic."""
    coeffs = {k: format_complex(v, _out_digits(digits)) for k, v in zip("mnpqr", quintic.coeffs())}
    return {**coeffs, "digits": digits}


def report_to_json(report: RootReport, quintic: MonicQuintic, digits: int) -> dict:
    """JSON-ready dict; every numeric value is a decimal-string literal."""
    ctx = report.reduction.ctx
    out_digits = _out_digits(digits)
    params = report.reduction.params
    diag = {
        **{k: format_complex(getattr(params, k), out_digits) if params else None for k in ("alpha", "xi", "eta", "d")},
        "A": format_complex(report.reduction.A, out_digits),
        "B": format_complex(report.reduction.B, out_digits),
        "s": format_complex(report.reduction.s, out_digits) if report.reduction.s is not None else None,
        "strategy": report.bring.strategy,
        "shift": format_complex(ctx.convert(report.reduction.shift), out_digits),
        "precision_used": report.precision_used,
        "candidate_residuals": [format_complex(v, 10) for v in report.candidate_residuals],
    }
    return {
        **_root_entries(report.roots, report.residuals, digits),
        "radii": [format_complex(v, 10) for v in report.radii],
        "diagnostics": diag,
        "input": _input_entry(quintic, digits),
    }


def _render_text(payload: dict) -> str:
    d = payload["diagnostics"]
    fallback = "closed_form_error" in d
    source = "oracle fallback" if fallback else "truncated to reported precision"
    lines = [f"quintic roots ({source}):"]
    for k, root in enumerate(payload["roots"], start=1):
        im = root["im"]
        sign = "-" if im.startswith("-") else "+"
        lines.append(f"  r{k} = {root['re']} {sign} {im.lstrip('-')}i")
    lines.append("residual magnitudes: " + ", ".join(payload["residuals"]))
    if fallback:
        lines.append("closed form failed: " + d["closed_form_error"])
        return "\n".join(lines)
    lines.append(f"strategy: {d['strategy']}   precision used: {d['precision_used']} digits")
    if d["s"] is not None:
        lines.append(f"bring parameter s = {d['s']}")
    return "\n".join(lines)


def cmd_solve(args) -> int:
    digits = args.digits
    try:
        ctx = PrecisionCtx(digits=digits)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        quintic = MonicQuintic.make(ctx, args.m, args.n, args.p, args.q, args.r)
    except ParseError as exc:
        print(f"error: bad coefficient literal: {exc}", file=sys.stderr)
        return 1
    try:
        report = solve_quintic(quintic, ctx)
    except QuinticError as exc:
        if args.fallback != "oracle":
            print(f"error: solver failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        roots = aberth_solve(quintic.as_poly(ctx), ctx)
        payload = {
            **_root_entries(roots, [abs(quintic.eval(x, ctx)) for x in roots], digits),
            "diagnostics": {"strategy": "oracle_fallback", "closed_form_error": str(exc)},
            "input": _input_entry(quintic, digits),
        }
    else:
        payload = report_to_json(report, quintic, digits)
    print(json.dumps(payload, indent=2) if args.json else _render_text(payload))
    return 0


def cmd_verify(args) -> int:
    try:
        with open(args.report) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read report: {exc}", file=sys.stderr)
        return 1
    try:
        digits = int(payload["input"]["digits"])
        ctx = PrecisionCtx(digits=digits)
        quintic = MonicQuintic.make(ctx, *(payload["input"][k] for k in "mnpqr"))
        roots = [
            ctx.mp.mpc(parse_complex(x["re"], ctx).real, parse_complex(x["im"], ctx).real)
            for x in payload["roots"]
        ]
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError, ParseError) as exc:
        print(f"error: malformed report: {exc!r}", file=sys.stderr)
        return 1
    if len(roots) != 5:
        print(f"error: malformed report: {len(roots)} roots", file=sys.stderr)
        return 1

    # the solver's certificate, at the digits the report carries
    try:
        _, radii = inclusion_radii(quintic, roots, ctx, _out_digits(digits))
    except QuinticError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 2
    worst = ctx.mp.nstr(max(radii), 3)
    print(f"report verified: 5 roots, worst inclusion radius {worst} at {_out_digits(digits)} digits")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quintic",
        description="closed-form quintic solver with an independent iterative oracle",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve x^5 + m x^4 + n x^3 + p x^2 + q x + r = 0")
    for flag in _COEFF_FLAGS:
        ps.add_argument(flag, required=True, help=f"coefficient {flag[2:]} as a complex literal")
    ps.add_argument("--digits", type=int, default=200)
    ps.add_argument("--fallback", choices=["none", "oracle"], default="none")
    ps.add_argument("--json", action="store_true", help="emit the JSON report")
    ps.set_defaults(func=cmd_solve)

    pv = sub.add_parser("verify", help="recheck a JSON report produced by solve --json")
    pv.add_argument("report", help="path to the JSON report")
    pv.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_coefficient_values(argv))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

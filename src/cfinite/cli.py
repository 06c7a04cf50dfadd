"""Command-line front end.

Subcommands: catalan (generate terms by any or all methods), guess (fit a
recurrence to supplied data), refute (certificates against a proposed
Catalan recurrence, built unchecked and checked once, on the text --json
prints and --output writes), binet (power-sum form of a recurrence), gf
(generating functions), validate (recheck a serialized certificate
document).

Sequences are exchanged as b-files: '#' comment lines plus data lines
"<index> <value>" with indices increasing by 1.  Inputs indexed from 0 are
shifted to the 1-based convention with a notice.  Rational coefficients on
the command line use "p/q" with no whitespace, separated by commas.

Exit status: 0 on success, 1 when a certificate fails validation or a
numeric binet power sum misses b_n by more than
powersum.RECONSTRUCTION_TOLERANCE (relative), 2 on usage or data errors
(a refute --max-order below the candidate's order, a binet value past the
float range) and on inputs past a resource cap (ResourceLimitError: a
--ballot-cap above seqcore.BALLOT_CAP_MAX, an order above
certify.ORDER_CAP: a refute candidate's or --max-order, or any a document
given to validate names, a list in that document past certify.LIST_CAP, or
a common denominator that a validator would clear from a document, read or
about to be written, with more digits than sys.get_int_max_str_digits()).

Start-up imports only what parsing and JSON output need (seqcore, errors,
schema); each handler imports its own engines.  `catalan` loads nothing
more; `guess` adds recurrence (and its linalg) and formats what it finds;
`gf catalan` adds gfseries and linalg, and a recurrence spec adds recurrence;
refute and validate load certify with gfseries, recurrence and linalg.  Only
binet loads powersum.
"""

import argparse
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from . import seqcore
from .errors import BFileError, CertificateError, CFiniteError
from .schema import canonical_json, SCHEMA_TAG
from .seqcore import Sequence

CATALAN_METHODS = ("ballot", "convolution", "closed", "holonomic")


class BFileRecord(NamedTuple):
    index: int
    value: int


def parse_bfile(text: str) -> list:
    """Records of a b-file; rejects gaps, duplicates, and malformed lines."""
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileError(f"expected '<index> <value>', got {raw!r}", lineno)
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileError(f"non-integer field in {raw!r}", lineno) from None
        if records:
            if index == records[-1].index:
                raise BFileError(f"duplicate index {index}", lineno)
            if index != records[-1].index + 1:
                raise BFileError(
                    f"indices must increase by 1: {records[-1].index} then {index}", lineno
                )
        records.append(BFileRecord(index, value))
    if not records:
        raise BFileError("no data")
    return records


def ingest_bfile(path) -> tuple:
    """Sequence from a b-file, re-indexed to start at 1, and a note saying
    so when the file starts at another index (None otherwise)."""
    path = Path(path)
    records = parse_bfile(path.read_text())
    note = None
    if records[0].index != 1:
        note = f"input indexed from {records[0].index}; re-indexed to start at 1"
    return Sequence(path.name, tuple(r.value for r in records)), note


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r} ({exc})") from None


def parse_rational_list(text: str) -> tuple:
    """Comma-separated rationals; the empty string is the empty list."""
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_rational(part) for part in text.split(","))


@dataclass
class CommandResult:
    document: dict
    human_lines: list = field(default_factory=list)
    exit_code: int = 0

    @property
    def human(self) -> str:
        return "\n".join(self.human_lines)


def _wrap(command: str, status: str, payload: dict) -> dict:
    return {"schema": SCHEMA_TAG, "command": command, "status": status, "payload": payload}


def _catalan_values(method: str, count: int, cap: int):
    if method == "closed":
        return [seqcore.catalan_closed(n) for n in range(1, count + 1)]
    if method == "convolution":
        return list(seqcore.catalan_convolution(count).terms)
    if method == "holonomic":
        return list(seqcore.catalan_holonomic(count).terms)
    if method == "ballot":
        if count < 2:
            raise ValueError("ballot counting starts at n = 2; ask for at least 2 terms")
        return [None] + [seqcore.catalan_ballot(n, cap) for n in range(2, count + 1)]
    raise ValueError(f"unknown method {method!r}")


def _cmd_catalan(args) -> CommandResult:
    count = args.terms
    if count < 1:
        raise ValueError(f"need at least one term, got {count}")
    lines = [f"# Catalan numbers C_1..C_{count} (1-indexed: C_1 = C_2 = 1)"]
    payload = {"count": count, "method": args.method}
    if args.method == "all":
        if args.ballot_cap < 2:  # ballot counting starts at n = 2
            raise ValueError(f"--ballot-cap must be at least 2, got {args.ballot_cap}")
        closed = _catalan_values("closed", count, args.ballot_cap)
        convolution = _catalan_values("convolution", count, args.ballot_cap)
        holonomic = _catalan_values("holonomic", count, args.ballot_cap)
        agree = closed == convolution == holonomic
        note = f"closed, convolution, holonomic on 1..{count}"
        ballot_top = min(count, args.ballot_cap)
        if ballot_top >= 2:
            ballot = _catalan_values("ballot", ballot_top, args.ballot_cap)
            agree = agree and ballot[1:] == closed[1:ballot_top]
            note += f"; ballot on 2..{ballot_top}"
            if ballot_top < count:
                note += f" (skipped above the n <= {args.ballot_cap} cap)"
        lines.append(f"# methods {'agree' if agree else 'DISAGREE'}: {note}")
        values = closed
        payload["agreement"] = {"agree": agree, "methods": note}
        if not agree:
            # unreachable unless a generator is broken; surface it loudly
            return CommandResult(
                _wrap("catalan", "error", payload), lines + ["# DISAGREEMENT"], 1
            )
    else:
        if args.method == "ballot" and count > args.ballot_cap:
            raise ValueError(
                f"ballot enumeration is capped at n <= {args.ballot_cap}; raise "
                f"--ballot-cap (at most {seqcore.BALLOT_CAP_MAX}) or use another method"
            )
        values = _catalan_values(args.method, count, args.ballot_cap)
        if args.method == "ballot":
            lines.append("# ballot counting starts at n = 2")
    for n, value in enumerate(values, start=1):
        if value is not None:
            lines.append(f"{n} {value}")
    payload["terms"] = [
        {"index": n, "value": str(v)} for n, v in enumerate(values, start=1) if v is not None
    ]
    result = CommandResult(_wrap("catalan", "ok", payload), lines)
    if args.output:
        Path(args.output).write_text("\n".join(lines) + "\n")
    return result


def _load_guess_sequence(args) -> tuple:
    if args.input:
        return ingest_bfile(args.input)
    if args.terms_list:
        return Sequence("inline", parse_rational_list(args.terms_list)), None
    raise ValueError("supply --input FILE or --terms LIST")


def _cmd_guess(args) -> CommandResult:
    from . import recurrence

    if args.max_order < 0:
        raise ValueError(f"--max-order must be at least 0, got {args.max_order}")
    seq, note = _load_guess_sequence(args)
    lines = []
    if note:
        lines.append(f"note: {note}")
    # an order-K search needs at least 2K + 1 terms (K + 1 windows)
    max_order = min(args.max_order, (len(seq) - 1) // 2)
    if max_order < 0:
        raise ValueError("no terms supplied")
    if max_order < args.max_order:
        lines.append(
            f"note: {len(seq)} terms only support orders up to {max_order}"
        )
    rec = recurrence.guess_recurrence(seq, max_order)
    if rec is not None:
        lines.append(f"order {rec.order} recurrence, verified on available data:")
        lines.append(f"  {rec}")
        coeffs = ", ".join(str(c) for c in rec.coefficients)
        lines.append(f"  coefficients: {coeffs if coeffs else '(none)'}")
        lines.append(f"  windows checked: n = 1..{len(seq) - rec.order}")
        payload = {
            "found": True,
            "order": rec.order,
            "coefficients": [str(c) for c in rec.coefficients],
            "verified_windows": [1, len(seq) - rec.order],
            "note": note,
        }
        return CommandResult(_wrap("guess", "ok", payload), lines)
    lines.append(f"no recurrence of order <= {max_order} on supplied data")
    witnesses = []
    for k, found in recurrence.hankel_evidence(seq, max_order):
        offset, det = found or (None, None)
        witnesses.append({"order": k, "offset": offset, "determinant": found and str(det)})
        lines.append(
            f"  order {k}: window determinant {det} != 0 at offset {offset}"
            if found else f"  order {k}: no nonsingular window in the data"
        )
    payload = {
        "found": False,
        "max_order": max_order,
        "hankel_witnesses": witnesses,
        "note": note,
    }
    return CommandResult(_wrap("guess", "ok", payload), lines)


def _cmd_refute(args) -> CommandResult:
    from . import certify
    from .gfseries import RationalFunction
    from .recurrence import LinearRecurrence

    candidate = LinearRecurrence(parse_rational_list(args.coefficients))
    bound = candidate.order if args.max_order is None else args.max_order
    if bound < candidate.order:  # a Hankel certificate must cover the candidate's order
        raise ValueError(f"--max-order {bound} is below the candidate's order {candidate.order}")
    # unchecked builders; the one check reads the text --json prints and --output writes
    builders = {
        "all": lambda: certify._build_all(candidate, bound),
        "parity": lambda: (certify._build_parity(candidate),),
        "poly": lambda: (certify._build_polynomial(candidate),),
        "hankel": lambda: (certify._build_hankel(bound),),
        "gf": lambda: (certify._build_gf(candidate),),
    }
    bundle = certify.RefutationBundle(candidate, builders[args.method]())
    doc = certify.bundle_to_document(bundle)
    text = canonical_json(doc) + "\n"
    lines = [f"candidate: {candidate} (order {candidate.order}, field {candidate.field})"]
    try:
        certify.validate_serialized(text)
    except CertificateError as exc:
        lines.append(f"INVALID: {exc}")
        return CommandResult(doc, lines, exit_code=1)
    summaries = {
        certify.ParityCertificate: lambda c: (
            f"parity: vector {c.coprime_vector}, window n = {c.window_start}, "
            f"lone power of two at n + {c.odd_index} = 2^{c.exponent}, exact residual {c.residual}"
        ),
        certify.PolynomialCertificate: lambda c: (
            f"polynomial: deg p = {c.polynomial.degree}, p(-{c.order}) = {_brief(c.value_at_minus_order)}, "
            f"residual {_brief(c.residual)} at n = {c.witness_index}"
        ),
        certify.HankelCertificate: lambda c: (
            f"hankel: nonzero window determinants for orders 0..{c.order_bound}"
        ),
        certify.GfMismatchCertificate: lambda c: (
            f"gf-mismatch: series of {RationalFunction(c.numerator, c.denominator)} "
            f"has coefficient {c.series_value} at index {c.mismatch_index}, "
            f"Catalan value is {c.catalan_value}"
        ),
    }
    for cert in bundle.certificates:
        lines.append("  " + summaries[type(cert)](cert))
    lines.append(f"{len(bundle.certificates)} certificate(s), all validated")
    if args.output:
        Path(args.output).write_text(text)
        lines.append(f"wrote {args.output}")
    return CommandResult(doc, lines)


def _brief(value: Fraction) -> str:
    """value as text, past 48 characters cut to its first 24 and its length."""
    text = str(value)
    return text if len(text) <= 48 else f"{text[:24]}... ({len(text)} characters)"


def _root_display(root) -> str:
    if isinstance(root, Fraction):
        return str(root)
    z = complex(root)
    if z.imag == 0:
        return f"{z.real:.10f}"
    return f"{z:.10f}"


def _cmd_binet(args) -> CommandResult:
    import cmath

    from . import powersum, recurrence

    if args.terms < 0:
        raise ValueError(f"--terms must be at least 0, got {args.terms}")
    coefficients = parse_rational_list(args.coefficients)
    candidate = recurrence.LinearRecurrence(coefficients)
    initial = parse_rational_list(args.initial) if args.initial else ()
    ps = powersum.binet_form(candidate, initial)
    if ps.valid_from > 1 and args.on_zero_root == "error":
        raise ValueError(
            "characteristic polynomial has root 0 (leading coefficients vanish); "
            "rerun with --on-zero-root drop to shift past it"
        )
    lines = [f"recurrence: {candidate}"]
    char = powersum.characteristic_polynomial(candidate)
    lines.append(f"characteristic polynomial: {char}")
    payload = {
        "order": candidate.order,
        "coefficients": [str(c) for c in coefficients],
        "roots": [],
        "valid_from": ps.valid_from,
    }
    if ps.valid_from > 1:
        lines.append(
            f"note: root 0 dropped; the power sum matches from n = {ps.valid_from} on"
        )
    if not ps.terms:
        lines.append("power sum: empty (the zero power sum)")
    for poly, root in ps.terms:
        root_str = _root_display(root)
        lines.append(f"  root {root_str}: polynomial {poly}")
        payload["roots"].append({"root": root_str, "polynomial": str(poly)})
    if ps.terms:
        dp = powersum.dominant_part(ps)
        lines.append(
            f"dominant part: degree s = {dp.degree}, alpha = {dp.alpha:.10f}, l = {dp.l}"
        )
        payload["dominant"] = {"s": dp.degree, "alpha": f"{dp.alpha:.10f}", "l": dp.l}
    check_to = max(args.terms, candidate.order)
    expected = recurrence.iterate_recurrence(candidate, initial, check_to)
    worst, ok = 0.0, True
    for n in range(ps.valid_from, check_to + 1):
        target = expected[n - 1]
        if ps.is_exact:
            ok = ok and powersum.evaluate_powersum(ps, n) == target
            continue
        try:
            value, target = complex(powersum.evaluate_powersum(ps, n)), complex(target)
            finite = cmath.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"b_{n} is past the float range; rerun with --terms below {n}")
        worst = max(worst, abs(value - target) / max(1.0, abs(target)))
    if ps.is_exact:
        verdict = "exact" if ok else "FAILED"
        lines.append(f"reconstruction over n = {ps.valid_from}..{check_to}: {verdict}")
        payload["reconstruction"] = verdict
    else:
        ok = worst <= powersum.RECONSTRUCTION_TOLERANCE
        lines.append(
            f"reconstruction over n = {ps.valid_from}..{check_to}: "
            f"max relative error {worst:.3e}"
            + ("" if ok else f", above {powersum.RECONSTRUCTION_TOLERANCE:g}")
        )
        payload["reconstruction"] = f"{worst:.3e}"
    if not ok:
        return CommandResult(_wrap("binet", "error", payload), lines, exit_code=1)
    return CommandResult(_wrap("binet", "ok", payload), lines)


def _cmd_gf(args) -> CommandResult:
    from . import gfseries

    if args.truncation < 0:
        raise ValueError(f"--truncation must be at least 0, got {args.truncation}")
    if args.spec.strip().lower() == "catalan":
        order = max(args.truncation, 1)
        series = gfseries.catalan_gf(order)
        lines = [f"# Catalan generating function, coefficients 0..{order}"]
        for n, c in enumerate(series.coefficients):
            lines.append(f"{n} {c}")
        two_c_minus_1 = series * 2 - 1
        identity = two_c_minus_1 * two_c_minus_1
        ok = all(
            identity.coefficient(n) == (1 if n == 0 else -4 if n == 1 else 0)
            for n in range(order + 1)
        )
        lines.append(f"# (2C - 1)^2 = 1 - 4x: {'OK' if ok else 'FAILED'}")
        if order > args.truncation:
            lines.append(f"note: --truncation {args.truncation} raised to {order}")
        payload = {
            "series": "catalan",
            "coefficients": [str(c) for c in series.coefficients],
            "quadratic_identity": ok,
        }
        return CommandResult(_wrap("gf", "ok", payload), lines, 0 if ok else 1)
    from .recurrence import LinearRecurrence

    coefficients = parse_rational_list(args.spec)
    candidate = LinearRecurrence(coefficients)
    initial = parse_rational_list(args.initial) if args.initial else ()
    rf = gfseries.rational_gf(candidate, initial)
    lines = [f"generating function: {rf}"]
    truncation = max(args.truncation, candidate.order)
    expansion = gfseries.expand_rational(rf, truncation)
    preview = ", ".join(str(c) for c in expansion.coefficients[:11])
    lines.append(f"series: {preview}, ...")
    if truncation > args.truncation:
        lines.append(
            f"note: --truncation {args.truncation} raised to {truncation}, the recurrence's order"
        )
    payload = {
        "numerator": str(rf.numerator),
        "denominator": str(rf.denominator),
        "coefficients": [str(c) for c in expansion.coefficients],
    }
    return CommandResult(_wrap("gf", "ok", payload), lines)


def _cmd_validate(args) -> CommandResult:
    from . import certify

    text = Path(args.input).read_text()
    try:
        bundle = certify.validate_serialized(text)
    except CertificateError as exc:
        payload = {"valid": False, "reason": str(exc)}
        return CommandResult(
            _wrap("validate", "invalid", payload), [f"INVALID: {exc}"], exit_code=1
        )
    lines = [
        f"valid: {len(bundle.certificates)} certificate(s) for candidate "
        f"{bundle.candidate} (order {bundle.candidate.order})"
    ]
    payload = {
        "valid": True,
        "certificates": len(bundle.certificates),
        "candidate_order": bundle.candidate.order,
    }
    return CommandResult(_wrap("validate", "ok", payload), lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfinite",
        description="Exact linear-recurrence analysis and certified Catalan refutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalan", help="generate Catalan numbers by one or all methods")
    p.add_argument("--terms", "-n", type=int, required=True, help="number of terms N")
    p.add_argument(
        "--method",
        choices=CATALAN_METHODS + ("all",),
        default="all",
        help="generator to use; 'all' cross-checks every method",
    )
    p.add_argument(
        "--ballot-cap",
        type=int,
        default=seqcore.BALLOT_CAP_DEFAULT,
        help="largest n for the brute-force ballot enumeration",
    )
    p.add_argument("--output", help="also write the terms as a b-file")
    p.set_defaults(handler=_cmd_catalan)

    p = sub.add_parser("guess", help="fit a minimal recurrence to sequence data")
    p.add_argument("--input", help="b-file with the sequence")
    p.add_argument(
        "--terms", dest="terms_list", help="inline comma-separated terms instead of a file"
    )
    p.add_argument("--max-order", type=int, default=8, help="largest order to try")
    p.set_defaults(handler=_cmd_guess)

    p = sub.add_parser("refute", help="refute a proposed Catalan recurrence")
    p.add_argument(
        "coefficients",
        help="comma-separated rationals a_0,...,a_{k-1}; empty string for order 0",
    )
    p.add_argument(
        "--method",
        choices=("parity", "poly", "hankel", "gf", "all"),
        default="all",
    )
    p.add_argument(
        "--max-order",
        type=int,
        default=None,
        help="order bound for the hankel engine (default: the candidate's order)",
    )
    p.add_argument("--output", help="write the serialized certificate document here")
    p.set_defaults(handler=_cmd_refute)

    p = sub.add_parser("binet", help="power-sum form of a recurrence")
    p.add_argument("coefficients", help="comma-separated rationals a_0,...,a_{k-1}")
    p.add_argument("--initial", help="comma-separated initial terms b_1,...,b_k")
    p.add_argument(
        "--terms", type=int, default=20, help="reconstruction check runs to this index"
    )
    p.add_argument(
        "--on-zero-root",
        choices=("drop", "error"),
        default="drop",
        help="what to do when the characteristic polynomial has root 0",
    )
    p.set_defaults(handler=_cmd_binet)

    p = sub.add_parser("gf", help="generating function of a recurrence, or 'catalan'")
    p.add_argument("spec", help="'catalan' or comma-separated rationals a_0,...,a_{k-1}")
    p.add_argument("--initial", help="comma-separated initial terms b_1,...,b_k")
    p.add_argument("--truncation", type=int, default=20, help="series truncation order")
    p.set_defaults(handler=_cmd_gf)

    p = sub.add_parser("validate", help="recheck a serialized certificate document")
    p.add_argument("--input", required=True, help="certificate document to validate")
    p.set_defaults(handler=_cmd_validate)

    for name, sp in sub.choices.items():
        sp.add_argument(
            "--json",
            action="store_true",
            help="print the structured document instead of text",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.handler(args)
    except (CFiniteError, ValueError, OSError, OverflowError) as exc:
        if getattr(args, "json", False):
            doc = _wrap(args.command, "error", {"message": str(exc)})
            print(canonical_json(doc))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "json", False):
        print(canonical_json(result.document))
    elif result.human:
        print(result.human)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())

"""The document format tag, the canonical JSON form and the number syntax.

Certificate documents and the CLI's --json output share the first two, and
documents, b-files and the command line the third; they live here so that
reading numbers or writing JSON loads none of the refutation engines.
"""

import json
import re

from .errors import ResourceLimitError

SCHEMA_TAG = "cfinite-cert/1"

# The number syntax the writer writes, in ASCII digits: "p" for an integer,
# "p" or "p/q" for a rational.  No exponent, decimal point, "+", whitespace
# or "_": what Fraction() and int() read beyond it the writer never writes,
# and "1e10000000" would build 10**(10**7) before any check could refuse it.
INTEGER_TEXT = re.compile(r"-?[0-9]+")
RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _shown(value) -> str:
    """value as text for a refusal message, which must not raise itself nor
    grow with its input: past 60 characters, its first 40 and its length."""
    try:
        text = str(value)
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        return "a number too long to print"
    return text if len(text) <= 60 else f"{text[:40]}... ({len(text)} characters)"


def past_digit_limit(what: str, limit: int) -> ResourceLimitError:
    """The refusal of a number past the limit; `what` names it and ends in a verb."""
    return ResourceLimitError(
        f"{what} more than {limit} digits, past the int/str conversion limit documents "
        f"are read with (sys.get_int_max_str_digits() = {limit})"
    )


def canonical_json(payload) -> str:
    """Sorted keys, no whitespace, ASCII only: the bytes the digest covers."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)

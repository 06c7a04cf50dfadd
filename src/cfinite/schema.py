"""The document format tag and the canonical JSON form.

Certificate documents and the CLI's --json output share both; they live
here so that writing JSON loads none of the refutation engines.
"""

import json

SCHEMA_TAG = "cfinite-cert/1"


def canonical_json(payload) -> str:
    """Sorted keys, no whitespace, ASCII only: the bytes the digest covers."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)

"""Single-field mutations of genuine certificate documents.

One leaf or container of a serialized refute_all bundle (orders 0..5) is
replaced by a drawn value and the digest recomputed.  The validator must
then refuse the document with CertificateError, or accept a bundle with
the same candidate and the same certificate kinds in the same order (a
mutation can leave a valid document: a null parity residual is a producer
choice).  Any other exception, or a validation that runs on, fails the test.
"""

import contextlib
import copy
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from cfinite import cli
from cfinite.certify import (
    _payload_digest,
    parse_bundle,
    refute_all,
    serialize_bundle,
    validate_serialized,
)
from cfinite.errors import CertificateError
from cfinite.recurrence import LinearRecurrence
from test_certify import _time_limit

VALUES = (10**30, -(10**30), 10**11, 0, -1, 2, "1/0", "abc", None, [], {}, True)

# a validation still running after this many seconds counts as a hang
TIME_LIMIT_S = 5


def _genuine(k: int) -> str:
    rng = random.Random(101 + k)
    coeffs = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k))
    return serialize_bundle(refute_all(LinearRecurrence(coeffs)))


def _paths(node, path=()):
    """Key paths of every leaf and container below the root, the digest
    left out (it is recomputed after each mutation)."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        if path or key != "sha256":
            yield path + (key,)
            yield from _paths(child, path + (key,))


DOCUMENTS = [_genuine(k) for k in range(6)]
PATHS = [list(_paths(json.loads(text))) for text in DOCUMENTS]

mutations = st.integers(0, len(DOCUMENTS) - 1).flatmap(
    lambda k: st.tuples(
        st.just(k), st.integers(0, len(PATHS[k]) - 1), st.sampled_from(VALUES)
    )
)


def _mutate(k: int, index: int, value) -> str:
    doc = json.loads(DOCUMENTS[k])
    *parents, last = PATHS[k][index]
    node = doc
    for key in parents:
        node = node[key]
    node[last] = copy.deepcopy(value)
    doc["sha256"] = _payload_digest(doc)
    return json.dumps(doc)


def _accepted(k: int, text: str) -> bool:
    """False when the validator refuses the document; True when it accepts
    it as the genuine candidate with the genuine certificate kinds."""
    try:
        with _time_limit(TIME_LIMIT_S):
            bundle = validate_serialized(text)
    except CertificateError:
        return False
    genuine = parse_bundle(DOCUMENTS[k])
    assert bundle.candidate == genuine.candidate
    assert [type(c) for c in bundle.certificates] == [type(c) for c in genuine.certificates]
    return True


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(mutations)
def test_single_field_mutation_refused_or_harmless(mutation):
    k, index, value = mutation
    _accepted(k, _mutate(k, index, value))


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(mutations)
def test_single_field_mutation_through_the_cli(mutation):
    k, index, value = mutation
    text = _mutate(k, index, value)
    accepted = _accepted(k, text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), _time_limit(TIME_LIMIT_S):
            code = cli.main(["validate", "--input", str(path), "--json"])
    status = json.loads(out.getvalue())["status"]
    assert (code, status) == ((0, "ok") if accepted else (1, "invalid"))

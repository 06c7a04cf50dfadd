"""The four workloads: seeded inputs, the op each one times, and the check
of every output.  bench/README.md says why each one exists.

Each workload runs in cycles.  A cycle is one pass over the workload's mix,
with inputs drawn afresh from (seed, cycle), so every run covers the mix in
whole units and two runs of one seed send the library the same inputs.
"""

import gzip
import hashlib
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from cfinite import certify, recurrence
from cfinite.errors import CertificateError
from cfinite.recurrence import LinearRecurrence
from cfinite.seqcore import Sequence

import spans

ORDERS = (8, 16, 24, 32, 48, 64)
ROUNDS = 3  # set-up is done in this many rounds; setup_s takes their median
BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

WRONG = "wrong"
# Defects of the seed that the workloads show.  An op that meets one counts
# in `failed` but does not make the run incorrect; any other failure does.
KNOWN_HOLE = "known: forged polynomial field accepted (ROADMAP item 2)"
KNOWN_ERROR = "known: forged document refused without CertificateError"
# The exceptions of KNOWN_ERROR: a forged denominator of 0, and a forged gf
# denominator with q(0) = 0 (forge_zero makes both on purpose).  Any other
# exception on a forgery is WRONG.
KNOWN_EXCEPTIONS = (ZeroDivisionError, ValueError)


def catalan(n: int) -> int:
    """C_n with the library's indexing, C_1 = C_2 = 1; independent of it."""
    return math.comb(2 * n - 2, n - 1) // n


def rng_for(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def random_candidate(rng, order: int) -> tuple:
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order))


def c_finite_terms(rng, order: int, count: int) -> tuple:
    """An integer C-finite sequence: coefficients in -3..3 with a_0 = +-1
    (the constant term of the characteristic polynomial), small initial terms."""
    coeffs = [rng.randint(-3, 3) for _ in range(order)]
    coeffs[0] = rng.choice((-1, 1))
    terms = [rng.randint(-5, 5) for _ in range(order)]
    while len(terms) < count:
        terms.append(sum(a * t for a, t in zip(coeffs, terms[-order:])))
    return tuple(terms)


def steady_terms(rng, order: int, count: int) -> tuple:
    """c_finite_terms whose largest term has 0.78 to 0.82 bits per term.

    rref cost grows with the size of the entries, and random coefficients
    give growth rates that differ threefold; drawing again until the growth
    falls in one band gives every op of an order about the same work."""
    while True:
        terms = c_finite_terms(rng, order, count)
        if 0.78 <= max(abs(t) for t in terms).bit_length() / count <= 0.82:
            return terms


def fits(terms, coefficients) -> bool:
    """Does b_{n+k} = sum_j a_j b_{n+j} hold on every supplied window?"""
    k = len(coefficients)
    return all(
        sum(Fraction(a) * terms[n + j] for j, a in enumerate(coefficients)) == terms[n + k]
        for n in range(len(terms) - k)
    )


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def redigest(doc: dict) -> str:
    """The document text with its sha256 recomputed, as any forger can."""
    doc.pop("sha256", None)
    doc["sha256"] = hashlib.sha256(canonical(doc).encode("utf-8")).hexdigest()
    return canonical(doc) + "\n"


_NUMBER = re.compile(r"-?\d+(/\d+)?")
# Fields a one-digit edit does not forge.  The digest is recomputed anyway, and
# a hankel witness's offset is the producer's free choice: the Catalan window
# determinants at offsets 1 and 2 are both 1, so editing 1 to 2 leaves a
# valid certificate.
UNFORGEABLE = ("sha256", "offset")


def forge_digit(text: str, rng) -> str:
    """Change one digit of one numeric field to another digit.

    An edit that would give a forge_zero forgery is drawn again: the seed
    refuses those without CertificateError (KNOWN_ERROR), and Validate makes
    them at a fixed share of its ops instead of at the share chance gives."""
    doc = json.loads(text)
    fields = []

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if key in UNFORGEABLE:
                continue
            if isinstance(value, (dict, list)):
                walk(value)
            elif isinstance(value, bool) or value is None:
                continue
            elif isinstance(value, int) or (isinstance(value, str) and _NUMBER.fullmatch(value)):
                fields.append((node, key))

    walk(doc)
    q = gf_certificate(doc)["denominator"]
    while True:
        node, key = rng.choice(fields)
        old = str(node[key])
        runs = [m.span() for m in re.finditer(r"\d+", old)]
        start, end = rng.choice(runs)
        i = rng.randrange(start, end)
        digit = rng.choice([d for d in "0123456789" if d != old[i]])
        new = old[:i] + digit + old[i + 1 :]
        zero_denominator = "/" in new and int(new.split("/")[1]) == 0
        zero_q0 = node is q and key == 0 and Fraction(new) == 0
        if not (zero_denominator or zero_q0):
            break
    node[key] = int(new) if isinstance(node[key], int) else new
    return redigest(doc)


def gf_certificate(doc: dict) -> dict:
    return next(c for c in doc["certificates"] if c["kind"] == "gf-mismatch")


def forge_zero(text: str, where: str) -> str:
    """Forge a field so that it reads as zero where the validator divides:
    `where` = "denominator" gives the candidate's first coefficient the
    denominator 0; "q0" sets the gf denominator's constant term q(0) to 0.
    The seed refuses both without CertificateError (KNOWN_ERROR)."""
    doc = json.loads(text)
    if where == "denominator":
        coeffs = doc["candidate"]["coefficients"]
        coeffs[0] = coeffs[0].split("/")[0] + "/0"
    else:
        gf_certificate(doc)["denominator"][0] = "0"
    return redigest(doc)


def forge_polynomial(text: str) -> str:
    """Add 7(x+k)(x-n*) to the polynomial field: p(-k) and p(n*) keep their
    values, so a validator that only evaluates p there accepts it."""
    doc = json.loads(text)
    cert = next(c for c in doc["certificates"] if c["kind"] == "polynomial")
    k, n = cert["order"], cert["witness_index"]
    coeffs = [Fraction(c) for c in cert["polynomial"]]
    coeffs += [Fraction(0)] * (3 - len(coeffs))
    for i, add in enumerate((-7 * k * n, 7 * (k - n), 7)):
        coeffs[i] += add
    cert["polynomial"] = [str(c) for c in coeffs]
    return redigest(doc)


@dataclass
class Op:
    label: str
    bucket: int | None  # order bucket for the growth-in-k report
    call: object  # call(parent span id or None) -> result; may raise
    expect: object = None
    doc_bytes: int = 0  # size of the document the op reads, if any


class Workload:
    recorder = None  # a spans.Recorder during the traced pass

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup_round(self, r: int):
        """One round of set-up; the default workload needs none."""

    def close(self):
        """Release what set-up made."""

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def render(self, op: Op, result) -> str:
        if isinstance(result, BaseException):
            return f"raised {type(result).__name__}: {result}"
        return self.render_ok(op, result)


class Refute(Workload):
    """certify.refute_all(candidate) then serialize_bundle, orders 8..64."""

    def cycle(self, c: int):
        rng = rng_for(self.seed, "refute", c)
        ops = []
        for k in ORDERS:
            cand = LinearRecurrence(random_candidate(rng, k))
            ops.append(
                Op(f"k{k}", k, lambda _, cand=cand: certify.serialize_bundle(certify.refute_all(cand)), cand)
            )
        return ops

    def render_ok(self, op, result):
        return result

    def check(self, op, result):
        if isinstance(result, BaseException):
            return WRONG
        try:
            bundle = certify.validate_serialized(result)
        except CertificateError:
            return WRONG
        kinds = [c["kind"] for c in json.loads(result)["certificates"]]
        if bundle.candidate.coefficients != op.expect.coefficients:
            return WRONG
        if kinds != ["parity", "polynomial", "hankel", "gf-mismatch"]:
            return WRONG
        return None

    def doc_kib(self, op, result):
        return None if isinstance(result, BaseException) else len(result) / 1024


class Validate(Workload):
    """certify.validate_serialized(text) on genuine and forged documents.

    Set-up makes one genuine document per order in each of ROUNDS rounds, with
    the code under test.  A cycle validates the three documents of each order:
    two as made and one forged, in turn between orders and cycles by a
    one-digit edit, by the polynomial-field forgery or by a forge_zero
    forgery.  So every cycle holds two of each kind, one forge_zero forgery
    of each form, and the same number of known-defect ops."""

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.pool = {k: [] for k in ORDERS}

    def setup_round(self, r):
        rng = rng_for(self.seed, "validate-docs", r)
        for k in ORDERS:
            cand = LinearRecurrence(random_candidate(rng, k))
            self.pool[k].append((cand, certify.serialize_bundle(certify.refute_all(cand))))

    def cycle(self, c):
        ops = []
        for o, k in enumerate(ORDERS):
            for i in range(3):
                cand, text = self.pool[k][(c + i) % 3]
                label, expect = f"genuine k{k}", cand
                if i == 2:
                    kind = (o + c) % 3
                    if kind == 0:
                        text = forge_digit(text, rng_for(self.seed, "forge", c, k))
                        label = f"forged-digit k{k}"
                    elif kind == 1:
                        text = forge_polynomial(text)
                        label = f"forged-polynomial k{k}"
                    else:
                        where = "denominator" if o < len(ORDERS) // 2 else "q0"
                        text = forge_zero(text, where)
                        label = f"forged-zero-{where} k{k}"
                    expect = "reject"
                ops.append(
                    Op(label, k, lambda _, t=text: certify.validate_serialized(t), expect, len(text))
                )
        return ops

    def render_ok(self, op, result):
        return "accepted " + ",".join(str(c) for c in result.candidate.coefficients)

    def render(self, op, result):
        if isinstance(result, CertificateError):
            return f"rejected: {result}"
        return super().render(op, result)

    def check(self, op, result):
        if op.expect == "reject":
            if isinstance(result, CertificateError):
                return None
            if isinstance(result, KNOWN_EXCEPTIONS):
                return KNOWN_ERROR
            if isinstance(result, BaseException):
                return WRONG
            return KNOWN_HOLE if op.label.startswith("forged-polynomial") else WRONG
        if isinstance(result, BaseException):
            return WRONG
        return None if result.candidate.coefficients == op.expect.coefficients else WRONG

    def doc_kib(self, op, result):
        return op.doc_bytes / 1024


class Guess(Workload):
    """recurrence.guess_recurrence(seq, max_order) on C-finite sequences of
    order 4..24 (max order k+4, growth in one band: see steady_terms) and on
    Catalan prefixes (max order 8, 16, 24), each with 3 * max_order + 4 terms."""

    GENERATED = (4, 8, 12, 16, 24)
    CATALAN = (8, 16, 24)

    def cycle(self, c):
        rng = rng_for(self.seed, "guess", c)
        ops = []
        for k in self.GENERATED:
            m = k + 4
            terms = steady_terms(rng, k, 3 * m + 4)
            seq = Sequence(f"order-{k}", terms)
            ops.append(Op(f"order{k}", spans.bucket_of(m), self._guess(seq, m), (k, terms)))
        for m in self.CATALAN:
            seq = Sequence("catalan", tuple(catalan(n) for n in range(1, 3 * m + 5)))
            ops.append(Op(f"catalan{m}", spans.bucket_of(m), self._guess(seq, m), None))
        return ops

    @staticmethod
    def _guess(seq, max_order):
        return lambda _: recurrence.guess_recurrence(seq, max_order)

    def render_ok(self, op, result):
        return "None" if result is None else ",".join(str(c) for c in result.coefficients)

    def check(self, op, result):
        if isinstance(result, BaseException):
            return WRONG
        if op.expect is None:
            return None if result is None else WRONG
        order, terms = op.expect
        if result is None or result.order > order or not fits(terms, result.coefficients):
            return WRONG
        return None

    def doc_kib(self, op, result):
        return None


class Cli(Workload):
    """One `python -m cfinite.cli ...` child process per op, one at a time.

    A cycle runs refute (order 1..4), validate on a genuine and on a forged
    document, guess on 20 terms, catalan -n 12 and gf catalan --truncation 200,
    each with --json.  The forgery is a one-digit edit, which forge_digit
    keeps clear of the forge_zero forms, so every op here should pass."""

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.docs = []
        self.tmp = workdir / f"cli-{seed}-{id(self):x}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    def setup_round(self, r):
        rng = rng_for(self.seed, "cli-docs", r)
        for k in range(1, 5):
            text = certify.serialize_bundle(certify.refute_all(LinearRecurrence(random_candidate(rng, k))))
            genuine = self.tmp / f"doc-{r}-{k}.json"
            forged = self.tmp / f"forged-{r}-{k}.json"
            genuine.write_text(text)
            forged.write_text(forge_digit(text, rng))
            self.docs.append((genuine, forged))

    def close(self):
        for path in self.tmp.glob("*"):
            path.unlink()
        self.tmp.rmdir()

    def peak_rss_kib(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def cycle(self, c):
        rng = rng_for(self.seed, "cli", c)
        cand = random_candidate(rng, 1 + c % 4)
        order = 2 + c % 4
        terms = c_finite_terms(rng, order, 20)
        genuine, forged = self.docs[c % len(self.docs)]
        coeff_text = ",".join(str(a) for a in cand)
        commands = (
            ("refute", ["refute", "--json", "--", coeff_text], cand),
            ("validate-genuine", ["validate", "--input", str(genuine), "--json"], None),
            ("validate-forged", ["validate", "--input", str(forged), "--json"], None),
            ("guess", ["guess", f"--terms={','.join(map(str, terms))}", "--max-order", "5", "--json"], (order, terms)),
            ("catalan", ["catalan", "-n", "12", "--json"], None),
            ("gf", ["gf", "catalan", "--truncation", "200", "--json"], None),
        )
        return [Op(label, None, self._child(argv), expect) for label, argv, expect in commands]

    def _child(self, argv):
        def call(parent):
            if self.recorder is None:
                cmd = [sys.executable, "-m", "cfinite.cli", *argv]
                return self._run(cmd)
            out = self.tmp / "spans.json.gz"
            result = self._run([sys.executable, str(BENCH / "cli_child.py"), str(out), *argv])
            with gzip.open(out, "rt") as fh:
                self.recorder.merge(json.load(fh), parent)
            out.unlink()
            return result

        return call

    def _run(self, cmd):
        done = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=120)
        return done.returncode, done.stdout

    def render_ok(self, op, result):
        code, stdout = result
        return f"{code}\n{stdout}"

    def check(self, op, result):
        if isinstance(result, BaseException):
            return WRONG
        code, stdout = result
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            doc = None
        if doc is None:
            return WRONG
        if op.label == "refute":
            try:
                bundle = certify.validate_document(doc)
            except CertificateError:
                return WRONG
            ok = code == 0 and bundle.candidate.coefficients == op.expect
        elif op.label == "validate-forged":
            ok = code == 1 and doc["status"] == "invalid" and doc["payload"]["valid"] is False
        else:
            ok = code == 0 and doc["status"] == "ok"
            payload = doc["payload"]
            if op.label == "validate-genuine":
                ok = ok and payload["valid"] is True
            elif op.label == "guess":
                order, terms = op.expect
                coeffs = [Fraction(c) for c in payload.get("coefficients", ())]
                ok = ok and payload["found"] and len(coeffs) <= order and fits(terms, coeffs)
            elif op.label == "catalan":
                values = [int(t["value"]) for t in payload["terms"]]
                ok = ok and payload["agreement"]["agree"] and values == [catalan(n) for n in range(1, 13)]
            elif op.label == "gf":
                want = ["0"] + [str(catalan(n)) for n in range(1, 201)]
                ok = ok and payload["quadratic_identity"] is True and payload["coefficients"] == want
        return None if ok else WRONG

    def doc_kib(self, op, result):
        return None

    def process_metrics(self, timed, repeats: int = 5) -> dict:
        """Interpreter start-up and import cost, from separate children.

        timed(fn) returns fn(), its wall seconds and the host speed factor."""
        bare, imports, numpy = [], [], []
        for _ in range(repeats):
            _, wall, factor = timed(
                lambda: subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True, timeout=60)
            )
            bare.append(wall * factor)
            done, _, factor = timed(
                lambda: subprocess.run(
                    [sys.executable, "-X", "importtime", "-c", "import cfinite.cli"],
                    env=self.env, capture_output=True, text=True, check=True, timeout=60,
                )
            )
            cumulative = {}
            for line in done.stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[1].strip().isdigit():
                    cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6 * factor)
            imports.append(cumulative.get("cfinite.cli", 0.0))
            numpy.append(cumulative.get("numpy", 0.0))
        return {
            "cli.interpreter_s": statistics.median(bare),
            "cli.import_s": statistics.median(imports),
            "cli.import.numpy_s": statistics.median(numpy),
        }


WORKLOADS = {"refute": Refute, "validate": Validate, "guess": Guess, "cli": Cli}

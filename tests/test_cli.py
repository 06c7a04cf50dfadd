"""End-to-end command-line behavior."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import cfinite.certify as certify_module
from cfinite import cli, schema
from cfinite._record import replace
from cfinite.certify import refute_all, refute_by_polynomial, serialize_bundle
from cfinite.cli import ingest_bfile, main, parse_bfile, parse_rational_list
from cfinite.errors import BFileError, CertificateError, ResourceLimitError
from cfinite.recurrence import guess_recurrence, LinearRecurrence
from cfinite.seqcore import catalan_convolution, fibonacci
from test_certify import (
    BIG_DENOMINATORS,
    CHECKS,
    count_checks,
    DENOMINATOR_CAP_BUNDLES,
    FORGED,
    FORGERY_ORDERS,
    forged_document,
    forged_polynomial_text,
    hankel_past_cap_text,
    HOLE_FORGERIES,
    LONG_VALUE_FORGERIES,
    NON_CANONICAL_FORMS,
    NUMBER_TYPE_FORGERIES,
)


# What Fraction() or int() read beyond "p" and "p/q" in ASCII digits (all
# but "1 /3" and "1/0", which neither reads, and "1e5" and "0.5" for int()).
OFF_SYNTAX = ("1e5", "0.5", "+1", "1_0", "\u0661\u0662", "1 /3", "1/0")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_rational_list(self):
        from fractions import Fraction

        assert parse_rational_list("") == ()
        assert parse_rational_list("1/3,2,5/3") == (
            Fraction(1, 3),
            Fraction(2),
            Fraction(5, 3),
        )
        with pytest.raises(ValueError):
            parse_rational_list("1,x")

    def test_documents_syntax_read(self):
        assert parse_rational_list("7,-7,-7/3, 7/3 ") == (7, -7, Fraction(-7, 3), Fraction(7, 3))
        records = parse_bfile("1 7\n 2  -7 \n")
        assert [(r.index, r.value) for r in records] == [(1, 7), (2, -7)]

    @pytest.mark.parametrize("text", OFF_SYNTAX)
    def test_other_syntaxes_refused(self, text):
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational_list(f"1,{text}")
        with pytest.raises(BFileError, match="line 2"):
            parse_bfile(f"1 1\n2 {text}\n")

    def test_one_syntax_definition(self):
        # certify reads documents, and cli the command line and b-files, through these
        assert certify_module.INTEGER_TEXT is cli.INTEGER_TEXT is schema.INTEGER_TEXT
        assert certify_module.RATIONAL_TEXT is cli.RATIONAL_TEXT is schema.RATIONAL_TEXT

    def test_number_past_the_digit_limit_is_a_cap(self):
        # both were refused as malformed, with all 5,000 digits in the message
        digits = "7" * 5000
        with pytest.raises(ResourceLimitError, match=r"^number '777.* has more than") as info:
            parse_rational_list(f"1,{digits}")
        assert "sys.get_int_max_str_digits()" in str(info.value)
        assert len(str(info.value)) < 200
        with pytest.raises(ResourceLimitError, match=r"^line 2: a field has more than") as info:
            parse_bfile(f"1 1\n2 {digits}\n")
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize(
        "text",
        ["x" * 5000, "1 " + "x" * 5000, "1 2 " + "3" * 5000, "1 1\n" + "3" * 4000 + " 2"],
        ids=["word", "value", "line", "index"],
    )
    def test_refusal_shows_at_most_60_characters(self, text):
        for parse in (parse_rational_list, parse_bfile):
            with pytest.raises((ValueError, BFileError)) as info:
                parse(text)
            assert len(str(info.value)) < 150


class TestBFile:
    def test_basic(self):
        records = parse_bfile("1 1\n2 1\n3 2\n")
        assert [(r.index, r.value) for r in records] == [(1, 1), (2, 1), (3, 2)]

    def test_comments_and_blanks(self):
        records = parse_bfile("# header\n\n1 5\n2 7\n")
        assert [r.value for r in records] == [5, 7]

    def test_zero_based_shift(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("0 1\n1 1\n2 2\n")
        seq, note = ingest_bfile(path)
        assert seq.terms == (1, 1, 2)
        assert seq.term(1) == 1  # re-indexed to 1-based
        assert note == "input indexed from 0; re-indexed to start at 1"

    def test_empty_is_error(self):
        with pytest.raises(BFileError, match="no data"):
            parse_bfile("# only comments\n")

    def test_gap_reports_line(self):
        with pytest.raises(BFileError, match="line 3"):
            parse_bfile("1 1\n2 1\n4 5\n")

    def test_duplicate_reports_line(self):
        with pytest.raises(BFileError, match="line 2.*duplicate"):
            parse_bfile("1 1\n1 2\n")

    def test_malformed_reports_line(self):
        with pytest.raises(BFileError, match="line 2"):
            parse_bfile("1 1\nnot numbers here\n")
        with pytest.raises(BFileError, match="line 1"):
            parse_bfile("1 x\n")


class TestCatalanCommand:
    def test_all_methods_agree(self, capsys):
        code, out, _ = run(capsys, "catalan", "-n", "12")
        assert code == 0
        assert "methods agree" in out
        assert out.strip().splitlines()[-1] == "12 58786"

    def test_ballot_disagreement_surfaces(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.seqcore, "catalan_ballot", lambda n, cap: 7)
        code, out, _ = run(capsys, "catalan", "-n", "5")
        assert code == 1
        assert "methods DISAGREE" in out
        code, out, _ = run(capsys, "catalan", "-n", "1")
        assert code == 0 and "ballot" not in out

    def test_single_term_closed(self, capsys):
        code, out, _ = run(capsys, "catalan", "-n", "1", "--method", "closed")
        assert code == 0
        assert "1 1" in out

    def test_single_term_ballot_refused(self, capsys):
        # ballot counting starts at n = 2, so one term has no ballot row
        code, out, err = run(capsys, "catalan", "-n", "1", "--method", "ballot")
        assert (code, out) == (2, "")
        assert "ballot counting starts at n = 2" in err

    def test_ballot_cap_guidance(self, capsys):
        code, _, err = run(capsys, "catalan", "-n", "20", "--method", "ballot")
        assert code == 2
        assert "cap" in err

    def test_ballot_cap_above_the_largest_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "catalan", "-n", "20", "--ballot-cap", "18", "--json")
        assert time.perf_counter() - start < 1
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "error" and "above 17" in doc["payload"]["message"]

    @pytest.mark.parametrize("cap", ["-3", "0", "1"])
    def test_ballot_cap_below_two_refused(self, capsys, cap):
        # with every method, a cap below 2 would drop the ballot generator unseen
        code, out, err = run(capsys, "catalan", "-n", "5", "--ballot-cap", cap)
        assert (code, out) == (2, "")
        assert "--ballot-cap must be at least 2" in err and err.strip().endswith(f"got {cap}")
        code, out, _ = run(capsys, "catalan", "-n", "5", "--ballot-cap", cap, "--json")
        assert code == 2
        assert json.loads(out)["status"] == "error"

    def test_closed_stdout_exits_2(self):
        # like `cfinite catalan ... | head -n 1`: the BrokenPipeError ended in a
        # traceback with exit 1, the status of a failed certificate
        source = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-B", "-m", "cfinite.cli", "catalan", "-n", "3000", "--method=closed"],
            env={**os.environ, "PYTHONPATH": source},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline().startswith(b"#")
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 2
        assert b"Traceback" not in err

    def test_json_is_deterministic(self, capsys):
        _, out1, _ = run(capsys, "catalan", "-n", "6", "--json")
        _, out2, _ = run(capsys, "catalan", "-n", "6", "--json")
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["schema"] == "cfinite-cert/1"
        assert doc["payload"]["terms"][5] == {"index": 6, "value": "42"}

    def test_bfile_round_trip_no_recurrence(self, capsys, tmp_path):
        path = tmp_path / "catalan.txt"
        code, _, _ = run(capsys, "catalan", "-n", "30", "--output", str(path))
        assert code == 0
        seq, note = ingest_bfile(path)
        assert seq.terms == catalan_convolution(30).terms
        assert note is None
        assert guess_recurrence(seq, 8) is None
        code, out, _ = run(capsys, "guess", "--input", str(path), "--max-order", "8")
        assert code == 0
        assert "no recurrence of order <= 8" in out


class TestGuessCommand:
    def test_fibonacci_bfile(self, capsys, tmp_path):
        path = tmp_path / "fib.txt"
        lines = [f"{n} {v}" for n, v in enumerate(fibonacci(30).terms, start=1)]
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "guess", "--input", str(path), "--max-order", "5")
        assert code == 0
        assert "order 2" in out and "coefficients: 1, 1" in out

    def test_catalan_inline_with_witnesses(self, capsys):
        terms = ",".join(str(v) for v in catalan_convolution(30).terms)
        code, out, _ = run(capsys, "guess", "--terms", terms, "--max-order", "8", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["found"] is False
        witnesses = doc["payload"]["hankel_witnesses"]
        assert len(witnesses) == 9
        assert all(w["determinant"] not in (None, "0") for w in witnesses)

    def test_all_zero(self, capsys):
        code, out, _ = run(capsys, "guess", "--terms", "0,0,0,0,0,0")
        assert code == 0
        assert "order 0" in out

    def test_shift_note(self, capsys, tmp_path):
        path = tmp_path / "shifted.txt"
        path.write_text("0 1\n1 1\n2 2\n3 3\n4 5\n5 8\n6 13\n7 21\n8 34\n9 55\n")
        code, out, _ = run(capsys, "guess", "--input", str(path), "--max-order", "2")
        assert code == 0
        assert "re-indexed" in out

    def test_rational_terms_with_zero_windows(self, capsys):
        # b_1 = 0 ends the one-pass minors at order 0: every order searches offsets
        code, out, _ = run(capsys, "guess", "--terms", "0,0,1/2,0,3,1,0,5/3,2", "--json")
        assert code == 0
        assert json.loads(out)["payload"]["hankel_witnesses"] == [
            {"order": 0, "offset": 3, "determinant": "1/2"},
            {"order": 1, "offset": 2, "determinant": "-1/4"},
            {"order": 2, "offset": 1, "determinant": "-1/8"},
            {"order": 3, "offset": 1, "determinant": "9/4"},
            {"order": 4, "offset": 1, "determinant": "18457/72"},
        ]

    def test_decimal_terms_refused(self, capsys):
        # Fraction() read 0.5 as 1/2: this found the ratio 1/2 with exit 0
        code, out, err = run(capsys, "guess", "--terms", "0.5,0.25,0.125")
        assert (code, out) == (2, "")
        assert "not a rational number: '0.5'" in err

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "guess", "--max-order", "3")
        assert code == 2
        assert "supply" in err

    def test_blank_terms_refused(self, capsys):
        code, out, err = run(capsys, "guess", "--terms", " ")
        assert (code, out) == (2, "")
        assert "no terms supplied" in err

    def test_negative_max_order_is_named(self, capsys):
        # terms were supplied, so the error names the bad bound, not the terms
        code, _, err = run(capsys, "guess", "--terms", "1,2,3", "--max-order", "-1")
        assert code == 2
        assert "--max-order must be at least 0, got -1" in err
        assert "no terms" not in err


class TestRefuteCommand:
    def test_all_engines(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, out, _ = run(capsys, "refute", "4", "--output", str(path))
        assert code == 0
        assert "4 certificate(s), all validated" in out
        doc = json.loads(path.read_text())
        assert doc["schema"] == "cfinite-cert/1"
        assert [c["kind"] for c in doc["certificates"]] == [
            "parity",
            "polynomial",
            "hankel",
            "gf-mismatch",
        ]
        assert path.read_text() == serialize_bundle(refute_all(LinearRecurrence((4,))))
        _, out, _ = run(capsys, "refute", "4", "--json")
        assert out == path.read_text()

    def test_polynomial_summary_is_bounded(self, capsys):
        # the line names deg p, p(-k), the witness and the residual, not p:
        # the whole p was 3.6 MB of text at k = 512; --json keeps it
        coefficients = ",".join(f"{j % 7 - 3}/{j % 5 + 1}" for j in range(64))
        code, out, _ = run(capsys, "refute", "--method", "poly", "--", coefficients)
        assert code == 0
        [line] = [line for line in out.splitlines() if line.startswith("  polynomial:")]
        assert line.startswith("  polynomial: deg p = 192, p(-64) = -") and line.endswith(" at n = 1")
        assert len(line) < 200
        _, out, _ = run(capsys, "refute", "--method", "poly", "--json", "--", coefficients)
        [cert] = json.loads(out)["certificates"]
        coefficients_of_p = [c for c in cert["polynomial"] if len(c) > 3]
        assert len(coefficients_of_p) > 150
        assert not any(c in line for c in coefficients_of_p)

    def test_empty_candidate_parity(self, capsys):
        code, out, _ = run(capsys, "refute", "", "--method", "parity", "--json")
        assert code == 0
        doc = json.loads(out)
        cert = doc["certificates"][0]
        assert cert["coprime_vector"] == [-1]
        assert cert["window_start"] == 1
        assert cert["residual"] == -1

    def test_fractional_parity_window(self, capsys):
        code, out, _ = run(capsys, "refute", "1/3,2,5/3", "--method", "parity", "--json")
        assert code == 0
        cert = json.loads(out)["certificates"][0]
        assert cert["coprime_vector"] == [1, 6, 5, -3]
        assert cert["window_start"] == 8

    def test_poly_on_order_zero_guided(self, capsys):
        code, _, err = run(capsys, "refute", "", "--method", "poly")
        assert code == 2
        assert "parity" in err

    def test_malformed_coefficients(self, capsys):
        code, _, err = run(capsys, "refute", "1,,2")
        assert code == 2
        assert "rational" in err

    def test_integer_past_the_digit_limit(self, capsys):
        coefficients = ",".join(str(c) for c in BIG_DENOMINATORS.coefficients)
        code, out, _ = run(capsys, "refute", coefficients, "--method", "parity", "--json")
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert "parity.coprime_vector" in doc["payload"]["message"]
        code, _, err = run(capsys, "refute", coefficients, "--method", "parity")
        assert code == 2 and "sys.get_int_max_str_digits()" in err

    def test_hankel_document_of_a_wide_candidate(self, capsys, tmp_path):
        # a Hankel certificate clears no denominator, so its document is
        # written and validated however wide the candidate's common denominator
        coefficients = ",".join(str(c) for c in BIG_DENOMINATORS.coefficients)
        path = tmp_path / "cert.json"
        code, _, _ = run(capsys, "refute", coefficients, "--method", "hankel", "--output", str(path))
        assert code == 0
        code, _, _ = run(capsys, "validate", "--input", str(path))
        assert code == 0

    @pytest.mark.parametrize("method", ["all", "hankel"])
    def test_max_order_below_the_candidate_order_is_an_error(self, capsys, method):
        # it exited 1: the Hankel certificate written did not cover order 2
        argv = ("refute", "1,1", "--max-order", "1", "--method", method)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "--max-order 1 is below the candidate's order 2" in err
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 2
        assert json.loads(out)["status"] == "error"

    @pytest.mark.parametrize(
        "method, checks",
        [
            ("all", CHECKS),
            ("parity", ("validate_parity",)),
            ("poly", ("validate_polynomial",)),
            ("hankel", ("validate_hankel", "_check_catalan_hankel")),
            ("gf", ("validate_gf", "_check_rational_gf")),
        ],
    )
    def test_one_check_on_the_written_text(self, capsys, monkeypatch, tmp_path, method, checks):
        # the builders do not check, so each check runs once, on the text
        # that --json prints and --output writes; it ran twice before
        calls = count_checks(monkeypatch)
        checked = []
        validate = certify_module.validate_serialized

        def recording(text):
            checked.append(text)
            return validate(text)

        monkeypatch.setattr(certify_module, "validate_serialized", recording)
        path = tmp_path / "cert.json"
        argv = ("refute", "--method", method, "--json", "--output", str(path), "--", "1/2,3,-2")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert calls == {name: int(name in checks) for name in CHECKS}
        assert checked == [out] == [path.read_text()]

    def test_an_engine_fault_is_reported_invalid(self, capsys, monkeypatch):
        # the polynomial engine's own check exited 2 with its CertificateError;
        # now the one check on the written document refuses it, exit 1
        build = certify_module._build_polynomial

        def faulty(candidate):
            cert = build(candidate)
            return replace(cert, residual=cert.residual + 1)

        monkeypatch.setattr(certify_module, "_build_polynomial", faulty)
        code, out, _ = run(capsys, "refute", "--method", "poly", "4")
        assert code == 1
        assert out.splitlines()[-1].startswith("INVALID: stored residual")
        with pytest.raises(CertificateError, match="stored residual"):
            refute_by_polynomial(LinearRecurrence((4,)))

    def test_past_the_digit_limit_fails_before_any_check(self, capsys, monkeypatch):
        # p at k = 600 has a coefficient past the int/str limit: the writer
        # refuses it before anything is checked (it was built and validated first)
        calls = count_checks(monkeypatch)
        code, out, err = run(capsys, "refute", "--method", "poly", "--", ",".join(["1"] * 600))
        assert (code, out) == (2, "")
        assert "certificate field polynomial.polynomial holds an integer of more than" in err
        assert calls == dict.fromkeys(CHECKS, 0)

    def test_exponent_refused_before_it_is_built(self, capsys):
        # Fraction("1e10000000") built 10**(10**7) for 8.4 s, then the digit limit exited 2
        start = time.perf_counter()
        code, out, err = run(capsys, "refute", "--", "1e10000000")
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (2, "")
        assert "not a rational number: '1e10000000'" in err

    def test_number_past_the_digit_limit(self, capsys):
        # "not a rational number: '777..." with every digit: 5,176 bytes
        code, out, err = run(capsys, "refute", "--", "7" * 5000)
        assert (code, out) == (2, "")
        assert "sys.get_int_max_str_digits()" in err and len(err) < 300
        code, out, _ = run(capsys, "refute", "--json", "--", "7" * 5000)
        assert code == 2 and len(out) < 400
        assert json.loads(out)["status"] == "error"

    def test_json_deterministic(self, capsys):
        _, out1, _ = run(capsys, "refute", "4", "--json")
        _, out2, _ = run(capsys, "refute", "4", "--json")
        assert out1 == out2


class TestValidateCommand:
    def test_valid_document(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "refute", "1/2,3", "--output", str(path))
        code, out, _ = run(capsys, "validate", "--input", str(path))
        assert code == 0
        assert "valid" in out

    def test_tampered_document_fails(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "refute", "4", "--output", str(path))
        text = path.read_text()
        tampered = text.replace('"residual":3', '"residual":7', 1)
        assert tampered != text
        path.write_text(tampered)
        code, out, _ = run(capsys, "validate", "--input", str(path))
        assert code == 1
        assert "INVALID" in out

    @pytest.mark.parametrize("forge", ["denominator", "q0"])
    def test_zero_forgery_is_invalid(self, capsys, tmp_path, forge):
        from cfinite.certify import _payload_digest

        path = tmp_path / "cert.json"
        run(capsys, "refute", "4", "--output", str(path))
        doc = json.loads(path.read_text())
        if forge == "denominator":
            doc["candidate"]["coefficients"][0] = "4/0"
        else:
            doc["certificates"][-1]["denominator"][0] = "0"
        doc["sha256"] = _payload_digest(doc)
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", "--input", str(path), "--json")
        assert code == 1
        assert json.loads(out)["status"] == "invalid"

    @pytest.mark.parametrize("form", sorted(NUMBER_TYPE_FORGERIES))
    def test_number_type_forgery_is_invalid(self, capsys, tmp_path, form):
        path = tmp_path / "cert.json"
        run(capsys, "refute", "4", "--output", str(path))
        path.write_text(NUMBER_TYPE_FORGERIES[form](path.read_text()))
        code, out, _ = run(capsys, "validate", "--input", str(path), "--json")
        assert code == 1
        assert json.loads(out)["status"] == "invalid"

    @pytest.mark.parametrize("k", FORGERY_ORDERS)
    def test_polynomial_forgery_is_invalid(self, capsys, tmp_path, k):
        path = tmp_path / "cert.json"
        path.write_text(forged_polynomial_text(k))
        code, out, _ = run(capsys, "validate", "--input", str(path), "--json")
        assert code == 1
        assert json.loads(out)["status"] == "invalid"

    @pytest.mark.parametrize("name", sorted(HOLE_FORGERIES))
    def test_hole_forgery_is_invalid(self, capsys, tmp_path, name):
        path = tmp_path / "cert.json"
        path.write_text(HOLE_FORGERIES[name][0]())
        code, out, _ = run(capsys, "validate", "--input", str(path), "--json")
        assert code == 1
        assert json.loads(out)["status"] == "invalid"

    @pytest.mark.parametrize("name", sorted(NON_CANONICAL_FORMS))
    def test_non_canonical_form_is_invalid(self, capsys, tmp_path, name):
        path = tmp_path / "cert.json"
        path.write_text(NON_CANONICAL_FORMS[name]())
        code, out, _ = run(capsys, "validate", "--input", str(path), "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "invalid" and "written form" in doc["payload"]["reason"]

    def test_hankel_bound_past_the_cap_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(hankel_past_cap_text())
        start = time.perf_counter()
        code, out, _ = run(capsys, "validate", "--input", str(path), "--json")
        assert time.perf_counter() - start < 1
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "error" and "past the cap" in doc["payload"]["message"]

    @pytest.mark.parametrize("name", sorted(DENOMINATOR_CAP_BUNDLES))
    def test_wide_common_denominator_is_an_error(self, capsys, tmp_path, name):
        # these exited 1 as invalid, the candidate one after 28.5 s in
        # normalize_coprime; a common denominator past the digit limit is a cap, exit 2
        make, what = DENOMINATOR_CAP_BUNDLES[name]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(forged_document(make())))
        code, out, _ = run(capsys, "validate", "--input", str(path), "--json")
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "error" and doc["payload"]["message"].startswith(what)

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", "--input", str(tmp_path / "nope.json"))
        assert code == 2

    def test_exponent_forgery_is_invalid(self, capsys):
        # the reader built 10**(10**7) for 7.6 s, and the digit limit then exited 2
        path = FORGED / "exponent_coefficient.json"
        start = time.perf_counter()
        code, out, _ = run(capsys, "validate", "--input", str(path), "--json")
        assert time.perf_counter() - start < 1
        assert code == 1
        assert json.loads(out)["status"] == "invalid"

    def test_deep_document_is_invalid(self, capsys, tmp_path):
        # the parser's RecursionError ended in a traceback, and --json printed nothing
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, _ = run(capsys, "validate", "--input", str(path), "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "invalid" and "depth limit" in doc["payload"]["reason"]

    def test_non_utf8_document_is_invalid(self, capsys, tmp_path):
        # reading it as text raised UnicodeDecodeError, a usage error: exit 2, status error
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, _ = run(capsys, "validate", "--input", str(path), "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "invalid" and "'utf-8' codec" in doc["payload"]["reason"]

    @pytest.mark.parametrize("name", sorted(LONG_VALUE_FORGERIES))
    def test_long_value_refusal_is_short(self, capsys, tmp_path, name):
        path = tmp_path / "cert.json"
        path.write_text(LONG_VALUE_FORGERIES[name][0]())
        code, out, _ = run(capsys, "validate", "--input", str(path), "--json")
        assert code == 1
        assert len(out) < 1024
        assert json.loads(out)["status"] == "invalid"

    def test_long_number_literal_refusal_is_short(self, capsys, tmp_path):
        # the reason once held the whole literal: 200,167 bytes of output
        path = tmp_path / "float.json"
        path.write_text("[1." + "2" * 200_000 + "]")
        code, out, _ = run(capsys, "validate", "--input", str(path), "--json")
        assert code == 1
        assert len(out) < 1000
        assert json.loads(out)["status"] == "invalid"


class TestBinetCommand:
    def test_fibonacci(self, capsys):
        code, out, _ = run(capsys, "binet", "1,1", "--initial", "1,1")
        assert code == 0
        assert "1.6180339887" in out
        assert "dominant part: degree s = 0" in out and "l = 1" in out

    def test_exact_geometric(self, capsys):
        code, out, _ = run(capsys, "binet", "2", "--initial", "2")
        assert code == 0
        assert "root 2: polynomial 1" in out
        assert "reconstruction over n = 1..20: exact" in out

    def test_zero_root_dropped_with_note(self, capsys):
        code, out, _ = run(capsys, "binet", "0,2", "--initial", "1,1")
        assert code == 0
        assert "root 0 dropped" in out
        assert "matches from n = 2" in out

    def test_zero_root_error_mode(self, capsys):
        code, _, err = run(
            capsys, "binet", "0,2", "--initial", "1,1", "--on-zero-root", "error"
        )
        assert code == 2
        assert "root 0" in err

    def test_error_mode_without_zero_root(self, capsys):
        for argv in (("",), ("1,1", "--initial", "1,1"), ("2,0", "--initial", "1,1")):
            code, _, _ = run(capsys, "binet", *argv, "--on-zero-root", "error")
            assert code == 0
        code, _, err = run(capsys, "binet", "0,0,1", "--initial", "1,1,1", "--on-zero-root", "error")
        assert code == 2
        assert "root 0" in err

    def test_negative_terms_refused(self, capsys):
        # it was silently raised to the order
        argv = ("binet", "1,1", "--initial", "1,1", "--terms", "-1")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "--terms must be at least 0, got -1" in err
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 2
        assert json.loads(out)["status"] == "error"


    def test_reconstruction_error_is_relative(self, capsys):
        # b_n = 10^13 b_{n-1} + b_{n-2} has the irrational roots about 10^13 and
        # -10^-13, so it takes the numeric tier with values near 10^260
        code, out, _ = run(capsys, "binet", "1,10000000000000", "--initial", "1,10000000000000", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "ok" and float(doc["payload"]["reconstruction"]) < 1e-12
        # b_n = 10^(13 n) took the numeric tier too, with an absolute error of
        # 6.828e+244; its rational root is now found exactly by p-adic lifting
        code, out, _ = run(capsys, "binet", "10000000000000", "--initial", "10000000000000", "--json")
        assert code == 0 and json.loads(out)["payload"]["reconstruction"] == "exact"
        code, out, _ = run(capsys, "binet", "1,1", "--initial", "1,1")
        assert "reconstruction over n = 1..20: max relative error " in out

    def test_near_equal_roots_reconstruct_far_out(self, capsys):
        # irrational roots 1 +- sqrt(2) 10^-8: the numeric pair must stay
        # apart well enough to reconstruct n <= 1000
        coefficients = "-9999999999999998/10000000000000000,2"
        argv = ("binet", "--initial", "1,2", "--terms", "1000", "--json", "--", coefficients)
        code, out, _ = run(capsys, *argv)
        doc = json.loads(out)
        assert code == 0 and doc["status"] == "ok"
        assert float(doc["payload"]["reconstruction"]) < 1e-8
        # roots 1 +- 10^-8 are rational: p-adic lifting finds both exactly,
        # so the power sum is exact
        coefficients = "-9999999999999999/10000000000000000,2"
        argv = ("binet", "--initial", "1,2", "--terms", "1000", "--json", "--", coefficients)
        code, out, _ = run(capsys, *argv)
        doc = json.loads(out)
        assert code == 0 and doc["status"] == "ok"
        assert doc["payload"]["reconstruction"] == "exact"
        roots = [r["root"] for r in doc["payload"]["roots"]]
        assert roots == ["99999999/100000000", "100000001/100000000"]

    def test_reconstruction_past_the_tolerance_exits_1(self, capsys, monkeypatch):
        from cfinite import powersum

        evaluate = powersum.evaluate_powersum
        # binet_form's own check covers n <= 2; spoil every later value by 1e-3
        monkeypatch.setattr(
            powersum, "evaluate_powersum", lambda ps, n: evaluate(ps, n) * (1.001 if n > 2 else 1)
        )
        code, out, _ = run(capsys, "binet", "1,1", "--initial", "1,1")
        assert code == 1
        assert f"max relative error 1.000e-03, above {powersum.RECONSTRUCTION_TOLERANCE:g}" in out
        code, out, _ = run(capsys, "binet", "1,1", "--initial", "1,1", "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "error" and doc["payload"]["reconstruction"] == "1.000e-03"

    def test_values_past_the_float_range_are_an_error(self, capsys):
        # phi^1475 is past the largest float: it ended in an OverflowError traceback
        argv = ("binet", "1,1", "--initial", "1,1", "--terms", "1600")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "b_1475 is past the float range; rerun with --terms below 1475" in err
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 2 and json.loads(out)["status"] == "error"
        # a coefficient past the float range stops the numeric root tier itself
        code, _, err = run(capsys, "binet", "1" + "0" * 400, "--initial", "1")
        assert code == 2 and err.startswith("error: ")

    def test_roots_past_the_float_range_are_refused(self, capsys):
        # the root 10^200 squared in a Vandermonde row is past the float range
        code, out, err = run(capsys, "binet", "--initial", "1,1", "--", "1," + str(10**200))
        assert (code, out) == (2, "")
        assert err == "error: root 1e+200+0j to the power 2 is past the float range\n"

    @pytest.mark.parametrize(
        "root, shown",
        [("1/" + str(10**400), "1.000000e-400"), (str(10**400), "1.000000e+400")],
        ids=["10^-400", "10^400"],
    )
    def test_exact_roots_past_the_float_range_are_refused(self, capsys, root, shown):
        # 10^-400 turned into 0.0 and ended in a ZeroDivisionError traceback;
        # 10^400 exited 2 with a bare "integer division result too large for a float"
        code, out, err = run(capsys, "binet", "--initial", root, "--", root)
        assert (code, out) == (2, "")
        assert err == f"error: root {shown} has a modulus past the float range\n"


class TestGfCommand:
    def test_fibonacci(self, capsys):
        code, out, _ = run(capsys, "gf", "1,1", "--initial", "1,1")
        assert code == 0
        assert "x/(1 - x - x^2)" in out

    def test_catalan(self, capsys):
        code, out, _ = run(capsys, "gf", "catalan", "--truncation", "12")
        assert code == 0
        assert "12 58786" in out
        assert "(2C - 1)^2 = 1 - 4x: OK" in out

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "gf", "", "--initial", "")
        assert code == 0
        assert "generating function: 0" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("gf", "catalan", "--truncation", "-3"),
            ("gf", "1,1", "--initial", "1,1", "--truncation", "-5"),
        ],
        ids=["catalan", "recurrence"],
    )
    def test_negative_truncation_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "--truncation must be at least 0" in err
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 2
        assert json.loads(out)["status"] == "error"

    def test_zero_truncation_keeps_its_output(self, capsys):
        # catalan still prints coefficients 0..1; a recurrence still expands to its order
        code, out, _ = run(capsys, "gf", "catalan", "--truncation", "0")
        assert code == 0
        assert out.splitlines()[:3] == ["# Catalan generating function, coefficients 0..1", "0 0", "1 1"]
        code, out, _ = run(capsys, "gf", "1,1", "--initial", "1,1", "--truncation", "0")
        assert code == 0
        assert "series: 0, 1, 1, ..." in out

    @pytest.mark.parametrize(
        "argv, note",
        [
            (("gf", "catalan", "--truncation", "0"), "note: --truncation 0 raised to 1"),
            (
                ("gf", "1,1", "--initial", "1,1", "--truncation", "1"),
                "note: --truncation 1 raised to 2, the recurrence's order",
            ),
        ],
    )
    def test_raised_truncation_is_noted(self, capsys, argv, note):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.splitlines()[-1] == note
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0 and "note" not in out
        code, out, _ = run(capsys, *argv[:-1], "2")
        assert code == 0 and "note:" not in out

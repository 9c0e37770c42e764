from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction

from pisotlab.certify import Verdict, certify_pisot
from pisotlab.intervals import RatInterval, decimal_upper
from pisotlab.poly import IntPolynomial
from pisotlab.report import (
    SCHEMA_VERSION,
    ReportWriter,
    certificate_payload,
    enc_fraction,
    enc_int,
    enc_interval,
    enc_poly,
)


def test_enc_int_and_fraction() -> None:
    assert enc_int(5) == "5"
    assert enc_int(-12) == "-12"
    assert enc_fraction(Fraction(7)) == "7"
    assert enc_fraction(Fraction(22, 7)) == "22/7"
    assert enc_fraction(Fraction(-1, 3)) == "-1/3"


@contextlib.contextmanager
def _no_digit_cap():
    """Lift the interpreter's int-to-str digit cap for a reference only."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_values_past_the_digit_cap_print_in_full() -> None:
    big = 10**5000 + 987654321
    got = [enc_int(big), enc_int(-big), enc_int(10**5000), enc_int(-(10**5000)),
           enc_fraction(Fraction(-big, 7)), decimal_upper(Fraction(big, 3), 36)]
    with _no_digit_cap():
        up = -((-big * 10**36) // 3)
        want = [str(big), str(-big), str(10**5000), str(-(10**5000)),
                "%d/7" % -big, "%d.%036d" % divmod(up, 10**36)]
    assert got == want


def test_values_within_the_digit_cap_print_as_str() -> None:
    rng = random.Random(4300)
    values = [0, 10**4299, 10**4300 - 1, -(10**4300 - 1)]
    values += [rng.choice((1, -1)) * rng.getrandbits(rng.randrange(1, 14280)) for _ in range(200)]
    assert [enc_int(v) for v in values] == [str(v) for v in values]


def test_enc_interval_outward() -> None:
    iv = RatInterval(Fraction(1, 3), Fraction(2, 3))
    d = enc_interval(iv, bits=64)
    assert d["bits"] == 64
    assert Fraction(d["lo"]) <= Fraction(1, 3)
    assert Fraction(d["hi"]) >= Fraction(2, 3)
    # every record prints 36 fractional digits, rounded outward
    assert d["lo"] == "0." + "3" * 36
    assert d["hi"] == "0." + "6" * 35 + "7"
    # exact decimal endpoints are reproduced without slack
    point = enc_interval(RatInterval(Fraction(1, 4), Fraction(1, 4)))
    assert Fraction(point["lo"]) == Fraction(point["hi"]) == Fraction(1, 4)
    assert point["lo"] == point["hi"] == "0.25" + "0" * 34
    assert "bits" not in point


def test_enc_poly() -> None:
    d = enc_poly(IntPolynomial.from_coeffs([-1, -1, 1]))
    assert d["coeffs"] == ["-1", "-1", "1"]
    assert "x^2" in d["text"]


def _lines(buf: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in buf.getvalue().splitlines()]


def test_writer_shape() -> None:
    buf = io.StringIO()
    w = ReportWriter(buf, "certify", {"poly": "-1,-1,1"})
    w.record("certificate", {"verdict": "pisot"})
    w.close()
    header, rec, trailer = _lines(buf)
    assert header["schema_version"] == SCHEMA_VERSION
    assert header["command"] == "certify"
    assert header["inputs"] == {"poly": "-1,-1,1"}
    assert rec["record"] == "certificate"
    assert rec["verdict"] == "pisot"
    assert trailer == {"status": "ok", "error_count": 0}


def test_writer_errors_counted() -> None:
    buf = io.StringIO()
    w = ReportWriter(buf, "iterate", {})
    w.error("rounding", "half-integer hit", level=2, n=7)
    w.close("rounding_failure")
    _, err, trailer = _lines(buf)
    assert err == {
        "error": "rounding",
        "message": "half-integer hit",
        "level": 2,
        "n": 7,
    }
    assert trailer == {"status": "rounding_failure", "error_count": 1}


def test_writer_header_waits_for_the_first_line() -> None:
    buf = io.StringIO()
    w = ReportWriter(buf, "suite", {"pmax": 1})
    assert buf.getvalue() == ""  # a command refused here prints nothing
    w.error("scan", "empty prime range")
    header, err = _lines(buf)
    assert header["inputs"] == {"pmax": 1}
    assert err["error"] == "scan"


def test_writer_close_idempotent() -> None:
    buf = io.StringIO()
    w = ReportWriter(buf, "suite", {})
    w.close()
    w.close("other")
    assert len(buf.getvalue().splitlines()) == 2


def test_writer_sorted_compact_deterministic() -> None:
    def run() -> str:
        buf = io.StringIO()
        w = ReportWriter(buf, "suite", {"b": 1, "a": 2})
        w.record("row", {"zeta": 1, "alpha": 2})
        w.close()
        return buf.getvalue()

    first, second = run(), run()
    assert first == second
    line = first.splitlines()[1]
    assert line.index('"alpha"') < line.index('"zeta"')
    assert ": " not in line and ", " not in line


def test_certificate_payload_pisot() -> None:
    cert = certify_pisot(IntPolynomial.from_coeffs([-1, -1, 1]))
    d = certificate_payload(cert)
    assert d["verdict"] == Verdict.PISOT.value
    assert Fraction(d["dominant_root"]["lo"]) > 1
    assert len(d["conjugate_moduli"]) == 1
    assert Fraction(enc_fraction(Fraction(d["conjugate_bound"]))) < 1
    assert "failure_reason" not in d


def test_certificate_payload_rejection() -> None:
    cert = certify_pisot(IntPolynomial.from_coeffs([2, -3, 1]))  # (x-1)(x-2)
    d = certificate_payload(cert)
    assert d["verdict"] == Verdict.NOT_PISOT.value
    assert d["unit_root"] == "1"
    assert "unit circle" in d["failure_reason"]

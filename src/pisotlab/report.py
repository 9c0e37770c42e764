"""Line-delimited structured reports.

One JSON object per line: a header (schema version, command, echoed
inputs), then one line per result record, then a status trailer.  The
header is written with the first record, error or trailer, so a command
that writes none of them leaves its stream empty.  Numbers
never appear as bare floats: exact integers and rationals are decimal
strings (rationals as ``"p/q"``), and every inexact quantity is an outward
decimal interval together with the working precision in bits.  Key order
is sorted, so identical runs produce byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import IO

from .intervals import RatInterval, decimal_lower, decimal_upper, int_to_decimal
from .poly import IntPolynomial

SCHEMA_VERSION = 1
DEFAULT_DIGITS = 36


def enc_int(v: int) -> str:
    return int_to_decimal(int(v))


def enc_fraction(q) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return int_to_decimal(q.numerator)
    return "%s/%s" % (int_to_decimal(q.numerator), int_to_decimal(q.denominator))


def enc_interval(iv: RatInterval, bits: int | None = None) -> dict:
    out = {
        "lo": decimal_lower(iv.lo, DEFAULT_DIGITS),
        "hi": decimal_upper(iv.hi, DEFAULT_DIGITS),
    }
    if bits is not None:
        out["bits"] = bits
    return out


def enc_poly(p: IntPolynomial) -> dict:
    return {"coeffs": [str(c) for c in p.coeffs], "text": str(p)}


class ReportWriter:
    """Emits header / records / trailer as JSON lines."""

    def __init__(self, stream: IO[str], command: str, inputs: dict):
        self._stream = stream
        self._errors: list[dict] = []
        self._closed = False
        # written with the first line, so a command that refuses its inputs
        # before any result leaves the stream empty
        self._header: dict | None = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "inputs": inputs,
        }

    def record(self, kind: str, payload: dict) -> None:
        rec = {"record": kind}
        rec.update(payload)
        self._write(rec)

    def error(self, kind: str, message: str, **extra) -> None:
        err = {"error": kind, "message": message}
        err.update(extra)
        self._errors.append(err)
        self._write(err)

    def close(self, status: str = "ok") -> None:
        if self._closed:
            return
        self._closed = True
        self._write({"status": status, "error_count": len(self._errors)})

    def _write(self, obj: dict) -> None:
        header, self._header = self._header, None
        for line in (header, obj) if header else (obj,):
            self._stream.write(json.dumps(line, sort_keys=True, separators=(",", ":")))
            self._stream.write("\n")


def congruence_payload(report) -> dict:
    """Serialize a CongruenceReport."""
    return {
        "level": report.level,
        "primes": list(report.primes),
        "residues": {str(p): enc_int(report.residues[p]) for p in report.primes},
        "centered": {str(p): enc_int(report.centered[p]) for p in report.primes},
        "method": {str(p): report.method[p] for p in report.primes},
        "branch": {
            "kind": report.branch.kind,
            "value": None if report.branch.value is None else enc_int(report.branch.value),
            "onset_prime": report.branch.onset_prime,
        },
    }


def certificate_payload(cert) -> dict:
    out = {
        "verdict": cert.verdict.value,
        "irreducibility_witness": cert.irreducibility_witness,
    }
    if cert.dominant_root is not None:
        out["dominant_root"] = enc_interval(cert.dominant_root)
    if cert.conjugate_moduli:
        out["conjugate_moduli"] = [enc_interval(m) for m in cert.conjugate_moduli]
    if cert.conjugate_bound is not None:
        out["conjugate_bound"] = enc_fraction(cert.conjugate_bound)
    if cert.unit_root is not None:
        out["unit_root"] = enc_int(cert.unit_root)
    if cert.failure_reason:
        out["failure_reason"] = cert.failure_reason
    return out


"""Named polynomial catalog: the bundled fields plus user-supplied files.

A catalog file is JSON with a ``schema_version`` and an ``entries`` list.
Coefficients are ascending decimal strings, so arbitrarily large integers
survive the round trip.  ``expected_patterns`` annotations are optional and
translate directly into an :class:`~pisotlab.conjectures.ExpectationSet`
for suite grading; they record empirically pinned behavior, not theorems.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .conjectures import ExpectationSet, LevelExpectation
from .errors import CatalogError, InvalidParameters
from .poly import IntPolynomial, read_int

SCHEMA_VERSION = 1

DEFAULT_NAMES = (
    "golden",
    "silver",
    "golden_square",
    "plastic",
    "second_smallest",
    "delta2",
    "atypical",
)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    poly: IntPolynomial
    provenance: str
    expectations: ExpectationSet | None

    @property
    def degree(self) -> int:
        return self.poly.degree


class Catalog:
    def __init__(self, entries: list[CatalogEntry], source: str):
        self._by_name = {}
        for e in entries:
            if e.name in self._by_name:
                raise CatalogError("duplicate catalog name %r in %s" % (e.name, source))
            self._by_name[e.name] = e
        self.source = source

    def __iter__(self):
        return iter(self._by_name.values())

    def names(self) -> list[str]:
        return list(self._by_name)

    def get(self, name: str) -> CatalogEntry:
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(
                "no catalog entry %r (available: %s)" % (name, ", ".join(self._by_name))
            ) from None


def load_catalog(path: str | Path | None = None) -> Catalog:
    """Load a catalog file; with no path, the bundled default catalog."""
    if path is None:
        source = "builtin"
        text = (
            resources.files("pisotlab").joinpath("data/catalog.json").read_text("utf-8")
        )
    else:
        source = str(path)
        try:
            text = Path(path).read_text("utf-8")
        except OSError as exc:
            raise CatalogError("cannot read catalog %s: %s" % (path, exc)) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError("catalog %s is not valid JSON: %s" % (source, exc)) from exc
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        raise CatalogError(
            "catalog %s: expected schema_version %d" % (source, SCHEMA_VERSION)
        )
    raw_entries = doc.get("entries")
    if not isinstance(raw_entries, list):
        raise CatalogError("catalog %s: 'entries' must be a list" % source)
    return Catalog([_parse_entry(e, i, source) for i, e in enumerate(raw_entries)], source)


def _parse_entry(raw, index: int, source: str) -> CatalogEntry:
    if not isinstance(raw, dict) or not isinstance(raw.get("name"), str):
        raise CatalogError(
            "catalog %s: entry %d is not an object with a string name" % (source, index)
        )
    name = raw["name"]
    if "coeffs" not in raw:
        raise CatalogError("catalog %s entry %r: missing 'coeffs'" % (source, name))
    coeff_strings = raw["coeffs"]
    try:
        if not isinstance(coeff_strings, list):
            raise TypeError("coeffs must be a list, got %r" % (coeff_strings,))
        poly = IntPolynomial.from_coeffs(coeff_strings)
    except (TypeError, InvalidParameters) as exc:
        raise CatalogError(
            "catalog %s entry %r: bad coefficient list: %s" % (source, name, exc)
        ) from exc
    if not poly.is_monic:
        raise CatalogError("catalog %s entry %r: polynomial is not monic" % (source, name))
    expectations = None
    if raw.get("expected_patterns"):
        expectations = _parse_expectations(name, raw["expected_patterns"], source)
    return CatalogEntry(name, poly, raw.get("provenance", ""), expectations)


def _items(value, read) -> tuple:
    # a string is not the list of its characters, nor an object of its keys
    if not isinstance(value, list):
        raise TypeError("%r is not iterable as a list" % (value,))
    return tuple(read(v) for v in value)


def _kind(value) -> str:
    if not isinstance(value, str):
        raise TypeError("%r is not a string" % (value,))
    return value


# optional expectation keys and the converter of each present value; a
# null recurrence_coeffs means none
_EXPECTATION_KEYS = {
    "congruence": read_int,
    "max_onset_prime": read_int,
    "constant": lambda kinds: _items(kinds, _kind),
    "max_onset_index": read_int,
    "recurrence_coeffs": lambda rec: None if rec is None else _items(rec, read_int),
}


def _parse_expectations(name: str, raw: dict, source: str) -> ExpectationSet:
    items = raw.get("levels", []) if isinstance(raw, dict) else None
    if not isinstance(items, list):
        raise CatalogError(
            "catalog %s entry %r: bad expected_patterns %r" % (source, name, raw)
        )
    levels = []
    for item in items:
        try:
            level = read_int(item["level"])
            if level < 0:
                raise InvalidParameters("level %d is below 0" % level)
            optional = {
                key: convert(item[key])
                for key, convert in _EXPECTATION_KEYS.items()
                if key in item
            }
            levels.append(LevelExpectation(level, **optional))
        except (TypeError, KeyError, InvalidParameters) as exc:
            raise CatalogError(
                "catalog %s entry %r: bad expectation item %r (%s)"
                % (source, name, item, exc)
            ) from exc
    return ExpectationSet(name, tuple(levels))

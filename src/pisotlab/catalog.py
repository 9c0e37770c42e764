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
from .errors import CatalogError
from .poly import IntPolynomial

__all__ = ["CatalogEntry", "Catalog", "load_catalog", "DEFAULT_NAMES"]

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

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

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
    return Catalog([_parse_entry(e, source) for e in raw_entries], source)


def _parse_entry(raw: dict, source: str) -> CatalogEntry:
    try:
        name = raw["name"]
        coeff_strings = raw["coeffs"]
    except (TypeError, KeyError) as exc:
        raise CatalogError("catalog %s: entry missing %s" % (source, exc)) from exc
    try:
        coeffs = tuple(int(c) for c in coeff_strings)
    except (TypeError, ValueError) as exc:
        raise CatalogError(
            "catalog %s entry %r: bad coefficient list: %s" % (source, name, exc)
        ) from exc
    poly = IntPolynomial(coeffs)
    if not poly.is_monic:
        raise CatalogError("catalog %s entry %r: polynomial is not monic" % (source, name))
    expectations = None
    if raw.get("expected_patterns"):
        expectations = _parse_expectations(name, raw["expected_patterns"], source)
    return CatalogEntry(name, poly, raw.get("provenance", ""), expectations)


# optional expectation keys and the converter of each present value; a
# null recurrence_coeffs means none
_EXPECTATION_KEYS = {
    "congruence": int,
    "max_onset_prime": int,
    "constant": tuple,
    "max_onset_index": int,
    "recurrence_coeffs": lambda rec: None if rec is None else tuple(int(c) for c in rec),
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
            level = int(item["level"])
            optional = {
                key: convert(item[key])
                for key, convert in _EXPECTATION_KEYS.items()
                if key in item
            }
            levels.append(LevelExpectation(level, **optional))
        except (TypeError, KeyError, ValueError) as exc:
            raise CatalogError(
                "catalog %s entry %r: bad expectation item %r (%s)"
                % (source, name, item, exc)
            ) from exc
    return ExpectationSet(name, tuple(levels))

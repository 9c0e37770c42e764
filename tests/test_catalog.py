from __future__ import annotations

import json

import pytest

from pisotlab.catalog import DEFAULT_NAMES, load_catalog
from pisotlab.cli import main
from pisotlab.conjectures import LevelExpectation
from pisotlab.errors import CatalogError
from pisotlab.poly import IntPolynomial, delta2_poly, plastic_poly


def test_builtin_catalog_names() -> None:
    cat = load_catalog()
    assert cat.source == "builtin"
    assert tuple(cat.names()) == DEFAULT_NAMES
    assert len(cat) == 7
    for name in DEFAULT_NAMES:
        assert name in cat


def test_builtin_polynomials() -> None:
    cat = load_catalog()
    assert cat.get("golden").poly == IntPolynomial.from_coeffs([-1, -1, 1])
    assert cat.get("plastic").poly == plastic_poly()
    assert cat.get("delta2").poly == delta2_poly()
    atyp = cat.get("atypical")
    assert atyp.poly == IntPolynomial.from_coeffs([-1, 1, -1, 0, 1, -2, 1])
    assert atyp.degree == 6


def test_builtin_expectations_present() -> None:
    cat = load_catalog()
    g = cat.get("golden").expectations
    assert g is not None
    assert g.max_level() == 1
    levels = {e.level: e for e in g.levels}
    assert levels[0].congruence == 1
    # every bundled entry carries at least a level-0 congruence
    for entry in cat:
        assert entry.expectations is not None
        assert any(e.level == 0 for e in entry.expectations.levels)


def test_get_unknown_name() -> None:
    cat = load_catalog()
    with pytest.raises(CatalogError, match="available"):
        cat.get("bronze")


def test_load_user_catalog(tmp_path) -> None:
    doc = {
        "schema_version": 1,
        "entries": [
            {"name": "golden", "coeffs": ["-1", "-1", "1"], "provenance": "mine"}
        ],
    }
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    cat = load_catalog(path)
    assert cat.names() == ["golden"]
    assert cat.get("golden").provenance == "mine"
    assert cat.get("golden").expectations is None


def test_big_coefficients_roundtrip(tmp_path) -> None:
    big = 10**40 + 7
    doc = {
        "schema_version": 1,
        "entries": [{"name": "huge", "coeffs": [str(-big), "0", "1"]}],
    }
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    assert load_catalog(path).get("huge").poly.coeffs == (-big, 0, 1)


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ("not json {", "not valid JSON"),
        (json.dumps([1, 2]), "schema_version"),
        (json.dumps({"schema_version": 2, "entries": []}), "schema_version"),
        (json.dumps({"schema_version": 1}), "entries"),
        (
            json.dumps({"schema_version": 1, "entries": [{"name": "x"}]}),
            "missing",
        ),
        (
            json.dumps(
                {
                    "schema_version": 1,
                    "entries": [{"name": "x", "coeffs": ["1", "oops"]}],
                }
            ),
            "bad coefficient",
        ),
        (
            json.dumps(
                {
                    "schema_version": 1,
                    "entries": [{"name": "x", "coeffs": ["1", "2"]}],
                }
            ),
            "monic",
        ),
        (
            json.dumps(
                {
                    "schema_version": 1,
                    "entries": [
                        {"name": "a", "coeffs": ["-1", "-1", "1"]},
                        {"name": "a", "coeffs": ["-1", "-2", "1"]},
                    ],
                }
            ),
            "duplicate",
        ),
    ],
)
def test_malformed_catalogs(tmp_path, doc, fragment) -> None:
    path = tmp_path / "bad.json"
    path.write_text(doc)
    with pytest.raises(CatalogError, match=fragment):
        load_catalog(path)


def test_missing_file() -> None:
    with pytest.raises(CatalogError, match="cannot read"):
        load_catalog("/nonexistent/cat.json")


def test_bad_expectation_item(tmp_path) -> None:
    doc = {
        "schema_version": 1,
        "entries": [
            {
                "name": "x",
                "coeffs": ["-1", "-1", "1"],
                "expected_patterns": {"levels": [{"congruence": 1}]},
            }
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CatalogError, match="bad expectation"):
        load_catalog(path)


def _catalog_with_items(tmp_path, items):
    doc = {
        "schema_version": 1,
        "entries": [
            {
                "name": "x",
                "coeffs": ["-1", "-1", "1"],
                "expected_patterns": {"levels": items},
            }
        ],
    }
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    return path


def test_expectation_items_convert_every_key(tmp_path) -> None:
    items = [
        {"level": "0", "congruence": "1", "max_onset_prime": 11, "recurrence_coeffs": None},
        {
            "level": 1,
            "constant": ["alt_odd_plus"],
            "max_onset_index": "9",
            "recurrence_coeffs": ["1", -2],
        },
        {"level": 2},
    ]
    cat = load_catalog(_catalog_with_items(tmp_path, items))
    assert cat.get("x").expectations.levels == (
        LevelExpectation(0, congruence=1, max_onset_prime=11),
        LevelExpectation(
            1, constant=("alt_odd_plus",), max_onset_index=9, recurrence_coeffs=(1, -2)
        ),
        LevelExpectation(2),
    )


@pytest.mark.parametrize(
    "item, message",
    [
        ({"level": "a", "congruence": "x"}, "invalid literal for int"),
        ({"level": 0, "congruence": None}, "int()"),
        ({"level": 0, "max_onset_index": "q"}, "invalid literal for int"),
        ({"level": 0, "recurrence_coeffs": 5}, "not iterable"),
        ({"level": 0, "constant": 3}, "not iterable"),
        # an item that is not an object is rejected like any other
        ("oops", "string indices"),
        (7, "not subscriptable"),
    ],
)
def test_malformed_expectation_items(tmp_path, item, message) -> None:
    with pytest.raises(CatalogError, match="bad expectation item") as info:
        load_catalog(_catalog_with_items(tmp_path, [item]))
    assert message in str(info.value)


@pytest.mark.parametrize("patterns", [[{"level": 0}], {"levels": 5}])
def test_malformed_expected_patterns(tmp_path, capsys, patterns) -> None:
    doc = {
        "schema_version": 1,
        "entries": [{"name": "g", "coeffs": ["-1", "-1", "1"], "expected_patterns": patterns}],
    }
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CatalogError, match="bad expected_patterns"):
        load_catalog(path)
    assert main(["--catalog", str(path), "certify", "--name", "g"]) == 2
    assert "bad expected_patterns" in capsys.readouterr().err

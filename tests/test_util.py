import json

import pytest

from coldstart import util
from coldstart.errors import DataError
from coldstart.util import dump_json, load_json


def test_dump_json_refuses_non_finite_values(tmp_path):
    path = tmp_path / "report.json"
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            dump_json({"mape": value}, path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_load_json_rejects_non_finite_literals(tmp_path, literal):
    path = tmp_path / "bundle.json"
    path.write_text(f'{{"weight": {literal}}}')
    with pytest.raises(DataError, match="non-finite"):
        load_json(path)


def test_failed_dump_json_keeps_existing_file(tmp_path, monkeypatch):
    path = tmp_path / "bundle.json"
    dump_json({"members": [1.5, 2.0]}, path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        dump_json({"members": [float("nan")]}, path)
    assert path.read_bytes() == before

    def no_space(src, dst):
        raise OSError(28, "No space left on device")

    # the new text is complete on disk but never replaces the old file
    monkeypatch.setattr(util.os, "replace", no_space)
    with pytest.raises(OSError):
        dump_json({"members": [3.0]}, path)
    assert path.read_bytes() == before
    assert json.loads(before) == {"members": [1.5, 2.0]}
    assert [p.name for p in tmp_path.iterdir()] == ["bundle.json"]


@pytest.mark.parametrize("value", [0, -3, 1.5, 10**308, -(10**308), 1.7976931348623157e308])
def test_finite_number_accepts_every_number_a_float_can_hold(value):
    assert util.finite_number(value, "weight") is value


@pytest.mark.parametrize(
    "value",
    [10**400, -(10**400), 10**309, float("inf"), float("nan"), True, "1", None],
    ids=["10**400", "-10**400", "10**309", "inf", "nan", "True", "'1'", "None"],
)
def test_finite_number_rejects_without_converting(value):
    # an int past the largest float is compared, not converted: no OverflowError
    with pytest.raises(DataError, match="weight must be a finite number"):
        util.finite_number(value, "weight")

"""The fixture regeneration rule of ``tests/golden_drift.py`` on small fixture sets."""

import pytest

from golden_drift import main

OLD = {
    "joint.json": '{\n  "p": [0.25, 0.0, 1000.0],\n  "slot": 2,\n  "status": "unique",\n  "tol": null\n}\n',
    "shots.csv": "shot,left\r\n0,1\r\n",
}


def write(directory, files):
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_bytes(text.encode())
    return str(directory)


def test_roundoff_in_floats_passes_and_is_summarised(tmp_path, capsys):
    new = dict(OLD, **{"joint.json": OLD["joint.json"].replace("0.25", "0.250000000000001").replace(
        "1000.0", "1000.000000000009").replace("0.0,", "4.3e-34,")})
    assert main([write(tmp_path / "old", OLD), write(tmp_path / "new", new)]) == 0
    out = capsys.readouterr().out
    assert "1 changed files: joint.json" in out
    assert "3 changed floats" in out
    assert "worst relative deviation 8.98e-15 at joint.json.p[2]" in out
    assert "1 zero flips\n  joint.json.p[1]: 0.0 -> 4.3e-34" in out
    assert out.endswith("rule holds\n")


@pytest.mark.parametrize(
    "old_text, new_text",
    [
        ("1000.0", "1000.00000000002"),  # float beyond 1e-14 * max(1, |x|)
        ("0.25", "0.2500000000001"),  # float beyond the absolute floor below 1
        ('"slot": 2', '"slot": 3'),  # integer
        ('"slot": 2', '"slot": 2.0'),  # type
        ('"unique"', '"irregular"'),  # string
        ('"tol": null', '"tol": 0.0'),  # null
        ('"p"', '"q"'),  # key
        ("0.0, 1000.0", "0.0"),  # list length
    ],
)
def test_a_break_of_the_json_rule_fails(tmp_path, capsys, old_text, new_text):
    new = dict(OLD, **{"joint.json": OLD["joint.json"].replace(old_text, new_text)})
    assert main([write(tmp_path / "old", OLD), write(tmp_path / "new", new)]) == 1
    assert "FAIL joint.json" in capsys.readouterr().out


@pytest.mark.parametrize(
    "new",
    [
        dict(OLD, **{"shots.csv": "shot,left\n0,1\n"}),  # CSV bytes
        {"joint.json": OLD["joint.json"]},  # a fixture gone
        dict(OLD, **{"extra.json": "{}\n"}),  # a fixture added
    ],
)
def test_a_change_of_csv_bytes_or_of_the_fixture_set_fails(tmp_path, capsys, new):
    assert main([write(tmp_path / "old", OLD), write(tmp_path / "new", new)]) == 1
    assert "FAIL" in capsys.readouterr().out

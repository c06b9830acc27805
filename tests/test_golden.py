"""Byte-exact golden outputs of every CLI command.

Each case runs ``cli.main`` and compares its JSON report (stdout or
``--out``) and, for the batched sample run, its shot CSV with the bytes
committed under ``tests/golden/``. The temporary output directory is written
as ``<tmp>`` in the fixtures. After a deliberate change of the output
contract, regenerate them with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from contextsim import cli
from contextsim.scenarios import SCENARIOS

GOLDEN = Path(__file__).parent / "golden"
BASIS_FILE = GOLDEN / "custom-d3-basis.json"
COMMANDS = ("expectation", "joint", "sample", "states", "sequential")
SPECTRA = {
    3: ["--left=-1.5,0.25,7", "--right=2,-3,0.5"],
    4: ["--left=0.5,-2,3.25,9", "--right=-1,4,2.5,-7.75"],
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for command in COMMANDS:
        for name, scenario in SCENARIOS.items():
            cases[f"{command}-{name}"] = [command, "--scenario", name]
            # states builds named contexts at their default spectra only
            if command != "states":
                cases[f"{command}-{name}-spectra"] = [command, "--scenario", name, *SPECTRA[scenario.dim]]
        cases[f"{command}-custom-d3"] = [command, "--scenario", "custom", "--basis-file", str(BASIS_FILE)]
    cases["joint-custom-d3"] += ["--forbidden", "0,1;1,0"]
    for argv in cases.values():
        if argv[0] == "sample":
            argv += ["--csv", "{tmp}/shots.csv"]
    cases["sample-ks-mixed-batches3"] = [
        "sample", "--scenario", "ks-mixed", "--shots", "10000", "--batches", "3", "--seed", "7",
        "--out", "{tmp}/run.json",
    ]
    return cases


CASES = _cases()


def render(name: str, tmp: Path) -> dict[str, bytes]:
    """Run one case; return its output bytes keyed by fixture file name.

    A case with ``--out`` also pins its shot CSV, whose path derives from it.
    """
    argv = [arg.replace("{tmp}", str(tmp)) for arg in CASES[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    assert code == cli.EXIT_OK, f"{name} exited {code}"
    if "--out" not in argv:
        return {f"{name}.json": stdout.getvalue().replace(str(tmp), "<tmp>").encode("utf-8")}
    out = Path(argv[argv.index("--out") + 1])
    return {
        f"{name}.json": out.read_text(encoding="utf-8").replace(str(tmp), "<tmp>").encode("utf-8"),
        f"{name}.csv": out.with_suffix(".csv").read_bytes(),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    for fixture, data in render(name, tmp_path).items():
        assert data == (GOLDEN / fixture).read_bytes(), f"{fixture} differs from its golden bytes"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for fixture, data in render(case, Path(tmp)).items():
                (GOLDEN / fixture).write_bytes(data)

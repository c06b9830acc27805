"""Byte-exact golden outputs of every CLI command.

Each case runs ``cli.main`` and compares its JSON report (stdout or
``--out``) and, for the batched sample run, its shot CSV with the bytes
committed under ``tests/golden/``. The temporary output directory is written
as ``<tmp>`` in the fixtures. After a deliberate change of the output
contract, regenerate them with ``PYTHONPATH=src python tests/test_golden.py``.

Three 10^6-shot sample runs are pinned by the SHA-256 of their JSON report
and shot CSV instead of by committed bytes. The digests were recorded with
the binary-search (``np.searchsorted``) draw and the 2-D uint8 CSV
rendering, so they check that the threshold-count draw and the fixed-width
byte records reproduce the same streams and files. Two large ``states``
reports are pinned the same way, by the SHA-256 of their JSON.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from contextsim import cli, greechie
from contextsim.scenarios import SCENARIOS

GOLDEN = Path(__file__).parent / "golden"
BASIS_FILE = GOLDEN / "custom-d3-basis.json"
# Cabello, Estebaranz and Garcia-Alcaine's 18-ray, 9-context Kochen-Specker
# set in d = 4 (Phys. Lett. A 212, 183 (1996)), rays normalized: its diagram
# has no two-valued state.
KS18_FILE = GOLDEN / "custom-ks18-basis.json"
# Peres' 33 rays in d = 3 (J. Phys. A 24, L175 (1991)) as their 16
# orthogonal triads: 33 atoms, 9 link atoms, 3072 two-valued states.
PERES_FILE = GOLDEN / "custom-peres-basis.json"
# A chain of ten random d = 4 bases, each sharing its last ray with the
# first ray of the next: 31 atoms, 9 link atoms, 11,482 two-valued states.
# Each basis is the QR factor of a complex Gaussian matrix drawn from
# np.random.default_rng(1), its first column set to the previous basis's
# last ray.
CHAIN_FILE = GOLDEN / "custom-chain10-basis.json"
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
            # states prints the same bytes at any valid spectra (test_cli.py checks this)
            if command != "states":
                cases[f"{command}-{name}-spectra"] = [command, "--scenario", name, *SPECTRA[scenario.dim]]
        cases[f"{command}-custom-d3"] = [command, "--scenario", "custom", "--basis-file", str(BASIS_FILE)]
    cases["joint-custom-d3"] += ["--forbidden", "0,1;1,0"]
    cases["states-custom-ks18"] = ["states", "--scenario", "custom", "--basis-file", str(KS18_FILE)]
    for argv in cases.values():
        if argv[0] == "sample":
            argv += ["--csv", "{tmp}/shots.csv"]
    cases["sample-ks-mixed-batches3"] = [
        "sample", "--scenario", "ks-mixed", "--shots", "10000", "--batches", "3", "--seed", "7",
        "--out", "{tmp}/run.json",
    ]
    return cases


CASES = _cases()

MILLION_SHOTS = ["--shots", "1000000", "--out", "{tmp}/run.json"]
# name: (argv, SHA-256 of the JSON report, SHA-256 of the shot CSV)
HASHED_CASES = {
    "sample-ks-mixed-1e6": (
        ["sample", "--scenario", "ks-mixed", "--seed", "9", *MILLION_SHOTS],
        "6f8eead022c8562a47fe6e2d6b472f3b5b9151f24866b3275362394ef86bc8af",
        "fdaa96ab4499e62fbfc77fffb24727f27423060aa9e536620b3b1f7a7df3fab6",
    ),
    "sample-dim4-mixed-1e6-batches16": (
        ["sample", "--scenario", "dim4-mixed", "--batches", "16", *MILLION_SHOTS],
        "601e0f5885a95864ddab62b2d6788cbe95a01ec36f7d03dd7c6119257a25fce1",
        "eedebfd9a0b664569fa7da3c4a308aec40ac905f1d7d68886c338bc4b8420ebb",
    ),
    # Row tails of unequal widths, so the rendered rows carry NUL padding.
    "sample-custom-d3-1e6": (
        ["sample", "--scenario", "custom", "--basis-file", str(BASIS_FILE), "--left=-0.333333333333333,1e-7,2500",
         *MILLION_SHOTS],
        "dc74184dfa5834d5edbece7fb8d0d49f7ea012a143e3b75a3436531afad4d724",
        "01cbf173baa9d75fd4a6f3bd65892a1865723161da334d6909cd1cba60e00217",
    ),
}


# name: (argv, SHA-256 of the JSON report), recorded before the diagram
# held its blocks as one index array.
HASHED_STATES = {
    "states-custom-peres": (
        ["states", "--scenario", "custom", "--basis-file", str(PERES_FILE)],
        "db2027dbda3bd67f266a32dc351a0631c7ca2d72039a88c3ed1c176a8dc7849a",
    ),
    "states-custom-chain10": (
        ["states", "--scenario", "custom", "--basis-file", str(CHAIN_FILE)],
        "cf2afad9f828b1f470005a638cf4e6dc7e19d927ffebcfdcc15777f39c78e33d",
    ),
}


def render(name: str, argv: list[str], tmp: Path) -> dict[str, bytes]:
    """Run one case; return its output bytes keyed by fixture file name.

    A case with ``--out`` also pins its shot CSV, whose path derives from it.
    """
    argv = [arg.replace("{tmp}", str(tmp)) for arg in argv]
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
    for fixture, data in render(name, CASES[name], tmp_path).items():
        assert data == (GOLDEN / fixture).read_bytes(), f"{fixture} differs from its golden bytes"


@pytest.mark.parametrize("name", sorted(HASHED_CASES))
def test_million_shot_output_hashes(name, tmp_path):
    argv, json_digest, csv_digest = HASHED_CASES[name]
    rendered = render(name, argv, tmp_path)
    assert hashlib.sha256(rendered[f"{name}.json"]).hexdigest() == json_digest
    assert hashlib.sha256(rendered[f"{name}.csv"]).hexdigest() == csv_digest



@pytest.mark.parametrize("name", sorted(HASHED_STATES))
def test_large_states_report_hashes(name, tmp_path):
    argv, digest = HASHED_STATES[name]
    assert hashlib.sha256(render(name, argv, tmp_path)[f"{name}.json"]).hexdigest() == digest


def test_states_report_is_read_from_the_bit_matrix_alone(monkeypatch, tmp_path):
    # The report builds no per-state object: a TwoValuedState fails the run.
    def refuse(**_):
        raise AssertionError("the states report built a TwoValuedState")

    monkeypatch.setattr(greechie, "TwoValuedState", refuse)
    argv, digest = HASHED_STATES["states-custom-peres"]
    assert hashlib.sha256(render("states-custom-peres", argv, tmp_path)["states-custom-peres.json"]).hexdigest() == digest


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for fixture, data in render(case, CASES[case], Path(tmp)).items():
                (GOLDEN / fixture).write_bytes(data)

"""End-to-end tests of the command-line interface."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from contextsim import cli
from contextsim.correlations import JointTable, joint_distribution
from contextsim.scenarios import SCENARIOS


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def write_basis_file(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


RAY_100 = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
RAY_010 = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
RAY_001 = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
BASIS_3 = [RAY_100, RAY_010, RAY_001]
GOLDEN_D3_BASIS = Path(__file__).resolve().parent / "golden" / "custom-d3-basis.json"


def test_expectation_ks_collinear(capsys):
    code, data = run_cli(
        capsys, "expectation", "--scenario", "ks-collinear", "--left", "1,2,3", "--right", "4,5,6"
    )
    assert code == 0
    assert data["expectation"] == pytest.approx(32.0 / 3.0, abs=1e-9)
    assert data["closed_form"] == pytest.approx(32.0 / 3.0, abs=1e-9)


def test_expectation_ks_mixed(capsys):
    code, data = run_cli(
        capsys, "expectation", "--scenario", "ks-mixed", "--left", "1,2,3", "--right", "4,5,6"
    )
    assert code == 0
    assert data["expectation"] == pytest.approx(10.5, abs=1e-9)


def test_expectation_dim4_mixed(capsys):
    code, data = run_cli(
        capsys, "expectation", "--scenario", "dim4-mixed", "--left", "1,2,3,4", "--right", "5,6,7,8"
    )
    assert code == 0
    assert data["expectation"] == pytest.approx(15.125, abs=1e-9)


def test_expectation_uses_default_spectra(capsys):
    code, data = run_cli(capsys, "expectation", "--scenario", "dim4-collinear-C")
    assert code == 0
    assert data["left_spectrum"] == [1.0, 2.0, 3.0, 4.0]
    assert data["right_spectrum"] == [5.0, 6.0, 7.0, 8.0]


def test_joint_ks_mixed_flags_forbidden_cells(capsys):
    code, data = run_cli(capsys, "joint", "--scenario", "ks-mixed")
    assert code == 0
    cells = {(c["left"], c["right"]) for c in data["criterion"]["forbidden_cells"]}
    assert cells == {(0, 1), (0, 2), (1, 0), (2, 0)}
    assert data["criterion"]["contextual_mass"] == 0.0
    assert all(c["probability"] == 0.0 for c in data["criterion"]["forbidden_cells"])


def test_joint_ks_collinear_uniqueness_pairing(capsys):
    code, data = run_cli(capsys, "joint", "--scenario", "ks-collinear")
    assert code == 0
    assert data["uniqueness"]["is_unique"] is True
    assert data["uniqueness"]["pairing"] == [[0, 0], [1, 1], [2, 2]]
    assert data["left_marginal"] == pytest.approx([1 / 3, 1 / 3, 1 / 3])


def test_joint_dim4_mixed_zero_cells(capsys):
    code, data = run_cli(capsys, "joint", "--scenario", "dim4-mixed")
    assert code == 0
    p = np.array(data["probabilities"])
    for i, j in ((2, 2), (2, 3), (3, 2), (3, 3)):
        assert p[i, j] == 0.0
    assert data["criterion"]["contextual_mass"] == 0.0


def test_joint_dim4_collinear_cprime_blocks(capsys):
    code, data = run_cli(capsys, "joint", "--scenario", "dim4-collinear-Cprime")
    assert code == 0
    assert data["uniqueness"]["status"] == "block-structured"
    assert data["uniqueness"]["blocks"] == [
        {"left": [0, 1], "right": [2, 3]},
        {"left": [2, 3], "right": [0, 1]},
    ]


def test_sample_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "report.json"
    csv = tmp_path / "shots.csv"
    argv = [
        "sample",
        "--scenario",
        "ks-mixed",
        "--shots",
        "20000",
        "--seed",
        "42",
        "--out",
        str(out),
        "--csv",
        str(csv),
    ]
    outputs = []
    for _ in range(2):
        assert cli.main(list(argv)) == 0
        outputs.append((out.read_bytes(), csv.read_bytes()))
    assert outputs[0] == outputs[1]


def test_a_shorter_rerun_leaves_only_its_own_csv(tmp_path, capsys):
    csv, fresh = tmp_path / "shots.csv", tmp_path / "fresh.csv"
    for shots, path in (("10000", csv), ("10", csv), ("10", fresh)):
        assert cli.main(["sample", "--scenario", "ks-mixed", "--shots", shots, "--seed", "5", "--csv", str(path)]) == 0
    capsys.readouterr()
    assert csv.read_bytes() == fresh.read_bytes()


def test_sample_writes_its_csv_to_a_pipe(tmp_path, capsys):
    # Standard output is a pipe here, not a regular file.
    argv = ["sample", "--scenario", "dim4-mixed", "--shots", "150000", "--seed", "3", "--out", str(tmp_path / "r.json")]
    result = subprocess.run(
        [sys.executable, "-m", "contextsim.cli", *argv, "--csv", "/dev/stdout"], capture_output=True
    )
    assert result.returncode == 0
    assert result.stderr == b""
    assert result.stdout.count(b"\r\n") == 150001
    assert cli.main([*argv, "--csv", str(tmp_path / "file.csv")]) == 0
    capsys.readouterr()
    assert result.stdout == (tmp_path / "file.csv").read_bytes()


def test_sample_forbidden_counts_are_zero(tmp_path, capsys):
    csv = tmp_path / "shots.csv"
    code, data = run_cli(
        capsys, "sample", "--scenario", "ks-mixed", "--shots", "50000", "--seed", "7", "--csv", str(csv)
    )
    assert code == 0
    counts = np.array(data["counts"])
    for i, j in ((0, 1), (0, 2), (1, 0), (2, 0)):
        assert counts[i, j] == 0
    assert counts.sum() == 50000
    assert data["seed"] == 7


def test_sample_zero_shots_writes_header_only_csv(tmp_path, capsys):
    csv = tmp_path / "none.csv"
    code, data = run_cli(
        capsys, "sample", "--scenario", "ks-collinear", "--shots", "0", "--csv", str(csv)
    )
    assert code == 0
    assert data["shots"] == 0
    assert csv.read_text().splitlines() == [
        "shot,left_slot,left_eigenvalue,right_slot,right_eigenvalue"
    ]


def test_states_tripod_scenario(capsys):
    code, data = run_cli(capsys, "states", "--scenario", "ks-mixed")
    assert code == 0
    assert data["state_count"] == 5
    assert data["separating"] is True
    assert data["link_atoms"] == ["a0"]
    assert len(data["two_valued_states"]) == 5


def test_states_two_link_scenario(capsys):
    code, data = run_cli(capsys, "states", "--scenario", "dim4-mixed")
    assert code == 0
    assert data["state_count"] == 6
    assert data["separating"] is True
    assert data["link_atoms"] == ["a2", "a3"]


def test_states_custom_single_block(tmp_path, capsys):
    basis = write_basis_file(tmp_path / "ctx.json", {"contexts": [BASIS_3]})
    code, data = run_cli(capsys, "states", "--scenario", "custom", "--basis-file", basis)
    assert code == 0
    assert data["state_count"] == 3
    assert data["link_atoms"] == []


def test_sequential_link_ray(capsys):
    code, data = run_cli(capsys, "sequential", "--scenario", "ks-mixed", "--prepare-slot", "0")
    assert code == 0
    assert data["perfect_link_correlation"] is True
    assert data["distribution"][0]["probability"] == 1.0


def test_sequential_non_link_ray(capsys):
    code, data = run_cli(capsys, "sequential", "--scenario", "ks-mixed", "--prepare-slot", "1")
    assert code == 0
    probs = [entry["probability"] for entry in data["distribution"]]
    assert probs == pytest.approx([0.0, 0.5, 0.5], abs=1e-12)
    assert data["perfect_link_correlation"] is False


def test_sequential_finds_the_link_ray_up_to_a_phase(tmp_path, capsys):
    # The right basis holds the prepared ray (e1 + e2)/sqrt2 times e^{0.7i},
    # in another slot; the named scenarios share their rays exactly.
    s = 1.0 / np.sqrt(2.0)
    phase = np.exp(0.7j)
    left = np.array([[1, 0, 0], [0, s, s], [0, -s, s]], dtype=complex)
    right = np.array([[0, s, -s], [1, 0, 0], [0, s * phase, s * phase]])
    basis = write_basis_file(
        tmp_path / "b.json",
        {"left": [cli._ray_pairs(r) for r in left], "right": [cli._ray_pairs(r) for r in right]},
    )
    code, data = run_cli(
        capsys, "sequential", "--scenario", "custom", "--basis-file", basis, "--prepare-slot", "1"
    )
    assert code == 0
    assert data["link_slot"] == 2
    assert data["perfect_link_correlation"] is True
    probs = [entry["probability"] for entry in data["distribution"]]
    assert probs == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)


def test_sequential_and_states_agree_on_a_link_just_inside_the_ray_match(tmp_path, capsys):
    # The right basis turns the (e1, e2) plane so that 1 - |<u,v>| = 5e-9:
    # within RAY_MATCH_TOL, so the two bases are one diagram of three link
    # atoms, while the two turned links have probability 0.99999999, short
    # of 1 by more than 1e-9.
    t = np.arccos(1.0 - 5e-9)
    right = np.array([[np.cos(t), np.sin(t), 0], [-np.sin(t), np.cos(t), 0], [0, 0, 1]], dtype=complex)
    basis = write_basis_file(
        tmp_path / "b.json", {"left": BASIS_3, "right": [cli._ray_pairs(r) for r in right]}
    )
    code, states = run_cli(capsys, "states", "--scenario", "custom", "--basis-file", basis)
    assert code == 0
    assert states["link_atoms"] == ["a0", "a1", "a2"]
    for slot, probability in enumerate((0.99999999, 0.99999999, 1.0)):
        code, data = run_cli(
            capsys, "sequential", "--scenario", "custom", "--basis-file", basis, "--prepare-slot", str(slot)
        )
        assert code == 0
        assert data["link_slot"] == slot
        assert data["perfect_link_correlation"] is True
        assert data["distribution"][slot]["probability"] == pytest.approx(probability, abs=1e-14)


def test_sequential_without_a_shared_ray_reports_no_link(tmp_path, capsys):
    # The right basis is the 3-point Fourier basis: every ray meets every
    # standard ray with overlap 1/sqrt3, so no slot is a link.
    w = np.exp(2j * np.pi / 3)
    right = np.array([[w ** (j * k) for k in range(3)] for j in range(3)]) / np.sqrt(3.0)
    basis = write_basis_file(
        tmp_path / "b.json", {"left": BASIS_3, "right": [cli._ray_pairs(r) for r in right]}
    )
    for slot in "012":
        code, data = run_cli(
            capsys, "sequential", "--scenario", "custom", "--basis-file", basis, "--prepare-slot", slot
        )
        assert code == 0
        assert data["link_slot"] is None
        assert data["perfect_link_correlation"] is False
        probs = [entry["probability"] for entry in data["distribution"]]
        assert probs == pytest.approx([1.0 / 3.0] * 3, abs=1e-12)


def test_sequential_standard_ray_through_diagonal_context(capsys):
    code, data = run_cli(
        capsys,
        "sequential",
        "--scenario",
        "dim4-collinear-C",
        "--right",
        "1,2,3,4",
        "--prepare-slot",
        "2",
    )
    assert code == 0
    entry = data["distribution"][2]
    assert entry["eigenvalue"] == 3.0 and entry["probability"] == 1.0


def test_custom_scenario_round_trip(tmp_path, capsys):
    basis = write_basis_file(tmp_path / "b.json", {"left": BASIS_3, "right": BASIS_3})
    code, data = run_cli(
        capsys,
        "joint",
        "--scenario",
        "custom",
        "--basis-file",
        basis,
        "--left",
        "1,2,3",
        "--right",
        "4,5,6",
        "--forbidden",
        "0,0;1,1",
    )
    assert code == 0
    # collinear standard bases on the singlet: uniform antidiagonal support
    assert data["uniqueness"]["pairing"] == [[0, 2], [1, 1], [2, 0]]
    cells = {(c["left"], c["right"]): c["probability"] for c in data["criterion"]["forbidden_cells"]}
    assert cells[(0, 0)] == 0.0 and cells[(1, 1)] == pytest.approx(1 / 3)


def test_custom_joint_requires_forbidden(tmp_path, capsys):
    basis = write_basis_file(tmp_path / "b.json", {"left": BASIS_3, "right": BASIS_3})
    code, _ = run_cli(capsys, "joint", "--scenario", "custom", "--basis-file", basis)
    assert code == 1


def test_custom_requires_basis_file(capsys):
    for command in ("expectation", "states"):
        assert cli.main([command, "--scenario", "custom"]) == 1
        assert capsys.readouterr().err.strip().splitlines() == ["error: scenario 'custom' requires --basis-file"]


@pytest.mark.parametrize("command", ["expectation", "joint", "sample", "states", "sequential"])
def test_basis_file_with_a_named_scenario_is_rejected(tmp_path, capsys, command):
    # A well-formed file, so the error is about the flag and not the file.
    basis = write_basis_file(tmp_path / "b.json", {"left": BASIS_3, "right": BASIS_3})
    report = tmp_path / "report.json"
    assert cli.main([command, "--scenario", "ks-mixed", "--basis-file", basis, "--out", str(report)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == ["error: --basis-file applies only to --scenario custom"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.json"]


def test_repeated_forbidden_cell_exits_with_one_line(capsys):
    assert_one_line_validation_failure(capsys, "joint", "--scenario", "ks-collinear", "--forbidden", "0,0;0,0;0,0;0,0")
    # A cell that is not two integers is named, as an unparsable spectrum is.
    assert cli.main(["joint", "--scenario", "ks-mixed", "--forbidden", "0,x"]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: cannot parse forbidden cell '0,x'; expected 'left,right'"
    ]


def test_degenerate_spectrum_exits_with_validation_failure(capsys):
    code, _ = run_cli(capsys, "expectation", "--scenario", "ks-collinear", "--left", "1,1,2")
    assert code == 1


def test_wrong_spectrum_length_exits_with_validation_failure(capsys):
    code, _ = run_cli(capsys, "joint", "--scenario", "dim4-mixed", "--left", "1,2,3")
    assert code == 1


@pytest.mark.parametrize("flag", ["--left=abc", "--left=1,2", "--right=4,5,6,7"])
def test_states_checks_the_spectra_of_a_named_pair(capsys, flag):
    assert_one_line_validation_failure(capsys, "states", "--scenario", "ks-mixed", flag)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_states_report_is_the_same_at_any_valid_spectra(capsys, name):
    # The diagram depends on the rays only, so --left/--right are checked but change no byte.
    flags = {3: ["--left=-1.5,0.25,7", "--right=2,-3,0.5"], 4: ["--left=0.5,-2,3.25,9", "--right=-1,4,2.5,-7.75"]}
    assert cli.main(["states", "--scenario", name]) == 0
    plain = capsys.readouterr().out
    assert cli.main(["states", "--scenario", name, *flags[SCENARIOS[name].dim]]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("flag", ["--left=1,2,3", "--right=4,5,6"])
def test_states_rejects_spectra_with_a_contexts_file(tmp_path, capsys, flag):
    basis = write_basis_file(tmp_path / "ctx.json", {"contexts": [BASIS_3, BASIS_3]})
    assert cli.main(["states", "--scenario", "custom", "--basis-file", basis, flag]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: --left and --right set a pair's spectra; a 'contexts' basis file has no pair"
    ]


@pytest.mark.parametrize("command", ["expectation", "states"])
@pytest.mark.parametrize("flag", ["--left=", "--right="])
def test_an_empty_spectrum_is_rejected_not_read_as_the_default(tmp_path, capsys, command, flag):
    basis = write_basis_file(tmp_path / "b.json", {"left": BASIS_3, "right": BASIS_3})
    for target in (["ks-mixed"], ["custom", "--basis-file", basis]):
        assert cli.main([command, "--scenario", *target, flag]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: cannot parse spectrum ''; expected comma-separated reals"
        ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["expectation", "--scenario", "ks-mixed", "--out="], "--out needs a file path, not an empty string"),
        (["sample", "--scenario", "ks-mixed", "--shots", "3", "--out", "r.json", "--csv="],
         "--csv needs a file path, not an empty string"),
        (["states", "--scenario", "custom", "--basis-file="], "--basis-file needs a file path, not an empty string"),
        (["joint", "--scenario", "ks-mixed", "--forbidden="], "cannot parse forbidden cell ''; expected 'left,right'"),
        # An empty list was given, so the error names it and does not ask for one.
        (["joint", "--scenario", "custom", "--basis-file", str(GOLDEN_D3_BASIS), "--forbidden="],
         "cannot parse forbidden cell ''; expected 'left,right'"),
    ],
)
def test_an_empty_path_or_cell_flag_is_rejected_not_read_as_absent(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [f"error: {message}"]
    assert list(tmp_path.iterdir()) == []


def test_states_rejects_an_empty_contexts_list(tmp_path, capsys):
    basis = write_basis_file(tmp_path / "ctx.json", {"contexts": []})
    assert cli.main(["states", "--scenario", "custom", "--basis-file", basis]) == 1
    assert capsys.readouterr().err.strip().splitlines() == ["error: need at least one context"]


def test_unknown_scenario_exits_with_validation_failure():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["expectation", "--scenario", "nonsense"])
    assert excinfo.value.code == 1


def test_unwritable_output_exits_with_io_failure(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "out.json"
    code, _ = run_cli(capsys, "expectation", "--scenario", "ks-mixed", "--out", str(missing))
    assert code == 3


def test_internal_consistency_failure_exits_with_code_two(capsys, monkeypatch):
    import dataclasses

    from contextsim import scenarios

    broken = dataclasses.replace(
        scenarios.SCENARIOS["ks-mixed"], closed_form=lambda l, r: 0.0
    )
    monkeypatch.setitem(scenarios.SCENARIOS, "ks-mixed", broken)
    code, _ = run_cli(capsys, "expectation", "--scenario", "ks-mixed")
    assert code == 2


@pytest.mark.parametrize("command", ["joint", "sample"])
def test_table_commands_check_the_closed_form(tmp_path, capsys, monkeypatch, command):
    import dataclasses

    from contextsim import scenarios

    broken = dataclasses.replace(
        scenarios.SCENARIOS["ks-mixed"], closed_form=lambda l, r: 0.0
    )
    monkeypatch.setitem(scenarios.SCENARIOS, "ks-mixed", broken)
    csv = tmp_path / "shots.csv"
    argv = [command, "--scenario", "ks-mixed"]
    if command == "sample":
        argv += ["--shots", "10", "--csv", str(csv)]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.strip().splitlines()
    assert line.startswith("error: numeric expectation") and line.endswith("deviates from closed form 0.0")
    assert not csv.exists()


def test_a_drawn_forbidden_cell_exits_with_code_two_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # A sampler that puts one shot in the forbidden cell (0, 1) of ks-mixed.
    monkeypatch.setattr(cli, "sample", lambda table, n, seed, **kwargs: np.array([1], dtype=np.uint8))
    csv = tmp_path / "shots.csv"
    argv = ["sample", "--scenario", "ks-mixed", "--shots", "1", "--csv", str(csv)]
    assert_exits_with(capsys, 2, "error: forbidden cell (0, 1) drew 1 shots", argv)
    assert not csv.exists()


@pytest.mark.parametrize("command", ["expectation", "joint", "sample"])
def test_pair_commands_check_the_table_contraction(tmp_path, capsys, monkeypatch, command):
    # Reversing the rows of the ks-mixed table moves λᵀPμ from 10.5 to 9.5.
    def reversed_rows(state, a, b):
        table = joint_distribution(state, a, b)
        return JointTable(table.left_spectrum, table.right_spectrum, table.probabilities[::-1])

    monkeypatch.setattr(cli, "joint_distribution", reversed_rows)
    argv = [command, "--scenario", "ks-mixed"]
    if command == "sample":
        argv += ["--shots", "10", "--out", str(tmp_path / "report.json")]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.strip().splitlines()
    contracted, exact = line.removeprefix("error: table contraction ").split(" disagrees with expectation ")
    assert (float(contracted), float(exact)) == pytest.approx((9.5, 10.5), abs=1e-12)
    assert list(tmp_path.iterdir()) == []


def test_module_entry_point_round_trip(tmp_path):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "contextsim.cli",
            "expectation",
            "--scenario",
            "ks-mixed",
            "--left",
            "1,2,3",
            "--right",
            "4,5,6",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["expectation"] == 10.5


def test_importing_the_cli_builds_no_ray_set_and_no_singlet():
    # The named ray sets and the singlets are checked on first use, not at
    # import: the first complex matmul starts BLAS and raises the peak RSS.
    code = """
import contextsim.cli
from contextsim import observables, states
caches = (observables._named_rays, states.spin1_singlet, states.spin32_singlet)
print(sum(f.cache_info().currsize for f in caches))
observables.ks_context(1, 2, 3), observables.ks_context_prime(1, 2, 3)
observables.four_dim_contexts(1, 2, 3, 4), states.singlet(3), states.singlet(4)
print(sum(f.cache_info().currsize for f in caches))
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["0", "6"]


def assert_one_line_validation_failure(capsys, *argv):
    code = cli.main(list(argv))
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def assert_exits_with(capsys, code, line, argv):
    """``cli.main(argv)`` returns ``code``, writes nothing to stdout and exactly ``line`` to stderr."""
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


def test_basis_of_numbers_exits_with_one_line(tmp_path, capsys):
    basis = write_basis_file(tmp_path / "b.json", {"left": 5, "right": 5})
    assert_one_line_validation_failure(capsys, "expectation", "--scenario", "custom", "--basis-file", basis)


def test_non_numeric_ray_entry_exits_with_one_line(tmp_path, capsys):
    # complex(True, 0) is 1+0j, but a JSON boolean is no number either.
    for entry in (["a", 0], [True, 0], [1.0, False]):
        bad = [entry, [0.0, 0.0], [0.0, 0.0]]
        pair = write_basis_file(tmp_path / "b.json", {"left": [bad, RAY_010, RAY_001], "right": BASIS_3})
        listed = write_basis_file(tmp_path / "c.json", {"contexts": [[bad, RAY_010, RAY_001]]})
        for argv in (
            ["expectation", "--scenario", "custom", "--basis-file", pair],
            ["sequential", "--scenario", "custom", "--basis-file", pair],
            ["states", "--scenario", "custom", "--basis-file", pair],
            ["states", "--scenario", "custom", "--basis-file", listed],
        ):
            code = cli.main(argv)
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert captured.err.strip().splitlines() == [
                "error: a basis must be a list of rays, each a list of [re, im] number pairs"
            ]


def test_oversized_integer_ray_entry_exits_with_one_line(tmp_path, capsys):
    # 10**400 is valid JSON but no double: complex() raises OverflowError.
    big = [[10**400, 0], [0.0, 0.0], [0.0, 0.0]]
    basis = write_basis_file(tmp_path / "b.json", {"left": [big, RAY_010, RAY_001], "right": BASIS_3})
    assert_one_line_validation_failure(capsys, "expectation", "--scenario", "custom", "--basis-file", basis)
    basis = write_basis_file(tmp_path / "c.json", {"contexts": [[big, RAY_010, RAY_001]]})
    assert_one_line_validation_failure(capsys, "states", "--scenario", "custom", "--basis-file", basis)


def test_subnormal_ray_exits_with_one_line(tmp_path, capsys):
    # 1e-320 squared underflows to 0, so the ray's norm reads 0.
    ray = [[1e-320, 0.0], [0.0, 0.0], [0.0, 0.0]]
    basis = write_basis_file(tmp_path / "b.json", {"left": [ray, RAY_010, RAY_001], "right": BASIS_3})
    code = cli.main(["expectation", "--scenario", "custom", "--basis-file", basis])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.strip().splitlines() == ["error: cannot normalize a ray whose norm is zero or underflows"]


def test_deeply_nested_basis_file_exits_with_one_line(tmp_path, capsys):
    # json.load recurses once per bracket and raises RecursionError.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    for command in ("expectation", "states"):
        code = cli.main([command, "--scenario", "custom", "--basis-file", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.strip().splitlines() == ["error: basis file nests too deeply"]


def test_mismatched_basis_sizes_name_both_sizes(tmp_path, capsys):
    basis_4 = [[[float(i == k), 0.0] for i in range(4)] for k in range(4)]
    basis = write_basis_file(tmp_path / "b.json", {"left": BASIS_3, "right": basis_4})
    code = cli.main(["expectation", "--scenario", "custom", "--basis-file", basis])
    err = capsys.readouterr().err
    assert code == 1
    assert err.strip().splitlines() == ["error: left basis has 3 rays but right basis has 4"]


def test_basis_file_must_hold_an_object(tmp_path, capsys):
    basis = write_basis_file(tmp_path / "b.json", [BASIS_3, BASIS_3])
    assert_one_line_validation_failure(capsys, "states", "--scenario", "custom", "--basis-file", basis)
    basis = write_basis_file(tmp_path / "c.json", {"contexts": 5})
    assert_one_line_validation_failure(capsys, "states", "--scenario", "custom", "--basis-file", basis)


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_bad_tol_exits_with_one_line(capsys, tol):
    assert_one_line_validation_failure(capsys, "joint", "--scenario", "ks-mixed", "--tol", tol)
    # Only joint and sample read a support threshold; the other commands
    # take no --tol, not even a valid one.
    for command in ("expectation", "states", "sequential"):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--scenario", "ks-mixed", "--tol", "1e-10"])
        assert excinfo.value.code == 1
        assert capsys.readouterr().err.splitlines() == ["contextsim: error: unrecognized arguments: --tol 1e-10"]


def test_negative_shots_exits_with_one_line(tmp_path, capsys):
    csv = tmp_path / "shots.csv"
    assert_one_line_validation_failure(capsys, "sample", "--scenario", "ks-mixed", "--shots", "-5", "--csv", str(csv))
    assert not csv.exists()


def test_the_largest_seed_is_accepted(tmp_path, capsys):
    code, data = run_cli(
        capsys, "sample", "--scenario", "ks-mixed", "--shots", "10", "--seed", str(2**64 - 1), "--csv", str(tmp_path / "s.csv")
    )
    assert code == 0
    assert data["seed"] == 2**64 - 1


def test_joint_at_tol_zero_keeps_the_collinear_table_unique(capsys):
    # The off-diagonal cells are exact zeros, which a threshold of 0 leaves empty.
    code, data = run_cli(capsys, "joint", "--scenario", "ks-collinear", "--tol", "0")
    assert code == 0
    assert data["support_threshold"] == 0.0
    assert data["uniqueness"]["status"] == "unique"
    assert data["uniqueness"]["violation_mass"] == 0.0


def test_sample_at_tol_zero_draws_no_forbidden_cell(tmp_path, capsys):
    code, data = run_cli(capsys, "sample", "--scenario", "ks-mixed", "--tol", "0", "--csv", str(tmp_path / "s.csv"))
    assert code == 0
    assert all(data["counts"][i][j] == 0 for i, j in SCENARIOS["ks-mixed"].forbidden_cells)
    assert sum(map(sum, data["counts"])) == 10000


@pytest.mark.parametrize("slot", ["3", "-1"])
def test_prepare_slot_outside_the_basis_exits_with_one_line(capsys, slot):
    argv = ["sequential", "--scenario", "ks-mixed", "--prepare-slot", slot]
    assert_exits_with(capsys, 1, "error: --prepare-slot must be in [0, 3)", argv)


def test_a_forbidden_row_one_past_the_table_exits_with_one_line(capsys):
    argv = ["joint", "--scenario", "ks-mixed", "--forbidden", "3,0"]
    assert_exits_with(capsys, 1, "error: cell (3, 0) outside a 3x3 table", argv)


def test_a_spectrum_shorter_than_the_basis_exits_with_one_line(capsys):
    argv = ["expectation", "--scenario", "custom", "--basis-file", str(GOLDEN_D3_BASIS), "--left=1,2"]
    assert_exits_with(capsys, 1, "error: need one basis ray and one eigenvalue per dimension", argv)


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_exits_with_one_line(tmp_path, capsys, seed):
    csv = tmp_path / "shots.csv"
    assert_one_line_validation_failure(
        capsys, "sample", "--scenario", "ks-mixed", "--seed", seed, "--batches", "2", "--csv", str(csv)
    )
    assert not csv.exists()


def test_sample_without_csv_or_out_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["sample", "--scenario", "ks-mixed", "--shots", "10"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.strip().splitlines() == ["error: sample needs --csv or --out to name the shot CSV"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("files", [["--out", "r.csv"], ["--out", "r", "--csv", "r"], ["--out", "r.json", "--csv", "./r.json"]])
def test_sample_rejects_a_csv_in_the_report_file(tmp_path, monkeypatch, capsys, files):
    # --out r.csv puts the default CSV (--out with a .csv suffix) in r.csv too.
    monkeypatch.chdir(tmp_path)
    code = cli.main(["sample", "--scenario", "ks-mixed", "--shots", "10", *files])
    err = capsys.readouterr().err
    assert code == 1
    [line] = err.strip().splitlines()
    assert line.startswith("error: the shot CSV and the JSON report would share ")
    assert list(tmp_path.iterdir()) == []


def test_sample_rejects_a_csv_in_an_existing_report_file(tmp_path, capsys):
    # A rerun: the report file is there from the last run and is left as it was.
    report = tmp_path / "r.json"
    report.write_bytes(b"{}\n")
    code = cli.main(["sample", "--scenario", "ks-mixed", "--shots", "10", "--out", str(report), "--csv", str(report)])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert report.read_bytes() == b"{}\n"


@pytest.mark.skipif(not Path("/dev/null").exists(), reason="needs /dev/null")
def test_sample_may_send_csv_and_report_to_the_null_device(capsys):
    # Nothing is overwritten on a device, so sharing it is no error.
    code = cli.main(["sample", "--scenario", "ks-mixed", "--shots", "10", "--out", "/dev/null", "--csv", "/dev/null"])
    assert capsys.readouterr().err == ""
    assert code == 0


@pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="needs /dev/stdout")
def test_sample_rejects_a_csv_on_standard_output_without_out(tmp_path):
    # Without --out the report goes to standard output, here a regular file.
    stdout = tmp_path / "o.txt"
    with open(stdout, "wb") as handle:
        result = subprocess.run(
            [sys.executable, "-m", "contextsim.cli", "sample", "--scenario", "ks-mixed", "--shots", "5", "--csv", "/dev/stdout"],
            stdout=handle,
            stderr=subprocess.PIPE,
        )
    assert result.returncode == 1
    assert len(result.stderr.strip().splitlines()) == 1
    assert stdout.read_bytes() == b""


def test_unallocatable_shot_count_exits_with_one_line(tmp_path, capsys):
    # The (2^60,) uint8 shot array takes 1 EiB, more than any 64-bit address
    # space holds, so the allocation fails at once whatever the overcommit setting.
    csv = tmp_path / "shots.csv"
    code = cli.main(["sample", "--scenario", "ks-mixed", "--shots", str(2**60), "--csv", str(csv)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert f"({2**60},)" in captured.err
    assert "Traceback" not in captured.err
    assert not csv.exists()


@pytest.mark.parametrize("command", ["joint", "sample"])
def test_tol_above_every_cell_exits_with_one_line(tmp_path, capsys, command):
    # ks-mixed cells are at most 1/3, so --tol 0.5 leaves no support
    csv = tmp_path / "shots.csv"
    argv = [command, "--scenario", "ks-mixed", "--tol", "0.5"]
    if command == "sample":
        argv += ["--shots", "10", "--csv", str(csv)]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.strip().splitlines() == ["error: no table cell has probability above the support threshold 0.5"]
    assert not csv.exists()


def test_tol_that_drops_probability_mass_exits_with_one_line_and_writes_nothing(tmp_path, capsys):
    # dim4-mixed cells (0, 3) and (1, 2) hold 1/4 each, and the cells at or
    # below 0.2 the other half, which the draw would have moved into (1, 2).
    out = tmp_path / "r.json"
    code = cli.main(["sample", "--scenario", "dim4-mixed", "--tol", "0.2", "--shots", "100000", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "error: cells at or below the support threshold 0.2 hold probability 0.5, above NORMALIZATION_TOL = 1e-09"
    ]
    assert list(tmp_path.iterdir()) == []


def test_large_spectra_pass_the_closed_form_check(capsys):
    # Roundoff on an 8e6 expectation exceeds an absolute 1e-9; the check is relative to max|λ|·max|μ|.
    code, data = run_cli(capsys, "joint", "--scenario", "ks-mixed", "--left=1e4,-1e4,0.5", "--right=0.25,1e4,-0.5e4")
    assert code == 0
    assert data["expectation"] == pytest.approx(data["closed_form"], rel=1e-12)


def test_large_spectra_pass_the_synthesis_check(capsys):
    code, data = run_cli(capsys, "expectation", "--scenario", "ks-collinear", "--left=1e6,2e6,3e6", "--right=1,2,3")
    assert code == 0
    assert data["expectation"] == pytest.approx(14e6 / 3, rel=1e-12)


def test_large_spectra_on_a_complex_basis_pass_the_imaginary_part_check(tmp_path, capsys):
    # Complex rays leave roundoff of ~1e-4 in the imaginary part of a 1e18-scale trace.
    q, _ = np.linalg.qr(np.arange(9).reshape(3, 3) + 1j * np.eye(3) + 1.0)
    rays = [[[float(z.real), float(z.imag)] for z in q[:, k]] for k in range(3)]
    basis = write_basis_file(tmp_path / "b.json", {"left": rays, "right": rays})
    code, data = run_cli(
        capsys, "expectation", "--scenario", "custom", "--basis-file", basis, "--left=1e9,-1e9,0.5", "--right=0.25,1e9,-5e8"
    )
    assert code == 0
    assert data["closed_form"] is None


def pair_command(tmp_path, command, *argv):
    """``argv`` for ``command``, with the shot CSV that ``sample`` needs."""
    return [command, *argv, *(["--csv", str(tmp_path / "shots.csv")] if command == "sample" else [])]


@pytest.mark.parametrize("command", ["expectation", "joint", "sample"])
@pytest.mark.parametrize("magnitude", ["1e155", "1e200", "1.7e308"])
def test_overflowing_spectrum_exits_with_one_line(tmp_path, capsys, command, magnitude):
    # Spectra that pass the distinct check, whose products overflow in the
    # table contraction: no Infinity or NaN may reach the JSON.
    m = magnitude
    argv = pair_command(tmp_path, command, "--scenario", "ks-mixed", f"--left={m},0,-{m}", f"--right=0,-{m},{m}")
    assert_exits_with(capsys, 1, "error: inputs overflow double precision (overflow encountered in matmul)", argv)
    assert not (tmp_path / "shots.csv").exists()


@pytest.mark.parametrize("command", ["expectation", "joint", "sample"])
def test_eigenvalue_products_that_overflow_without_a_signal_exit_with_one_line(tmp_path, capsys, command):
    # The table contraction stays finite and einsum returns inf without
    # raising, so only the finiteness check catches the overflow.
    argv = pair_command(tmp_path, command, "--scenario", "ks-collinear", "--left=1e160,0,-2e152", "--right=0,1e160,2e152")
    assert_exits_with(capsys, 1, "error: eigenvalue products overflow double precision", argv)
    assert not (tmp_path / "shots.csv").exists()


def test_states_rejects_dimension_2_contexts(tmp_path, capsys):
    basis = write_basis_file(tmp_path / "ctx.json", {"contexts": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]})
    code = cli.main(["states", "--scenario", "custom", "--basis-file", basis])
    err = capsys.readouterr().err
    assert code == 1
    assert err.strip().splitlines() == ["error: custom contexts must have dimension 3 or 4, not 2"]


def test_near_degenerate_large_spectrum_exits_with_one_line(capsys):
    # 1e9 and 1e9 + 2.4e-7 print as the same 15-digit label; "distinct" is relative to max|λ|.
    code = cli.main(["joint", "--scenario", "ks-mixed", "--left=1000000000,1000000000.0000002,3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "error: eigenvalues 1000000000.0 and 1000000000.0000002 coincide within 10.000000000000002"
    ]


def test_opposite_extreme_eigenvalues_are_distinct(tmp_path, capsys):
    # Their difference overflows double precision; the distinct check must not.
    basis = write_basis_file(tmp_path / "b.json", {"left": BASIS_3, "right": BASIS_3})
    code, data = run_cli(capsys, "sequential", "--scenario", "custom", "--basis-file", basis, "--left=1.7e308,-1.7e308,3")
    assert code == 0
    assert data["distribution"][0]["probability"] == 1.0


def test_rays_written_to_eight_digits_give_the_exact_basis_prediction(tmp_path, capsys):
    # 0.70710678 for 1/sqrt2 leaves |r|^2 = 1 - 3.4e-9, which the basis check accepts;
    # the rays still span the exact directions, so the prediction must not move.
    def tripod(s):
        return [[[s, 0], [0, 0], [s, 0]], RAY_010, [[-s, 0], [0, 0], [s, 0]]]

    results = []
    for name, s in (("short", 0.70710678), ("exact", float(np.sqrt(0.5)))):
        basis = write_basis_file(tmp_path / f"{name}.json", {"left": tripod(s), "right": BASIS_3})
        argv = ["joint", "--scenario", "custom", "--basis-file", basis, "--left=100,-50,7", "--right=4,5,6"]
        code, data = run_cli(capsys, *argv, "--forbidden=0,0")
        assert code == 0
        results.append(data["expectation"])
    assert results[0] == pytest.approx(results[1], rel=1e-14)

"""End-to-end tests of the command-line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest

from contextsim import cli


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
    code, _ = run_cli(capsys, "expectation", "--scenario", "custom")
    assert code == 1


def test_degenerate_spectrum_exits_with_validation_failure(capsys):
    code, _ = run_cli(capsys, "expectation", "--scenario", "ks-collinear", "--left", "1,1,2")
    assert code == 1


def test_wrong_spectrum_length_exits_with_validation_failure(capsys):
    code, _ = run_cli(capsys, "joint", "--scenario", "dim4-mixed", "--left", "1,2,3")
    assert code == 1


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
        scenarios.SCENARIOS["ks-mixed"], _closed_form=lambda l, r: 0.0
    )
    monkeypatch.setitem(scenarios.SCENARIOS, "ks-mixed", broken)
    code, _ = run_cli(capsys, "expectation", "--scenario", "ks-mixed")
    assert code == 2


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


def assert_one_line_validation_failure(capsys, *argv):
    code = cli.main(list(argv))
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_basis_of_numbers_exits_with_one_line(tmp_path, capsys):
    basis = write_basis_file(tmp_path / "b.json", {"left": 5, "right": 5})
    assert_one_line_validation_failure(capsys, "expectation", "--scenario", "custom", "--basis-file", basis)


def test_non_numeric_ray_entry_exits_with_one_line(tmp_path, capsys):
    bad = [["a", 0], [0.0, 0.0], [0.0, 0.0]]
    basis = write_basis_file(tmp_path / "b.json", {"left": [bad, RAY_010, RAY_001], "right": BASIS_3})
    assert_one_line_validation_failure(capsys, "expectation", "--scenario", "custom", "--basis-file", basis)


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


def test_negative_shots_exits_with_one_line(tmp_path, capsys):
    csv = str(tmp_path / "shots.csv")
    assert_one_line_validation_failure(capsys, "sample", "--scenario", "ks-mixed", "--shots", "-5", "--csv", csv)


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


@pytest.mark.parametrize("command", ["expectation", "joint"])
@pytest.mark.parametrize("magnitude", ["1e155", "1e200", "1.7e308"])
def test_overflowing_spectrum_exits_with_one_line(capsys, command, magnitude):
    # max|λ|·max|μ| overflows, so no Infinity or NaN may reach the JSON.
    code = cli.main([command, "--scenario", "ks-mixed", f"--left={magnitude},2,3", f"--right=4,5,{magnitude}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_states_rejects_dimension_2_contexts(tmp_path, capsys):
    basis = write_basis_file(tmp_path / "ctx.json", {"contexts": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]})
    code = cli.main(["states", "--scenario", "custom", "--basis-file", basis])
    err = capsys.readouterr().err
    assert code == 1
    assert err.strip().splitlines() == ["error: custom contexts must have dimension 3 or 4, not 2"]

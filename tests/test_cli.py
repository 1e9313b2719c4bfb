import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chiralspin import cli, models
from chiralspin.chiral import default_pairing_tol

from helpers import FAMILIES, chiral_model_at_dim, reference_charpoly, write_model


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ops_text_output(capsys):
    code, out, _ = run_cli(capsys, "ops", "--j", "1", "--which", "jz")
    assert code == 0
    assert "real part:" in out
    assert "imag part:" in out


def test_ops_json_jz(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "ops", "--j", "1", "--which", "jz")
    assert code == 0
    doc = json.loads(out)
    entries = np.array(doc["entries"]).reshape(3, 3, 2)
    assert np.allclose(entries[..., 0], np.diag([1.0, 0.0, -1.0]))
    assert np.allclose(entries[..., 1], 0.0)


def test_ops_j0(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "ops", "--j", "0", "--which", "jx")
    doc = json.loads(out)
    assert code == 0
    assert doc["dim"] == 1
    assert doc["entries"] == [[0.0, 0.0]]


def test_ops_j52_jplus_superdiagonal(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "ops", "--j", "5/2", "--which", "jplus")
    assert code == 0
    m = np.array(json.loads(out)["entries"]).reshape(6, 6, 2)[..., 0]
    expected = [math.sqrt(5.0), math.sqrt(8.0), 3.0, math.sqrt(8.0), math.sqrt(5.0)]
    assert np.allclose(np.diag(m, k=1), expected, atol=1e-14)


def test_ops_bad_spin_label(capsys):
    code, _, err = run_cli(capsys, "ops", "--j", "2/3", "--which", "jz")
    assert code == 2
    assert "invalid spin label" in err


def test_ops_out_redirect(tmp_path, capsys):
    target = tmp_path / "jz.txt"
    code, out, _ = run_cli(capsys, "--out", str(target), "ops", "--j", "1", "--which", "jz")
    assert code == 0
    assert out == ""
    assert "real part:" in target.read_text()


def test_verify_general_field(tmp_path, capsys):
    path = write_model(
        tmp_path,
        {"model": "general_field", "j": "5/2", "params": {"a": 1.0, "b": 2.0, "c": 0.5}},
    )
    code, out, _ = run_cli(capsys, "--format", "json", "verify", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["kind"] == "anticommuting"
    assert doc["pairing"]["is_chiral_paired"] is True
    assert doc["verified"] is True


def test_verify_spherical_rotor_is_trivially_chiral(tmp_path, capsys):
    # Ix = Iy = Iz meets 1/I + 1/I = 2/I with D = 0: the shifted Hamiltonian
    # vanishes, the verdict degenerates to "both", and pairing still holds
    path = write_model(
        tmp_path,
        {"model": "triaxial_rotor", "j": "2", "params": {"ix": 1.0, "iy": 1.0, "iz": 1.0}},
    )
    code, out, _ = run_cli(capsys, "--format", "json", "verify", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["kind"] == "both"
    assert doc["pairing"]["is_chiral_paired"] is True


def test_verify_condition_unmet_exit_1(tmp_path, capsys):
    path = write_model(
        tmp_path,
        {"model": "triaxial_rotor", "j": "2", "params": {"ix": 1.0, "iy": 2.0, "iz": 1.0}},
    )
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 1
    assert "condition" in out
    assert "1/Ix" in out


def test_verify_explicit_rotation(tmp_path, capsys):
    path = write_model(
        tmp_path, {"model": "crossed_fields", "j": "3/2", "params": {"a": 1.0, "b": 2.0}}
    )
    rotation = json.dumps({"slot": 0, "axis": [0, 0, 1], "angle": "pi"})
    code, _, _ = run_cli(capsys, "verify", path, "--rotation", rotation)
    assert code == 0


def test_verify_wrong_rotation_exit_1(tmp_path, capsys):
    path = write_model(
        tmp_path, {"model": "crossed_fields", "j": "3/2", "params": {"a": 1.0, "b": 2.0}}
    )
    rotation = json.dumps({"slot": 0, "axis": [1, 0, 0], "angle": "pi/2"})
    code, _, _ = run_cli(capsys, "verify", path, "--rotation", rotation)
    assert code == 1


def test_verify_tol_override(tmp_path, capsys):
    # an absurdly tight tolerance rejects even the correct partner
    path = write_model(
        tmp_path, {"model": "crossed_fields", "j": "1", "params": {"a": 1.0, "b": 2.0}}
    )
    code, _, _ = run_cli(capsys, "verify", path)
    assert code == 0
    code, _, _ = run_cli(capsys, "verify", path, "--tol", "1e-20")
    assert code == 1


def test_verify_malformed_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 2
    assert "error" in err


def test_spectrum_j1_both_columns(tmp_path, capsys):
    path = write_model(
        tmp_path,
        {"model": "general_field", "j": "1", "params": {"a": 1.0, "b": 2.0, "c": 2.0}},
    )
    code, out, _ = run_cli(capsys, "--format", "json", "spectrum", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "radicals"
    assert np.allclose(doc["eigenvalues_closed_form"], [-3.0, 0.0, 3.0], atol=1e-9)
    assert np.allclose(doc["eigenvalues_numeric"], [-3.0, 0.0, 3.0], atol=1e-9)


def test_spectrum_zero_model(tmp_path, capsys):
    path = write_model(
        tmp_path, {"model": "crossed_fields", "j": "2", "params": {"a": 0.0, "b": 0.0}}
    )
    code, out, _ = run_cli(capsys, "--format", "json", "spectrum", path)
    assert code == 0
    doc = json.loads(out)
    assert np.allclose(doc["eigenvalues_numeric"], 0.0)
    assert np.allclose(doc["eigenvalues_closed_form"], 0.0)


def test_spectrum_oh_radicals_agree(tmp_path, capsys):
    path = write_model(tmp_path, {"model": "oh_molecule", "params": {"B": 0.3}})
    code, out, _ = run_cli(capsys, "--format", "json", "spectrum", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 8
    assert doc["method"] == "radicals"
    closed = np.array(doc["eigenvalues_closed_form"])
    numeric = np.array(doc["eigenvalues_numeric"])
    assert np.max(np.abs(closed - numeric)) < 1e-8


def test_spectrum_radicals_unavailable_exit_1(tmp_path, capsys):
    path = write_model(
        tmp_path,
        {"model": "toy_coupled", "j1": "5/2", "j2": "5/2", "params": {"A": 1.0, "B": 0.5}},
    )
    code, _, err = run_cli(capsys, "spectrum", path, "--method", "radicals")
    assert code == 1
    assert "radicals unavailable" in err


def test_spectrum_numeric_mode(tmp_path, capsys):
    path = write_model(
        tmp_path, {"model": "general_field", "j": "1", "params": {"a": 1, "b": 0, "c": 0}}
    )
    code, out, _ = run_cli(capsys, "--format", "json", "spectrum", path, "--method", "numeric")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "numeric_only"
    assert np.allclose(doc["eigenvalues_numeric"], [-1.0, 0.0, 1.0], atol=1e-10)


def test_spectrum_shifted_model_reports_physical_energies(tmp_path, capsys):
    path = write_model(
        tmp_path,
        {"model": "crossed_fields_shifted", "j": "1", "params": {"a": 3.0, "b": 4.0, "c": 1.0}},
    )
    code, out, _ = run_cli(capsys, "--format", "json", "spectrum", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["shift"] == pytest.approx(2.0)
    # spectrum of 3 Jx + 4 Jy is 0, +-5; shifted by C1 = 2
    assert np.allclose(doc["eigenvalues_closed_form"], [-3.0, 2.0, 7.0], atol=1e-9)


def _scan_args(path, out_csv, steps="81"):
    return [
        "--out", str(out_csv), "scan", str(path),
        "--param", "c", "--from", "-2", "--to", "2", "--steps", steps,
    ]


def test_scan_header_rows_and_formula(tmp_path, capsys):
    path = write_model(
        tmp_path,
        {"model": "general_field", "j": "5/2", "params": {"a": 1.0, "b": 2.0, "c": 0.0}},
    )
    out_csv = tmp_path / "scan.csv"
    code = cli.main(_scan_args(path, out_csv))
    summary = capsys.readouterr().out
    assert code == 0
    assert "all rows chiral-paired" in summary
    lines = out_csv.read_text().split("\n")
    header = "param,c," + ",".join(f"lambda_{i}" for i in range(1, 7)) + ",pairing_ok,max_pair_mismatch"
    assert lines[0] == header
    assert lines[-1] == ""
    rows = lines[1:-1]
    assert len(rows) == 81
    for row in rows:
        cells = row.split(",")
        assert cells[0] == "c"
        c = float(cells[1])
        eigs = np.array([float(x) for x in cells[2:8]])
        rq = math.sqrt(5.0 + c * c)
        expected = np.sort([s * k * rq / 2.0 for k in (1, 3, 5) for s in (-1, 1)])
        assert np.max(np.abs(eigs - expected)) < 1e-9
        assert cells[8] == "true"


def test_scan_is_bit_reproducible(tmp_path, capsys):
    path = write_model(
        tmp_path,
        {"model": "oh_molecule", "params": {"B": 0.0}},
        name="oh.json",
    )
    outs = []
    for name in ("a.csv", "b.csv"):
        out_csv = tmp_path / name
        code = cli.main([
            "--out", str(out_csv), "scan", str(path),
            "--param", "B", "--from", "0", "--to", "2", "--steps", "21",
        ])
        capsys.readouterr()
        assert code == 0
        outs.append(out_csv.read_bytes())
    assert outs[0] == outs[1]


def test_scan_single_step(tmp_path, capsys):
    path = write_model(
        tmp_path,
        {"model": "general_field", "j": "1", "params": {"a": 1.0, "b": 2.0, "c": 0.0}},
    )
    out_csv = tmp_path / "one.csv"
    code = cli.main([
        "--out", str(out_csv), "scan", str(path),
        "--param", "c", "--from", "-1.5", "--to", "99", "--steps", "1",
    ])
    capsys.readouterr()
    assert code == 0
    rows = out_csv.read_text().strip().split("\n")[1:]
    assert len(rows) == 1
    assert float(rows[0].split(",")[1]) == -1.5


def test_scan_requires_positive_steps(tmp_path, capsys):
    path = write_model(
        tmp_path,
        {"model": "general_field", "j": "1", "params": {"a": 1.0, "b": 2.0, "c": 0.0}},
    )
    code, _, err = run_cli(
        capsys, "--out", str(tmp_path / "x.csv"), "scan", path,
        "--param", "c", "--from", "0", "--to", "1", "--steps", "0",
    )
    assert code == 2
    assert "steps" in err


def test_scan_unwritable_path_exit_2(tmp_path, capsys):
    path = write_model(
        tmp_path,
        {"model": "general_field", "j": "1", "params": {"a": 1.0, "b": 2.0, "c": 0.0}},
    )
    code, _, err = run_cli(
        capsys, "--out", str(tmp_path / "missing" / "x.csv"), "scan", path,
        "--param", "c", "--from", "0", "--to", "1", "--steps", "2",
    )
    assert code == 2


def test_scan_reports_first_pairing_failure(tmp_path, capsys):
    # the rotor's chiral condition 2/iz = 1/ix + 1/iy holds only at iz = 4/3
    path = write_model(
        tmp_path,
        {"model": "triaxial_rotor", "j": "3/2", "params": {"ix": 1.0, "iy": 2.0, "iz": 1.0}},
    )
    out_csv = tmp_path / "scan.csv"
    grid = ["scan", path, "--param", "iz", "--from", "1", "--to", "2", "--steps", "4"]
    code, out, _ = run_cli(capsys, "--out", str(out_csv), *grid)
    assert code == 0
    assert "pairing FAILED first at iz = 1 (mismatch 6.250e-01)" in out
    flags = [line.split(",")[-2] for line in out_csv.read_text().splitlines()[1:]]
    assert flags == ["false", "true", "false", "false"]
    code, out, _ = run_cli(capsys, "--format", "json", "--out", str(out_csv), *grid)
    doc = json.loads(out)
    assert code == 0
    assert sorted(doc) == ["all_paired", "first_failure", "out", "rows"]
    assert doc["all_paired"] is False
    assert doc["rows"] == 4
    assert doc["first_failure"]["param_value"] == 1.0
    assert doc["first_failure"]["max_pair_mismatch"] == pytest.approx(0.625, abs=1e-12)


def test_eigensolver_failure_exits_2(tmp_path, capsys, monkeypatch):
    def failing_eigh(*_args, **_kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    path = write_model(
        tmp_path,
        {"model": "general_field", "j": "5/2", "params": {"a": 1.0, "b": 2.0, "c": 0.5}},
    )
    for argv in (
        ["verify", path],
        ["--out", str(tmp_path / "x.csv"), "scan", path,
         "--param", "c", "--from", "0", "--to", "1", "--steps", "2"],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        # the whole of stderr: one error line, no traceback
        assert err == "error: Eigenvalues did not converge\n"


def test_search_toy_model(tmp_path, capsys):
    path = write_model(
        tmp_path,
        {"model": "toy_coupled", "j1": "1/2", "j2": "1/2", "params": {"A": 1.0, "B": 1.0}},
    )
    code, out, _ = run_cli(capsys, "--format", "json", "search", path)
    assert code == 0
    doc = json.loads(out)
    descriptions = [hit["description"] for hit in doc["hits"]]
    assert "R[0,y](pi) * R[1,z](pi)" in descriptions
    assert all(hit["residual_anticommute"] < 1e-10 for hit in doc["hits"])


def test_search_crossed_fields_finds_z_pi(tmp_path, capsys):
    path = write_model(
        tmp_path, {"model": "crossed_fields", "j": "3/2", "params": {"a": 1.0, "b": 2.0}}
    )
    code, out, _ = run_cli(capsys, "--format", "json", "search", path)
    assert code == 0
    assert "R[0,z](pi)" in [h["description"] for h in json.loads(out)["hits"]]


def test_search_identity_matrix_exit_1(tmp_path, capsys):
    entries = [[1.0, 0.0] if i == j else [0.0, 0.0] for i in range(4) for j in range(4)]
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"dims": [2, 2], "entries": entries}))
    code, out, _ = run_cli(capsys, "search", str(path))
    assert code == 1
    assert "no anticommuting rotation" in out


def test_search_matrix_file_roundtrip(tmp_path, capsys):
    # Jx at j=1/2 embedded as a plain matrix document: R_z(pi) anticommutes
    entries = [[0.0, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 0.0]]
    path = tmp_path / "jx.json"
    path.write_text(json.dumps({"dims": [2], "entries": entries}))
    code, out, _ = run_cli(capsys, "--format", "json", "search", str(path))
    assert code == 0
    assert "R[0,z](pi)" in [h["description"] for h in json.loads(out)["hits"]]


def test_search_rejects_non_hermitian_matrix(tmp_path, capsys):
    entries = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": [2], "entries": entries}))
    code, _, err = run_cli(capsys, "search", str(path))
    assert code == 2
    assert "Hermitian" in err


@pytest.mark.parametrize("entry", [[True, 0.0], [0.0, False], [None, 0.0], ["x", 0.0], [0.5]])
def test_search_rejects_non_numeric_matrix_entries(tmp_path, capsys, entry):
    # 2 Jx at j=1/2 with one off-diagonal entry replaced
    entries = [[0.0, 0.0], entry, [1.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"dims": [2], "entries": entries}))
    code, out, err = run_cli(capsys, "search", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: entries must be [re, im] pairs of numbers\n"


def test_search_rejects_unrecognized_document(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"foo": 1}))
    code, _, err = run_cli(capsys, "search", str(path))
    assert code == 2


@pytest.mark.parametrize("dims", [4, [None], [2.5, 2], [], "22", [True, 2], [0, 4]])
def test_search_rejects_bad_matrix_dims(tmp_path, capsys, dims):
    entries = [[1.0, 0.0] if i == j else [0.0, 0.0] for i in range(4) for j in range(4)]
    path = tmp_path / "dims.json"
    path.write_text(json.dumps({"dims": dims, "entries": entries}))
    code, out, err = run_cli(capsys, "search", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "dims must be a non-empty list of positive integers" in err


def test_search_accepts_integral_float_dims(tmp_path, capsys):
    entries = [[0.0, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 0.0]]
    path = tmp_path / "jx.json"
    path.write_text(json.dumps({"dims": [2.0], "entries": entries}))
    code, out, _ = run_cli(capsys, "--format", "json", "search", str(path))
    assert code == 0
    assert json.loads(out)["dims"] == [2]


@pytest.mark.parametrize("command", ["verify", "spectrum", "charpoly", "search", "scan"])
def test_model_above_dimension_limit_exits_2(tmp_path, capsys, command):
    # 33 x 33 = 1089 > MAX_HILBERT_DIM, though each spin alone is allowed
    path = write_model(
        tmp_path, {"model": "toy_coupled", "j1": "16", "j2": "16", "params": {"A": 1.0, "B": 1.0}}
    )
    argv = [command, path]
    if command == "scan":
        argv = ["--out", str(tmp_path / "x.csv"), *argv,
                "--param", "A", "--from", "0", "--to", "1", "--steps", "2"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: model 'toy_coupled' has dimension 1089, above the limit 1024\n"


def test_ops_above_dimension_limit_exits_2(capsys):
    code, out, err = run_cli(capsys, "ops", "--j", "600", "--which", "jx")
    assert code == 2
    assert out == ""
    assert err == "error: spin j = 600 has dimension 1201, above the limit 1024\n"


def test_scan_steps_above_budget_exit_2(tmp_path, capsys):
    path = write_model(tmp_path, {"model": "general_field", "j": "5/2", "params": {"a": 1, "b": 0, "c": 0}})
    steps = cli.SCAN_MAX_ENTRIES // 36 + 1
    code, out, err = run_cli(
        capsys, "--out", str(tmp_path / "x.csv"), "scan", path,
        "--param", "c", "--from", "0", "--to", "1", "--steps", str(steps),
    )
    assert code == 2
    assert out == ""
    assert err == (
        f"error: --steps {steps} at dim 6 exceeds the scan budget of "
        f"{cli.SCAN_MAX_ENTRIES} matrix entries (at most {steps - 1} steps)\n"
    )
    assert not (tmp_path / "x.csv").exists()


def test_size_limits_accept_every_test_and_benchmark_dim(tmp_path, capsys):
    # the tests reach dim 64 and 81 scan steps; the benchmark reaches dim 36
    assert models.build(models.GeneralField("63/2", 1.0, 1.0, 1.0)).hamiltonian.shape == (64, 64)
    assert models.build(models.ToyCoupled("7/2", "7/2", 1.0, 1.0)).hamiltonian.shape == (64, 64)
    path = write_model(tmp_path, {"model": "general_field", "j": "63/2", "params": {"a": 1, "b": 0, "c": 0}})
    out_csv = tmp_path / "wide.csv"
    code, _, _ = run_cli(
        capsys, "--out", str(out_csv), "scan", path,
        "--param", "c", "--from", "-2", "--to", "2", "--steps", "81",
    )
    assert code == 0
    assert len(out_csv.read_text().splitlines()) == 82


def test_charpoly_j52_printed_coefficients(tmp_path, capsys):
    path = write_model(
        tmp_path,
        {"model": "general_field", "j": "5/2", "params": {"a": 1.0, "b": 0.0, "c": 0.0}},
    )
    code, out, _ = run_cli(capsys, "--format", "json", "charpoly", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["parity_ok"] is True
    assert doc["zero_root_multiplicity"] == 0
    assert doc["mu_coefficients"] == pytest.approx(
        [-225.0 / 64.0, 259.0 / 16.0, -35.0 / 4.0, 1.0], rel=1e-9
    )


def test_charpoly_j1_coefficient_pattern(tmp_path, capsys):
    path = write_model(
        tmp_path,
        {"model": "general_field", "j": "1", "params": {"a": 1.0, "b": 2.0, "c": 2.0}},
    )
    code, out, _ = run_cli(capsys, "--format", "json", "charpoly", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == pytest.approx([0.0, 9.0, 0.0, -1.0], abs=1e-12)
    assert doc["zero_root_multiplicity"] == 1


def test_charpoly_zero_model(tmp_path, capsys):
    path = write_model(
        tmp_path, {"model": "crossed_fields", "j": "3/2", "params": {"a": 0.0, "b": 0.0}}
    )
    code, out, _ = run_cli(capsys, "--format", "json", "charpoly", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == pytest.approx([0.0, 0.0, 0.0, 0.0, 1.0], abs=0.0)


def _eigvalsh_rule(doc):
    """Shifted spectrum of a model document by eigvalsh, ||H||_F, and its
    pairing and zero-mode count at the default pairing tolerance."""
    shifted = models.shifted_hamiltonian(models.build(models.parse_model(doc)))
    eigs = np.linalg.eigvalsh(shifted)
    tol = default_pairing_tol(shifted)
    paired = bool(np.all(np.abs(eigs + eigs[::-1]) < tol))
    return eigs, float(np.linalg.norm(eigs)), paired, int(np.sum(np.abs(eigs) < tol))


def _spectrum_and_charpoly(capsys, path):
    code, out, err = run_cli(capsys, "--format", "json", "spectrum", path)
    assert code == 0, err
    spectrum = json.loads(out)
    code, out, err = run_cli(capsys, "--format", "json", "charpoly", path)
    return spectrum, code, out, err


# Inputs where a cut on small polynomial coefficients would take tiny +-
# pairs for zero roots (rotors, coupled spins), dim 21, where a trace
# recursion's coefficients turn complex, and couplings 1e-158 of the norm,
# whose squared column norm is subnormal in a Householder reflector
SOLVE_REPROS = [
    pytest.param({"model": "triaxial_rotor", "j": "7/2", "params": {
        "ix": 2.6408270015621857, "iy": 2.4431396216292955, "iz": 2.5381398264707147}},
        "radicals", id="rotor-7/2"),
    pytest.param({"model": "triaxial_rotor", "j": "13/2", "params": {
        "ix": 1.9276497324815398, "iy": 1.9312389026685257, "iz": 1.9294426484231282}},
        "numeric_only", id="rotor-13/2"),
    pytest.param({"model": "toy_coupled", "j1": "3/2", "j2": "1/2", "params": {
        "A": 1.087390810621687, "B": -1.1200062527281252}}, "radicals", id="toy-3/2-1/2"),
    pytest.param({"model": "toy_coupled", "j1": "1/2", "j2": "5/2", "params": {
        "A": 0.36909993077075426, "B": 0.3957483897191038}}, "numeric_only", id="toy-1/2-5/2"),
    pytest.param({"model": "general_field", "j": "10", "params": {"a": 0.7, "b": -1.3, "c": 0.4}},
                 "numeric_only", id="general-10"),
    pytest.param({"model": "general_field", "j": "1", "params": {"a": 1e-158, "b": 0.0, "c": 1.0}},
                 "radicals", id="general-1-tiny-a"),
    pytest.param({"model": "general_field", "j": "5/2", "params": {"a": 1e-158, "b": 0.0, "c": 1.0}},
                 "radicals", id="general-5/2-tiny-a"),
]


@pytest.mark.parametrize("doc, method", SOLVE_REPROS)
def test_solve_path_regressions(tmp_path, capsys, doc, method):
    path = write_model(tmp_path, doc)
    eigs, hnorm, paired, zeros = _eigvalsh_rule(doc)
    spectrum, code, out, err = _spectrum_and_charpoly(capsys, path)
    assert spectrum["method"] == method
    assert spectrum["parity_ok"] == paired
    if method == "radicals":
        closed = np.array(spectrum["eigenvalues_closed_form"]) - spectrum["shift"]
        assert np.max(np.abs(closed - eigs)) <= 1e-9 * max(1.0, hnorm)
    assert code == 0, err
    poly = json.loads(out)
    assert (poly["parity_ok"], poly["zero_root_multiplicity"]) == (paired, zeros)
    want, tol = reference_charpoly(eigs)
    assert np.all(np.abs(np.array(poly["coefficients"]) - want) <= tol)


@pytest.mark.parametrize("twice_j", [21, 30, 60])
def test_large_dims_solve_cleanly(tmp_path, capsys, twice_j):
    doc = {"model": "general_field", "j": f"{twice_j}/2", "params": {"a": 0.7, "b": -1.3, "c": 0.4}}
    path = write_model(tmp_path, doc)
    eigs, _, _, zeros = _eigvalsh_rule(doc)
    spectrum, code, out, err = _spectrum_and_charpoly(capsys, path)
    assert spectrum["dim"] == twice_j + 1 and spectrum["method"] == "numeric_only"
    assert spectrum["eigenvalues_closed_form"] is None
    assert spectrum["parity_ok"] is True
    assert (code, err) == (0, "")
    poly = json.loads(out)
    assert poly["coefficients"] == spectrum["charpoly_shifted"]
    assert (poly["parity_ok"], poly["zero_root_multiplicity"]) == (True, zeros)
    want, tol = reference_charpoly(eigs)
    assert np.all(np.abs(np.array(poly["coefficients"]) - want) <= tol)
    code, out, err = run_cli(capsys, "--format", "json", "verify", path)
    assert code == 0 and err == ""
    assert json.loads(out)["verified"] is True


def test_charpoly_above_the_coefficient_bound_exits_1(tmp_path, capsys):
    # at dim 201 prod(1 + |lambda|) exceeds the double range
    path = write_model(tmp_path, {"model": "general_field", "j": "100",
                                  "params": {"a": 0.7, "b": -1.3, "c": 0.4}})
    spectrum, code, out, err = _spectrum_and_charpoly(capsys, path)
    assert spectrum["dim"] == 201 and spectrum["method"] == "numeric_only"
    assert spectrum["charpoly_shifted"] is None
    assert code == 1 and out == ""
    assert err == ("characteristic polynomial unavailable for dim 201: prod(1 + |lambda|) "
                   "bounds its coefficients and exceeds the double range\n")
    code, out, _ = run_cli(capsys, "--format", "json", "spectrum", path)
    assert "Infinity" not in out and "NaN" not in out


def test_spectrum_and_charpoly_agree_with_eigvalsh_rule(tmp_path, capsys):
    rng = np.random.default_rng(2024)
    for dim in (*range(1, 14), 21, 41):
        for family in FAMILIES:
            spec = chiral_model_at_dim(rng, family, dim)
            if spec is None:
                continue
            doc = {"model": models.model_tag(spec), "params": {
                k: v for k, v in vars(spec).items() if not isinstance(v, models.SpinLabel)}}
            doc.update({k: str(v) for k, v in vars(spec).items() if isinstance(v, models.SpinLabel)})
            path = write_model(tmp_path, doc)
            _, _, paired, zeros = _eigvalsh_rule(doc)
            spectrum, code, out, err = _spectrum_and_charpoly(capsys, path)
            assert code == 0, err
            poly = json.loads(out)
            assert spectrum["parity_ok"] == poly["parity_ok"] == paired, (family, dim)
            assert poly["zero_root_multiplicity"] == zeros, (family, dim)
            assert spectrum["charpoly_shifted"] == poly["coefficients"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "1e999", "0", "-0", "-1", "tiny"])
def test_tol_must_be_finite_and_positive(tmp_path, capsys, tol):
    model = write_model(tmp_path, {"model": "crossed_fields", "j": "1", "params": {"a": 1.0, "b": 2.0}})
    rotation = json.dumps({"axis": [1, 0, 0], "angle": "pi/4"})
    for argv in (
        ["verify", model, "--rotation", rotation, "--tol", tol],
        ["--tol", tol, "verify", model],
        ["search", model, "--tol", tol],
        ["--tol", tol, "charpoly", model],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --tol" in captured.err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["ops", "--which", "jz"])
    assert err.value.code == 2


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "/no/such/model.json")
    assert code == 2


def test_module_entry_point_smoke():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "chiralspin", "ops", "--j", "1", "--which", "jz"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "real part:" in proc.stdout


GLOBAL_FLAG_COMMANDS = {
    "ops": ["ops", "--j", "1", "--which", "jx"],
    "verify": ["verify", "model.json"],
    "spectrum": ["spectrum", "model.json"],
    "scan": ["scan", "model.json", "--param", "a", "--from", "0", "--to", "1", "--steps", "3"],
    "search": ["search", "model.json"],
    "charpoly": ["charpoly", "model.json"],
}


@pytest.mark.parametrize("command", GLOBAL_FLAG_COMMANDS)
def test_global_flags_work_before_and_after_the_subcommand(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    write_model(tmp_path, {"model": "crossed_fields", "j": "1", "params": {"a": 1.0, "b": 2.0}})
    # --tol 1e-20 rejects the true partner, so verify and search exit 1 only
    # when the flag is read
    flags = ["--format", "json", "--out", "out.txt", "--tol", "1e-20"]
    argv = GLOBAL_FLAG_COMMANDS[command]
    results = []
    for order in (flags + argv, argv + flags):
        code, out, err = run_cli(capsys, *order)
        written = (tmp_path / "out.txt").read_text()
        os.remove(tmp_path / "out.txt")
        results.append((code, out, err, written))
    assert results[0] == results[1]
    code, out, err, written = results[0]
    assert code == (1 if command in ("verify", "search") else 0), err
    if command == "scan":
        assert json.loads(out)["rows"] == 3
        assert written.startswith("param,a,lambda_1,")
    else:
        assert out == ""
        json.loads(written)


WRONG_TYPES = [None, [1], {"x": 1}, True]


@pytest.mark.parametrize("field", ["parameter", "j", "slot", "axis"])
@pytest.mark.parametrize("value", WRONG_TYPES, ids=["null", "list", "object", "boolean"])
def test_wrongly_typed_json_values_exit_2(tmp_path, capsys, field, value):
    doc = {"model": "general_field", "j": "1", "params": {"a": 1.0, "b": 1.0, "c": 0.0}}
    argv = ["verify"]
    if field == "parameter":
        doc["params"]["a"] = value
    elif field == "j":
        doc["j"] = value
    elif field == "slot":
        argv += ["--rotation", json.dumps({"slot": value, "axis": [0, 0, 1], "angle": "pi"})]
    else:
        argv += ["--rotation", json.dumps({"axis": [0, 0, value], "angle": "pi"})]
    code, out, err = run_cli(capsys, *argv, write_model(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert repr(value) in err


def test_search_model_errors_name_the_file(tmp_path, capsys):
    path = write_model(tmp_path, {"model": "nope"}, name="bad.json")
    code, out, err = run_cli(capsys, "search", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: unknown model 'nope'; ")
    assert run_cli(capsys, "verify", path) == (code, out, err)


"""Acceptance suite: one test per release criterion, each ending with a
printed pass line (visible under `pytest tests/test_acceptance.py -v -s`).
Criteria with a stated runtime budget assert it.
"""

import json
import math
import time

import numpy as np
import pytest

from chiralspin import charpoly, chiral, cli, linalg, models
from chiralspin.angmom import SpinLabel, build_spin_operators
from chiralspin.chiral import Symmetry
from chiralspin.models import (
    CrossedFields,
    GeneralField,
    OHMolecule,
    ToyCoupled,
    TriaxialRotor,
)
from chiralspin.rotations import (
    CompositeRotation,
    RotationSpec,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    composite_matrix,
    rotation_matrix,
)

from helpers import expected_general_field_j52, rotation_identity_residual, write_model


def _report(number, elapsed, detail=""):
    extra = f" ({detail})" if detail else ""
    print(f"\n[criterion {number:2d}] PASS in {elapsed:.3f}s{extra}")


def test_criterion_01_operator_regression():
    start = time.perf_counter()
    ops = build_spin_operators("1")
    inv = 1.0 / math.sqrt(2.0)
    jx = inv * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    jy = (inv / 1j) * np.array([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], dtype=complex)
    jz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    assert np.max(np.abs(ops.jx - jx)) <= 1e-15
    assert np.max(np.abs(ops.jy - jy)) <= 1e-15
    assert np.max(np.abs(ops.jz - jz)) <= 1e-15
    rng = np.random.default_rng(101)
    for _ in range(10):
        a, b, c = rng.uniform(-5.0, 5.0, size=3)
        built = models.build(GeneralField("5/2", a, b, c))
        assert np.max(np.abs(built.hamiltonian - expected_general_field_j52(a, b, c))) <= 1e-13
    _report(1, time.perf_counter() - start, "entry-for-entry j=1 and j=5/2")


def test_criterion_02_exact_spectra():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(50):
        vec = rng.normal(size=3)
        vec *= rng.uniform(0.05, 10.0) / np.linalg.norm(vec)
        a, b, c = vec
        root_q = math.sqrt(a * a + b * b + c * c)
        for label, expected in (
            ("1", np.array([-root_q, 0.0, root_q])),
            ("5/2", np.sort([s * k * root_q / 2.0 for k in (1, 3, 5) for s in (-1, 1)])),
        ):
            built = models.build(GeneralField(label, a, b, c))
            numeric = linalg.hermitian_eigensolve(built.hamiltonian).eigenvalues
            assert np.max(np.abs(numeric - expected)) < 1e-9
            report = charpoly.full_solve(built.hamiltonian)
            assert report.method is charpoly.SolveMethod.RADICALS
            closed = np.array(report.closed_form_eigenvalues)
            assert np.max(np.abs(closed - expected)) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, elapsed, "50 draws, numeric and radical pipelines")


def test_criterion_03_coefficient_regression():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    for _ in range(10):
        a, b, c = rng.uniform(-3.0, 3.0, size=3)
        q = a * a + b * b + c * c
        poly = charpoly.characteristic_polynomial(
            models.build(GeneralField("5/2", a, b, c)).hamiltonian
        )
        coeff_scale = max(abs(x) for x in poly.coeffs)
        for k in (1, 3, 5):
            assert abs(poly.coeffs[k]) <= 1e-10 * coeff_scale
        assert poly.coeffs[0] == pytest.approx(-225.0 * q**3 / 64.0, rel=1e-9)
        assert poly.coeffs[2] == pytest.approx(259.0 * q**2 / 16.0, rel=1e-9)
        assert poly.coeffs[4] == pytest.approx(-35.0 * q / 4.0, rel=1e-9)
        assert poly.coeffs[6] == 1.0
    _report(3, time.perf_counter() - start, "Faddeev-LeVerrier vs printed cubic")


def test_criterion_04_anticommutation_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(404)

    def draw(family):
        if family == "crossed_fields":
            return CrossedFields(
                SpinLabel(int(rng.integers(1, 11))), rng.uniform(-2, 2), rng.uniform(-2, 2)
            )
        if family == "general_field":
            return GeneralField(
                SpinLabel(int(rng.integers(1, 11))),
                rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2),
            )
        if family == "triaxial_rotor":
            ix, iy = rng.uniform(0.2, 2.0, size=2)
            return TriaxialRotor(
                SpinLabel(int(rng.integers(2, 11))), ix, iy, 2.0 / (1.0 / ix + 1.0 / iy)
            )
        if family == "toy_coupled":
            return ToyCoupled(
                SpinLabel(int(rng.integers(1, 5))), SpinLabel(int(rng.integers(1, 5))),
                rng.uniform(-2, 2), rng.uniform(-2, 2),
            )
        return OHMolecule(
            delta=rng.uniform(0.2, 2.0), B=rng.uniform(0.0, 2.0),
            E=rng.uniform(0.2, 2.0), theta=rng.uniform(0.1, 1.4),
        )

    families = ("crossed_fields", "general_field", "triaxial_rotor", "toy_coupled", "oh_molecule")
    for family in families:
        for _ in range(20):
            built = models.build(draw(family))
            assert built.chiral_condition_met
            shifted = models.shifted_hamiltonian(built)
            r = composite_matrix(built.chiral_partner, built.dims)
            verdict = chiral.classify(r, shifted)
            assert verdict.residual_anticommute < 1e-10
            eigs = linalg.hermitian_eigensolve(shifted).eigenvalues
            hnorm = linalg.frobenius(shifted)
            tol = 1e-9 * max(1.0, hnorm)
            assert chiral.pairing_check(eigs, tol).is_chiral_paired
            if shifted.shape[0] % 2 == 1:
                assert np.min(np.abs(eigs)) < 1e-9 * hnorm
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(4, elapsed, "5 families x 20 draws: residuals, pairing, zero modes")


def test_criterion_05_figure2_data(tmp_path, capsys):
    start = time.perf_counter()
    path = write_model(
        tmp_path,
        {"model": "general_field", "j": "5/2", "params": {"a": 1.0, "b": 2.0, "c": 0.0}},
    )
    out_csv = tmp_path / "fig2.csv"
    code = cli.main([
        "--out", str(out_csv), "scan", str(path),
        "--param", "c", "--from", "-2", "--to", "2", "--steps", "81",
    ])
    capsys.readouterr()
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    header = "param,c," + ",".join(f"lambda_{i}" for i in range(1, 7)) + ",pairing_ok,max_pair_mismatch"
    assert lines[0] == header
    assert len(lines) == 1 + 81
    for line in lines[1:]:
        cells = line.split(",")
        c = float(cells[1])
        eigs = np.array([float(x) for x in cells[2:8]])
        rq = math.sqrt(5.0 + c * c)
        expected = np.sort([s * k * rq / 2.0 for k in (1, 3, 5) for s in (-1, 1)])
        assert np.max(np.abs(eigs - expected)) < 1e-9
        assert cells[8] == "true"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(5, elapsed, "81-point c scan at a=1, b=2")


def test_criterion_06_figure3_property():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    settings = [(1.0, 1.0, math.pi / 4.0)]
    for _ in range(2):
        settings.append(
            (rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0), rng.uniform(0.2, 1.4))
        )
    for delta, e_field, theta in settings:
        spec = OHMolecule(delta=delta, E=e_field, theta=theta)
        swept = list(models.iter_parameter_sweep(spec, "B", np.linspace(0.0, 2.0, 101)))
        assert len(swept) == 101
        r = composite_matrix(swept[0].chiral_partner, swept[0].dims)
        for built in swept:
            assert built.hamiltonian.shape == (8, 8)
            verdict = chiral.classify(r, built.hamiltonian)
            assert verdict.residual_anticommute < 1e-10
            eigs = linalg.hermitian_eigensolve(built.hamiltonian).eigenvalues
            tol = 1e-9 * max(1.0, linalg.frobenius(built.hamiltonian))
            assert chiral.pairing_check(eigs, tol).is_chiral_paired
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    _report(6, elapsed, "3 settings x 101-point field sweeps")


def test_criterion_07_rotation_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    for twice_j in range(0, 6):
        ops = build_spin_operators(SpinLabel(twice_j))
        for _ in range(100):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            a = rng.normal(size=3)
            theta = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
            assert rotation_identity_residual(n, a, theta, ops) < 1e-10
        if twice_j == 0:
            continue  # 1x1 zero operators leave nothing to classify
        for _ in range(10):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            a = rng.normal(size=3)
            a = a - np.dot(a, n) * n
            if np.linalg.norm(a) < 0.2:
                continue
            r = rotation_matrix(RotationSpec(0, tuple(n), math.pi), ops)
            verdict = chiral.classify(r, ops.along(a))
            assert verdict.kind is Symmetry.ANTICOMMUTING
            assert verdict.residual_anticommute < 1e-10
    _report(7, time.perf_counter() - start, "600 identity draws + pi specialization")


def test_criterion_08_symmetry_breaking_control():
    start = time.perf_counter()
    ops = build_spin_operators("1")
    built = models.build(CrossedFields("1", 1.0, 2.0))
    r = composite_matrix(built.chiral_partner, built.dims)
    jx2 = ops.jx @ ops.jx
    broken = built.hamiltonian + jx2
    verdict = chiral.classify(r, broken)
    assert verdict.residual_anticommute > 0.1
    parity_broken, _ = charpoly.parity_reduce(charpoly.characteristic_polynomial(broken))
    assert not parity_broken
    kept = built.hamiltonian + jx2 @ ops.jx
    verdict = chiral.classify(r, kept)
    assert verdict.kind is Symmetry.ANTICOMMUTING
    parity_kept, _ = charpoly.parity_reduce(charpoly.characteristic_polynomial(kept))
    assert parity_kept
    _report(8, time.perf_counter() - start, "Jx^2 breaks, Jx^3 preserves")


def test_criterion_09_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    layouts = ((2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2), (2, 3), (2, 4))
    axes = (X_AXIS, Y_AXIS, Z_AXIS)
    for _ in range(50):
        dims = layouts[int(rng.integers(len(layouts)))]
        # pi rotations square to a global phase, so the sandwich below is an
        # exact anticommuting construction for any Hermitian seed
        rot = CompositeRotation(
            tuple(
                RotationSpec(slot, axes[int(rng.integers(3))], math.pi)
                for slot in range(len(dims))
            )
        )
        c = composite_matrix(rot, dims)
        n = math.prod(dims)
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        seed = 0.5 * (g + g.conj().T)
        h = 0.5 * (seed - c @ seed @ c.conj().T)
        assert chiral.classify(c, h).residual_anticommute < 1e-12
        report = charpoly.full_solve(h)
        assert report.method is charpoly.SolveMethod.RADICALS
        assert len(report.closed_form_eigenvalues) == n
        assert report.max_root_deviation < 1e-8
    _report(9, time.perf_counter() - start, "50 sandwich Hamiltonians, dim <= 8")


def test_criterion_10_search_completeness(tmp_path, capsys):
    start = time.perf_counter()
    cases = [
        (
            {"model": "crossed_fields", "j": "1", "params": {"a": 1.0, "b": 2.0}},
            "R[0,z](pi)",
        ),
        (
            {"model": "triaxial_rotor", "j": "2",
             "params": {"ix": 1.0, "iy": 1.0 / 3.0, "iz": 0.5}},
            "R[0,z](pi/2)",
        ),
        (
            {"model": "toy_coupled", "j1": "1/2", "j2": "1/2",
             "params": {"A": 1.0, "B": 1.0}},
            "R[0,y](pi) * R[1,z](pi)",
        ),
        (
            {"model": "oh_molecule", "params": {"B": 0.5}},
            "R[0,x](pi) * R[1,y](pi)",
        ),
    ]
    for i, (doc, expected) in enumerate(cases):
        path = write_model(tmp_path, doc, name=f"case{i}.json")
        code = cli.main(["--format", "json", "search", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        hits = [hit["description"] for hit in json.loads(out)["hits"]]
        assert expected in hits
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(10, elapsed, "documented partners found for all four cases")

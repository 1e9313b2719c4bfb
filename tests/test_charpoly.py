import math

import numpy as np
import pytest

from chiralspin import charpoly, chiral, linalg, models
from chiralspin.angmom import SpinLabel, build_spin_operators
from chiralspin.charpoly import (
    MAX_POLY_DIM,
    CharPoly,
    ReducedPoly,
    SolveMethod,
    SpectrumInconsistencyError,
    characteristic_polynomial,
    classify_solvability,
    full_solve,
    parity_reduce,
    real_roots_closed_form,
    solve_reduced,
)
from chiralspin.models import CrossedFields, GeneralField, OHMolecule, ToyCoupled, TriaxialRotor
from chiralspin.rotations import composite_matrix

from helpers import (
    FAMILIES,
    chiral_model_at_dim,
    random_chiral_model,
    random_hermitian,
    reference_charpoly,
)


def test_charpoly_general_field_j1(rng):
    a, b, c = rng.uniform(-2.0, 2.0, size=3)
    q = a * a + b * b + c * c
    poly = characteristic_polynomial(models.build(GeneralField("1", a, b, c)).hamiltonian)
    assert poly.dim == 3
    assert np.allclose(poly.coeffs, (0.0, q, 0.0, -1.0), atol=1e-12 * max(1.0, q))


def test_charpoly_zero_matrix():
    assert characteristic_polynomial(np.zeros((2, 2))).coeffs == (0.0, 0.0, 1.0)


def test_charpoly_jz_j1():
    poly = characteristic_polynomial(build_spin_operators("1").jz)
    assert np.allclose(poly.coeffs, (0.0, 1.0, 0.0, -1.0), atol=1e-14)


def test_charpoly_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        characteristic_polynomial([[0.0, 1.0], [0.0, 0.0]])


def test_leading_coefficient_is_parity_sign(rng):
    for dim in range(1, 9):
        poly = characteristic_polynomial(random_hermitian(rng, dim))
        assert poly.coeffs[-1] == (-1.0) ** dim


def test_coefficients_match_trace_and_determinant(rng):
    for dim in range(1, 9):
        h = random_hermitian(rng, dim)
        poly = characteristic_polynomial(h)
        sign = (-1.0) ** (dim - 1)
        assert poly.coeffs[dim - 1] == pytest.approx(
            sign * np.trace(h).real, rel=1e-9, abs=1e-9
        )
        assert poly.coeffs[0] == pytest.approx(
            np.linalg.det(h).real, rel=1e-9, abs=1e-9
        )


def test_polynomial_vanishes_at_numeric_eigenvalues(rng):
    for _ in range(5):
        h = models.build(random_chiral_model(rng, "general_field")).hamiltonian
        poly = characteristic_polynomial(h)
        scale = max(abs(c) for c in poly.coeffs)
        for lam in linalg.hermitian_eigensolve(h).eigenvalues:
            assert abs(np.polyval(poly.coeffs[::-1], lam)) < 1e-8 * scale * max(1.0, abs(lam)) ** poly.dim


def test_parity_reduce_j1():
    poly = characteristic_polynomial(models.build(GeneralField("1", 1.0, 2.0, 2.0)).hamiltonian)
    ok, reduced = parity_reduce(poly)
    assert ok
    assert reduced.zero_root_multiplicity == 1
    assert np.allclose(reduced.mu_coeffs, (9.0, -1.0), atol=1e-12)


def test_parity_reduce_j52_printed_coefficients(rng):
    a, b, c = rng.uniform(-2.0, 2.0, size=3)
    q = a * a + b * b + c * c
    poly = characteristic_polynomial(models.build(GeneralField("5/2", a, b, c)).hamiltonian)
    ok, reduced = parity_reduce(poly)
    assert ok
    assert reduced.zero_root_multiplicity == 0
    expected = (-225.0 * q**3 / 64.0, 259.0 * q**2 / 16.0, -35.0 * q / 4.0, 1.0)
    for got, want in zip(reduced.mu_coeffs, expected):
        assert got == pytest.approx(want, rel=1e-9)


def test_parity_reduce_synthetic_even_poly():
    ok, reduced = parity_reduce(CharPoly((1.0, 0.0, 1.0)))
    assert ok
    assert reduced.zero_root_multiplicity == 0
    assert reduced.mu_coeffs == (1.0, 1.0)


@pytest.mark.parametrize(
    "family",
    ("crossed_fields", "crossed_fields_shifted", "general_field",
     "triaxial_rotor", "toy_coupled", "oh_molecule"),
)
def test_parity_holds_for_chiral_families(family, rng):
    for _ in range(20):
        built = models.build(random_chiral_model(rng, family, max_twice_j=6, coupled_max=3))
        shifted = models.shifted_hamiltonian(built)
        assert full_solve(shifted).parity_ok


def test_parity_fails_after_even_perturbation():
    ops = build_spin_operators("1")
    h = models.build(CrossedFields("1", 1.0, 2.0)).hamiltonian + ops.jx @ ops.jx
    ok, _ = parity_reduce(characteristic_polynomial(h))
    assert not ok


def test_reduced_polynomial_reconstructs(rng):
    for family in ("crossed_fields", "general_field", "toy_coupled"):
        poly = characteristic_polynomial(
            models.shifted_hamiltonian(models.build(random_chiral_model(rng, family)))
        )
        ok, reduced = parity_reduce(poly)
        assert ok
        rebuilt = np.zeros(len(poly.coeffs))
        rebuilt[reduced.zero_root_multiplicity::2] = reduced.mu_coeffs
        scale = max(abs(c) for c in poly.coeffs)
        assert max(abs(x - y) for x, y in zip(rebuilt, poly.coeffs)) <= 1e-9 * scale


def test_solve_reduced_printed_cubic():
    reduced = ReducedPoly(0, (-225.0 / 64.0, 259.0 / 16.0, -35.0 / 4.0, 1.0))
    assert np.allclose(solve_reduced(reduced), (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5), atol=1e-12)


def test_solve_reduced_linear_with_zero_mode():
    assert np.allclose(solve_reduced(ReducedPoly(1, (9.0, -1.0))), (-3.0, 0.0, 3.0), atol=1e-14)


def test_solve_reduced_double_zero():
    assert solve_reduced(ReducedPoly(0, (0.0, 1.0))) == (0.0, 0.0)


def test_solve_reduced_negative_root_raises():
    with pytest.raises(SpectrumInconsistencyError, match="negative"):
        solve_reduced(ReducedPoly(0, (1.0, 1.0)))


def test_solve_reduced_degree_limit():
    with pytest.raises(ValueError, match="degree"):
        solve_reduced(ReducedPoly(0, (1.0, 0.0, 0.0, 0.0, 0.0, 1.0)))


def test_closed_form_roots_random_polynomials(rng):
    for degree in (1, 2, 3, 4):
        for _ in range(25):
            roots = np.sort(rng.uniform(-5.0, 5.0, size=degree))
            coeffs = np.poly(roots)[::-1]
            got = real_roots_closed_form(coeffs)
            scale = max(1.0, np.max(np.abs(roots)) ** degree)
            assert len(got) == degree
            assert np.allclose(got, roots, atol=1e-7 * scale)


def test_closed_form_roots_with_multiplicity():
    # (x - 1)^2 (x + 2): double root kept with multiplicity
    coeffs = np.poly([1.0, 1.0, -2.0])[::-1]
    got = real_roots_closed_form(coeffs)
    assert np.allclose(got, [-2.0, 1.0, 1.0], atol=1e-6)


def test_classify_solvability_table():
    assert classify_solvability(6, chiral=True) is SolveMethod.RADICALS
    assert classify_solvability(3, chiral=True) is SolveMethod.RADICALS
    assert classify_solvability(9, chiral=True) is SolveMethod.RADICALS
    assert classify_solvability(10, chiral=True) is SolveMethod.HYPERGEOMETRIC_REQUIRED
    assert classify_solvability(11, chiral=True) is SolveMethod.HYPERGEOMETRIC_REQUIRED
    assert classify_solvability(12, chiral=True) is SolveMethod.NUMERIC_ONLY
    assert classify_solvability(4, chiral=False) is SolveMethod.RADICALS
    assert classify_solvability(5, chiral=False) is SolveMethod.HYPERGEOMETRIC_REQUIRED
    assert classify_solvability(6, chiral=False) is SolveMethod.NUMERIC_ONLY
    with pytest.raises(ValueError):
        classify_solvability(0, chiral=True)


def test_full_solve_j52_closed_form():
    built = models.build(GeneralField("5/2", 1.0, 2.0, 0.0))
    report = full_solve(built.hamiltonian)
    assert report.method is SolveMethod.RADICALS
    root_q = math.sqrt(5.0)
    expected = sorted(s * k * root_q / 2.0 for k in (1, 3, 5) for s in (1, -1))
    assert np.allclose(report.closed_form_eigenvalues, expected, atol=1e-9)
    assert report.max_root_deviation < 1e-9


def test_full_solve_zero_dim5():
    report = full_solve(np.zeros((5, 5)))
    assert report.closed_form_eigenvalues == (0.0,) * 5
    assert report.numeric_eigenvalues == (0.0,) * 5


def test_full_solve_one_dimensional():
    # a 1x1 chiral Hamiltonian can only be zero
    report = full_solve(np.zeros((1, 1)))
    assert report.parity_ok
    assert report.closed_form_eigenvalues == (0.0,)
    report = full_solve(np.array([[2.0]]))
    assert report.closed_form_eigenvalues == (2.0,)


def test_full_solve_oh_quartic():
    built = models.build(OHMolecule(B=0.3))
    partner = composite_matrix(built.chiral_partner, built.dims)
    report = full_solve(built.hamiltonian, partner=partner)
    assert report.charpoly.dim == 8
    assert report.parity_ok
    assert report.method is SolveMethod.RADICALS
    assert report.max_root_deviation < 1e-8


def test_full_solve_nonchiral_small_dims(rng):
    for dim in (2, 3, 4):
        h = random_hermitian(rng, dim)
        report = full_solve(h)
        assert not report.parity_ok
        assert report.method is SolveMethod.RADICALS
        assert report.max_root_deviation < 1e-8 * max(1.0, linalg.frobenius(h))


def test_full_solve_nonchiral_degree_five(rng):
    report = full_solve(random_hermitian(rng, 5))
    assert report.method is SolveMethod.HYPERGEOMETRIC_REQUIRED
    assert report.closed_form_eigenvalues is None


def test_full_solve_nonchiral_large_dim(rng):
    report = full_solve(random_hermitian(rng, 6))
    assert report.method is SolveMethod.NUMERIC_ONLY
    assert report.closed_form_eigenvalues is None


def test_root_set_equivalence_across_chiral_models(rng):
    cases = []
    for twice_j in range(1, 9):
        a, b, c = rng.uniform(-2.0, 2.0, size=3)
        cases.append(models.build(GeneralField(SpinLabel(twice_j), a, b, c)))
    cases.append(models.build(ToyCoupled("1/2", "3/2", 0.7, -1.2)))
    cases.append(models.build(OHMolecule(B=1.3)))
    cases.append(models.build(TriaxialRotor("2", 1.0, 1.0 / 3.0, 0.5)))
    for built in cases:
        shifted = models.shifted_hamiltonian(built)
        partner = composite_matrix(built.chiral_partner, built.dims)
        report = full_solve(shifted, partner=partner)
        assert report.method is SolveMethod.RADICALS
        assert report.max_root_deviation < 1e-8 * max(1.0, linalg.frobenius(shifted))


def test_max_poly_dim_keeps_coefficients_within_tolerance():
    # the benchmark checks coefficients up to dim 13; measured worst shares of
    # the tolerance: ~2.5% at dims 12-13, over 100% at dim 14
    assert MAX_POLY_DIM >= 13
    rng = np.random.default_rng(1313)
    worst = 0.0
    for dim in range(1, MAX_POLY_DIM + 1):
        for family in FAMILIES:
            for _ in range(10):
                spec = chiral_model_at_dim(rng, family, dim)
                if spec is None:
                    continue
                shifted = models.shifted_hamiltonian(models.build(spec))
                report = full_solve(shifted)
                eigs = np.linalg.eigvalsh(shifted)
                tol = chiral.default_pairing_tol(shifted)
                # parity and zero roots follow the eigvalsh spectrum at the
                # default pairing tolerance, the rule verify and scan use
                assert report.parity_ok == bool(np.all(np.abs(eigs + eigs[::-1]) < tol))
                assert report.zero_root_multiplicity == int(np.sum(np.abs(eigs) < tol))
                want, coeff_tol = reference_charpoly(eigs)
                worst = max(worst, float(np.max(np.abs(np.array(report.charpoly.coeffs) - want) / coeff_tol)))
    assert worst < 0.1


def test_full_solve_builds_at_most_one_polynomial(monkeypatch, rng):
    calls = []
    original = charpoly.characteristic_polynomial

    def counting(h):
        calls.append(h.shape[0])
        return original(h)

    monkeypatch.setattr(charpoly, "characteristic_polynomial", counting)
    for h, expected in (
        (3.0 * random_hermitian(rng, 6), 1),
        (models.build(GeneralField("5/2", 1.0, 2.0, 0.5)).hamiltonian, 1),
        (np.zeros((4, 4)), 1),
        (random_hermitian(rng, MAX_POLY_DIM + 1), 0),
    ):
        calls.clear()
        full_solve(h)
        assert len(calls) == expected


def test_full_solve_many_zero_modes_still_radicals():
    # two 2x2 blocks in dim 12 leave 8 zero modes and effective degree 2:
    # zero modes make the route radicals above dim 11
    h = np.zeros((12, 12), dtype=complex)
    h[0, 1] = h[1, 0] = 1.0
    h[2, 3] = h[3, 2] = 2.0
    report = full_solve(h)
    assert report.parity_ok and report.zero_root_multiplicity == 8
    assert report.method is SolveMethod.RADICALS
    assert np.allclose(report.closed_form_eigenvalues, [-2, -1] + [0] * 8 + [1, 2], atol=1e-12)


def test_full_solve_rejects_anticommuting_partner_of_unpaired_spectrum(rng):
    h = random_hermitian(rng, 4)
    with pytest.raises(SpectrumInconsistencyError, match="not mirror-paired"):
        # the zero operator classifies as "both" against any H
        full_solve(h, partner=np.zeros((4, 4)))
    assert not full_solve(h, partner=np.eye(4)).parity_ok

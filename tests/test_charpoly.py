import dataclasses
import math
import sys

import numpy as np
import pytest

from chiralspin import charpoly, chiral, linalg, models
from chiralspin.angmom import SpinLabel, build_spin_operators
from chiralspin.charpoly import (
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
    faddeev_leverrier_charpoly,
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


def test_tridiagonal_recurrence_matches_trace_recursion(rng):
    # the trace-recursion oracle holds its coefficients to tolerance up to dim 13
    for dim in range(1, 14):
        for scale in (1e-3, 1.0, 1e3):
            h = random_hermitian(rng, dim)
            h *= scale / linalg.frobenius(h)
            _, tol = reference_charpoly(np.linalg.eigvalsh(h))
            got = np.array(characteristic_polynomial(h).coeffs)
            assert np.all(np.abs(got - faddeev_leverrier_charpoly(h).coeffs) <= tol), (dim, scale)


@pytest.mark.parametrize("h, coeffs", [
    # ||x||^2 = 2e-316 is subnormal; a reflector scaled by it overflowed
    ([[1.0, 1e-158, 1e-158j], [1e-158, 0.5, 0.0], [-1e-158j, 0.0, -1.0]], (-0.5, 1.0, 0.5, -1.0)),
    # max |x| = 1e-320 is subnormal, and numpy divides complex by its reciprocal
    ([[1.0, 1e-320j, 1e-320], [-1e-320j, 0.5, 0.5j], [1e-320, -0.5j, -1.0]], (-0.75, 1.25, 0.5, -1.0)),
])
def test_charpoly_column_of_subnormal_norm(h, coeffs):
    assert characteristic_polynomial(np.array(h)).coeffs == pytest.approx(coeffs, abs=1e-15)


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


@pytest.mark.parametrize("roots", [
    [1.0, 1.0], [-2.0, 1.0, 1.0], [0.5, 0.5, 0.5], [0.3, 0.3, 0.3, 0.3], [-1.0, -1.0, 2.0, 2.0],
])
def test_closed_form_split_multiple_roots_keep_their_mean(roots):
    # a relative coefficient error of 1e-12 splits a root of multiplicity m
    # by about 1e-12^(1/m), often into complex pairs; their real parts keep
    # the sum of the roots exact
    coeffs = np.poly(roots)[::-1] * (1.0 + 1e-12 * np.arange(1, len(roots) + 2))
    got = real_roots_closed_form(coeffs)
    assert len(got) == len(roots)
    assert sum(got) == pytest.approx(-coeffs[-2] / coeffs[-1], abs=1e-12)
    assert np.allclose(got, roots, atol=1e-2)


def test_closed_form_complex_pair_gives_its_real_part():
    assert real_roots_closed_form([1.0, 0.0, 1.0]) == [0.0, 0.0]
    assert real_roots_closed_form([5.0, -2.0, 1.0]) == [1.0, 1.0]


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


COEFFICIENT_DIMS = (*range(1, 62), 81, 121)


def test_coefficients_within_tolerance_at_every_size():
    # measured worst share of the tolerance on these draws: below 1% at
    # every dim; the trace recursion this replaced was past 100% at dim 14
    rng = np.random.default_rng(1313)
    worst = 0.0
    for dim in COEFFICIENT_DIMS:
        for family in FAMILIES:
            for _ in range(10 if dim <= 13 else 2):
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
                if math.fsum(np.log1p(np.abs(eigs))) > math.log(sys.float_info.max):
                    # prod(1 + |lambda|) leaves the double range: rotors from dim 121
                    assert report.charpoly is None
                    continue
                want, coeff_tol = reference_charpoly(eigs)
                worst = max(worst, float(np.max(np.abs(np.array(report.charpoly.coeffs) - want) / coeff_tol)))
    assert worst < 0.01


def test_closed_forms_on_kramers_degenerate_rotors():
    # half-integer rotors have doubly degenerate spectra, so every mu root
    # is double; the trace recursion's roots missed 1e-9 on 71 of these
    rng = np.random.default_rng(450)
    for twice_j in (3, 5, 7):
        for _ in range(150):
            spec = dataclasses.replace(random_chiral_model(rng, "triaxial_rotor"), j=SpinLabel(twice_j))
            shifted = models.shifted_hamiltonian(models.build(spec))
            report = full_solve(shifted)
            assert report.method is SolveMethod.RADICALS
            closed = np.array(report.closed_form_eigenvalues)
            scale = max(1.0, linalg.frobenius(shifted))
            assert np.max(np.abs(closed - np.linalg.eigvalsh(shifted))) <= 1e-9 * scale, spec


def _paired_spectrum_draw(seed):
    """(H, ascending spectrum): +-|lambda| pairs with repeated magnitudes and
    zero modes at dims 1-13, of norm 1e-6 to 1e6, in a random unitary frame."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 14))
    zeros = dim % 2
    if rng.random() < 0.3:
        zeros += 2 * int(rng.integers(0, dim // 2 + 1))
    pairs = (dim - zeros) // 2
    distinct = rng.uniform(0.1, 1.0, size=int(rng.integers(1, max(1, pairs) + 1)))
    mags = rng.choice(distinct, size=pairs)
    spectrum = np.sort(np.concatenate([mags, -mags, np.zeros(zeros)])) * 10.0 ** rng.uniform(-6, 6)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    h = (u * spectrum) @ u.conj().T
    return 0.5 * (h + h.conj().T), spectrum


def test_closed_form_fuzz_on_repeated_magnitudes():
    # with the trace recursion and no cluster means, 218 of these 3,000
    # missed 1e-9 max(1, ||H||_F), were wrong or raised
    misses = {}
    for seed in range(3000):
        h, spectrum = _paired_spectrum_draw(seed)
        closed = full_solve(h).closed_form_eigenvalues
        if closed is not None:
            dev = float(np.max(np.abs(np.array(closed) - spectrum))) / max(1.0, linalg.frobenius(h))
            if dev > 1e-9:
                misses[seed] = dev
    assert misses == {}


@pytest.mark.parametrize("norm", [1e-6, 1.0, 1e3])
def test_closed_forms_on_a_chain_of_eigenvalues_spaced_under_tol(norm, rng):
    # four eigenvalues 0.9 tol apart form one cluster, whose mean moves the
    # outer two by 1.35 tol; cutting the chain at a span of tol instead gave
    # 0.45 tol at norm 1e-6 but up to 7 tol at 1e3 and 4e4 tol at unit norm
    # in five random frames, as the closed forms of so close a quartet split
    tol = 1e-9 * max(1.0, norm)
    spec = 0.5 * norm + 0.9 * tol * np.arange(4)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    h = (q * spec) @ q.conj().T
    report = full_solve(0.5 * (h + h.conj().T))
    assert report.method is SolveMethod.RADICALS
    assert np.max(np.abs(np.array(report.closed_form_eigenvalues) - spec)) <= 1.5 * tol


def test_polynomial_is_none_only_above_the_coefficient_bound():
    # prod(1 + |lambda|) ~ 1e320 here: no coefficient is built, so no route
    # to radicals either
    huge = 1e80 * np.diag([1.0, -1.0, 2.0, -2.0])
    report = full_solve(huge)
    assert report.charpoly is None and report.reduced is None
    assert report.method is SolveMethod.NUMERIC_ONLY and report.closed_form_eigenvalues is None
    # ~1e300 still fits, and the exact power-of-two rescale keeps it finite
    report = full_solve(1e75 * np.diag([1.0, -1.0, 2.0, -2.0]))
    assert report.charpoly.coeffs[0] == pytest.approx(4e300, rel=1e-12)
    assert report.method is SolveMethod.RADICALS
    # an H of subnormal entries is scaled up by 2^1029 without overflow;
    # its coefficients below the leading one underflow to zero
    report = full_solve(1e-310 * build_spin_operators("1").jz)
    assert report.charpoly.coeffs == (0.0, 0.0, 0.0, -1.0)
    assert report.closed_form_eigenvalues == (0.0,) * 3


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
        (random_hermitian(rng, 14), 1),
        (1e100 * random_hermitian(rng, 4), 0),
    ):
        calls.clear()
        full_solve(h)
        assert len(calls) == expected


@pytest.mark.parametrize("solve", [full_solve, lambda h: linalg.unitary_exp(h, 1.0)],
                         ids=["full_solve", "unitary_exp"])
@pytest.mark.parametrize("bad, message", [
    ([[np.nan, 0.0], [0.0, 0.0]], "matrix entries must be finite"),
    (np.zeros((2, 3)), r"expected a square matrix, got shape \(2, 3\)"),
    ([[0.0, 1.0], [0.0, 0.0]], r"matrix is not Hermitian \(defect "),
], ids=["nan", "non-square", "non-hermitian"])
def test_full_solve_and_unitary_exp_reject_bad_input(solve, bad, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        solve(bad)


def test_full_solve_report_does_not_depend_on_the_input_type(rng):
    paired = models.build(CrossedFields("3/2", 0.7, 0.0)).hamiltonian.real
    unpaired = rng.normal(size=(4, 4))
    for h in (paired, unpaired + unpaired.T):
        assert h.dtype == np.float64
        report = full_solve(h.astype(np.complex128))
        assert full_solve(h) == report
        assert full_solve(h.tolist()) == report


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

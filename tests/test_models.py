import dataclasses
import json
import math

import numpy as np
import pytest

from chiralspin import linalg, models
from chiralspin.angmom import SpinLabel, build_spin_operators
from chiralspin.chiral import Symmetry, classify, pairing_check
from chiralspin.models import (
    CrossedFields,
    CrossedFieldsShifted,
    GeneralField,
    OHMolecule,
    ToyCoupled,
    TriaxialRotor,
)
from chiralspin.rotations import composite_matrix

from helpers import FAMILIES, expected_general_field_j52, random_chiral_model


def test_general_field_j1_matrix():
    a, b, c = 0.7, -1.3, 2.1
    built = models.build(GeneralField("1", a, b, c))
    s = 1.0 / math.sqrt(2.0)
    expected = np.array(
        [
            [c, s * (a - 1j * b), 0.0],
            [s * (a + 1j * b), 0.0, s * (a - 1j * b)],
            [0.0, s * (a + 1j * b), -c],
        ]
    )
    assert np.max(np.abs(built.hamiltonian - expected)) < 1e-15


def test_general_field_j52_matrix(rng):
    for _ in range(5):
        a, b, c = rng.uniform(-3.0, 3.0, size=3)
        built = models.build(GeneralField("5/2", a, b, c))
        expected = expected_general_field_j52(a, b, c)
        assert np.max(np.abs(built.hamiltonian - expected)) < 1e-13


def test_crossed_fields_half_spin_matrix():
    built = models.build(CrossedFields("1/2", 1.0, 2.0))
    expected = 0.5 * np.array([[0.0, 1.0 - 2.0j], [1.0 + 2.0j, 0.0]])
    assert np.array_equal(built.hamiltonian, expected)


def test_triaxial_condition_met_example():
    # 1/Ix + 1/Iy = 1 + 3 = 4 = 2/Iz, D = (1/Ix - 1/Iz)/2 = -1/2, C2 = 6
    built = models.build(TriaxialRotor("2", 1.0, 1.0 / 3.0, 0.5))
    assert built.chiral_condition_met
    assert built.shift == pytest.approx(6.0, abs=1e-12)
    ops = build_spin_operators("2")
    expected = -0.5 * (ops.jx @ ops.jx - ops.jy @ ops.jy)
    assert np.max(np.abs(models.shifted_hamiltonian(built) - expected)) < 1e-12
    r = composite_matrix(built.chiral_partner, built.dims)
    verdict = classify(r, models.shifted_hamiltonian(built))
    assert verdict.kind is Symmetry.ANTICOMMUTING


def test_triaxial_condition_unmet():
    built = models.build(TriaxialRotor("2", 1.0, 2.0, 1.0))
    assert not built.chiral_condition_met
    assert built.chiral_partner is None
    assert "1/Ix" in built.condition_note


def test_triaxial_rejects_nonpositive_inertia():
    with pytest.raises(ValueError, match="positive"):
        TriaxialRotor("1", 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        TriaxialRotor("1", 0.0, 1.0, 1.0)


def test_rejects_non_finite_parameters():
    with pytest.raises(ValueError, match="finite"):
        CrossedFields("1", float("nan"), 1.0)


@pytest.mark.parametrize("cls", list(models.MODEL_TAGS.values()), ids=list(models.MODEL_TAGS))
def test_every_spec_rejects_boolean_and_non_finite_parameters(cls):
    assert issubclass(cls, models.ModelSpec)
    spins = {name: "1" for name in ("j", "j1", "j2") if name in cls.__dataclass_fields__}
    names = models.parameter_names(cls)
    for name in names:
        for bad, message in ((True, "must be a number"), (float("nan"), "must be finite"),
                             (-math.inf, "must be finite"), (10**400, "must be finite")):
            kwargs = {**spins, **{n: 1.0 for n in names}, name: bad}
            with pytest.raises(ValueError, match=f"parameter {name!r} {message}"):
                cls(**kwargs)


def test_shifted_hamiltonian_identity_when_no_shift():
    built = models.build(CrossedFields("1", 0.4, 0.9))
    assert built.shift == 0.0
    assert np.array_equal(models.shifted_hamiltonian(built), built.hamiltonian)


def test_shifted_crossed_fields_reduces_to_plain():
    shifted = models.build(CrossedFieldsShifted("1", 1.0, 2.0, 3.0))
    plain = models.build(CrossedFields("1", 1.0, 2.0))
    assert shifted.shift == pytest.approx(6.0)
    assert np.max(np.abs(models.shifted_hamiltonian(shifted) - plain.hamiltonian)) < 1e-12


def test_triaxial_shifted_is_quadrupole_difference(rng):
    spec = random_chiral_model(rng, "triaxial_rotor")
    built = models.build(spec)
    ops = build_spin_operators(spec.j)
    d = 0.5 * (1.0 / spec.ix - 1.0 / spec.iz)
    expected = d * (ops.jx @ ops.jx - ops.jy @ ops.jy)
    assert np.max(np.abs(models.shifted_hamiltonian(built) - expected)) < 1e-12


def test_shift_moves_whole_spectrum():
    shifted = models.build(CrossedFieldsShifted("3/2", 0.8, -0.3, 0.7))
    plain = models.build(CrossedFields("3/2", 0.8, -0.3))
    c1 = 0.7 * 1.5 * 2.5
    es = linalg.hermitian_eigensolve(shifted.hamiltonian).eigenvalues
    ep = linalg.hermitian_eigensolve(plain.hamiltonian).eigenvalues
    assert np.max(np.abs(es - (ep + c1))) < 1e-10


def test_triaxial_hamiltonian_adds_the_shift_back(rng):
    for spec in (random_chiral_model(rng, "triaxial_rotor"), TriaxialRotor("3/2", 0.4, 1.3, 2.2)):
        built = models.build(spec)
        ops = build_spin_operators(spec.j)
        expected = (ops.jx @ ops.jx / (2.0 * spec.ix) + ops.jy @ ops.jy / (2.0 * spec.iy)
                    + ops.jz @ ops.jz / (2.0 * spec.iz))
        assert np.max(np.abs(built.hamiltonian - expected)) < 1e-12 * linalg.frobenius(expected)
        assert built.chiral_condition_met is (built.chiral_partner is not None)
        assert built.dims == (spec.j.dim,)


@pytest.mark.parametrize("twice_j", [1, 2, 3, 64, 1023])
def test_vanishing_chiral_part_is_exactly_zero(twice_j):
    # the spherical rotor and c J^2 alone are pure shifts at every size
    label = SpinLabel(twice_j)
    for spec in (TriaxialRotor(label, 0.7, 0.7, 0.7), CrossedFieldsShifted(label, 0.0, 0.0, 1.3)):
        built = models.build(spec)
        assert built.shift > 0.0
        assert not models.shifted_hamiltonian(built).any()


def test_shift_above_the_norm_limit_is_refused():
    with pytest.raises(ValueError, match=r"\|shift\| 2\.000e\+307, above the limit"):
        models.build(CrossedFieldsShifted("1", 1.0, 0.0, -1e307))
    # 1/2Iz overflows to inf; the shift is refused before any matrix product
    with pytest.raises(ValueError, match=r"\|shift\| inf, above the limit"):
        models.build(TriaxialRotor("5/2", 1.0, 1.0, 5e-324))


@pytest.mark.parametrize("j, ix, iy, iz, name", [
    ("5/2", 5e-324, 1.0, 1.0, "ix"),
    ("5/2", 1e-310, 1.0, 1.0, "ix"),
    ("5/2", 1e-308, 1.0, 1.0, "ix"),  # 1/2Ix is finite, Jx^2 times it is not
    ("5/2", 1.0, 5e-324, 1.0, "iy"),
    ("1/2", 1.0, 1e-310, 1.0, "iy"),
    ("0", 5e-324, 1.0, 1.0, "ix"),
    ("0", 1.0, 1.0, 5e-324, "iz"),  # the shift is 0 at j = 0
])
def test_overflowing_moment_of_inertia_names_the_parameter(j, ix, iy, iz, name):
    # warnings are errors here, so a nan or inf product would fail first
    with pytest.raises(ValueError, match=rf"^parameter '{name}' = .* is too small: 1/2{name} = "):
        models.build(TriaxialRotor(j, ix, iy, iz))


@pytest.mark.parametrize("twice_j", [1, 2, 3, 5, 14])
def test_rotor_refused_as_too_small_is_above_the_norm_limit(twice_j):
    # the coefficient check refuses only rotors whose H - shift is above
    # linalg.MAX_NORM: rebuild each refused one at 2^-600 scale and measure it
    jj = twice_j * (twice_j + 2) / 4.0
    ops = build_spin_operators(SpinLabel(twice_j))
    x2, y2 = ops.jx @ ops.jx, ops.jy @ ops.jy
    iz_min = jj / (2.0 * linalg.MAX_NORM) * 1.001  # the smallest iz the shift allows
    edge = jj / 2.0 ** 1023  # where 1/2I j(j+1) reaches 2^1022
    refused = 0
    for factor in (0.5, 0.999, 1.001, 1.5, 2.0 ** 4, 2.0 ** 10):
        for iz in (iz_min, 1.0):
            for ix, iy in ((edge * factor, 1.0), (edge * factor, iz), (1.0, edge * factor)):
                try:
                    # numpy warns of the sum of squares that frobenius rescales
                    with np.errstate(over="ignore"):
                        models.build(TriaxialRotor(SpinLabel(twice_j), ix, iy, iz))
                    continue
                except ValueError as exc:
                    if "too small" not in str(exc):
                        continue
                refused += 1
                s = 2.0 ** -600
                k = (s / (2 * ix) - s / (2 * iz)) * x2 + (s / (2 * iy) - s / (2 * iz)) * y2
                assert linalg.frobenius(k) / s > linalg.MAX_NORM
    assert refused >= 12


@pytest.mark.parametrize("family", FAMILIES)
def test_hamiltonians_are_hermitian(family, rng):
    for _ in range(5):
        built = models.build(random_chiral_model(rng, family))
        defect = linalg.frobenius(built.hamiltonian - built.hamiltonian.conj().T)
        assert defect <= 1e-12 * max(1.0, linalg.frobenius(built.hamiltonian))


@pytest.mark.parametrize(
    "family",
    ("crossed_fields", "crossed_fields_shifted", "general_field",
     "triaxial_rotor", "toy_coupled", "oh_molecule"),
)
def test_documented_partner_anticommutes(family, rng):
    for _ in range(20):
        built = models.build(random_chiral_model(rng, family))
        assert built.chiral_condition_met
        shifted = models.shifted_hamiltonian(built)
        r = composite_matrix(built.chiral_partner, built.dims)
        anti = linalg.anticommutator(r, shifted)
        assert linalg.frobenius(anti) < 1e-10 * max(1.0, linalg.frobenius(built.hamiltonian))


@pytest.mark.parametrize("twice_j", range(0, 11))
def test_single_spin_partners_every_j(twice_j, rng):
    label = SpinLabel(twice_j)
    for _ in range(20):
        a, b, c = rng.uniform(-2.0, 2.0, size=3)
        for built in (
            models.build(CrossedFields(label, a, b)),
            models.build(CrossedFieldsShifted(label, a, b, c)),
            models.build(GeneralField(label, a, b, c)),
        ):
            shifted = models.shifted_hamiltonian(built)
            r = composite_matrix(built.chiral_partner, built.dims)
            anti = linalg.anticommutator(r, shifted)
            assert linalg.frobenius(anti) < 1e-10 * max(1.0, linalg.frobenius(built.hamiltonian))


@pytest.mark.parametrize("twice_j", range(0, 11))
def test_triaxial_partner_every_j(twice_j, rng):
    for _ in range(3):
        ix, iy = rng.uniform(0.2, 2.0, size=2)
        built = models.build(
            TriaxialRotor(SpinLabel(twice_j), ix, iy, 2.0 / (1.0 / ix + 1.0 / iy))
        )
        assert built.chiral_condition_met
        shifted = models.shifted_hamiltonian(built)
        r = composite_matrix(built.chiral_partner, built.dims)
        anti = linalg.anticommutator(r, shifted)
        assert linalg.frobenius(anti) < 1e-10 * max(1.0, linalg.frobenius(built.hamiltonian))


def test_coupled_partners_every_j_pair(rng):
    for tj1 in range(0, 11):
        for tj2 in range(0, 11):
            toy = models.build(
                ToyCoupled(SpinLabel(tj1), SpinLabel(tj2),
                           rng.uniform(-2, 2), rng.uniform(-2, 2))
            )
            oh = models.build(
                OHMolecule(SpinLabel(tj1), SpinLabel(tj2),
                           rng.uniform(0.2, 2.0), rng.uniform(0.0, 2.0),
                           rng.uniform(0.2, 2.0), rng.uniform(0.1, 1.4))
            )
            for built in (toy, oh):
                r = composite_matrix(built.chiral_partner, built.dims)
                anti = linalg.anticommutator(r, built.hamiltonian)
                assert linalg.frobenius(anti) < 1e-10 * max(
                    1.0, linalg.frobenius(built.hamiltonian)
                )


def test_cubic_perturbation_keeps_symmetry():
    ops = build_spin_operators("1")
    built = models.build(CrossedFields("1", 1.0, 2.0))
    r = composite_matrix(built.chiral_partner, built.dims)
    jx3 = ops.jx @ ops.jx @ ops.jx
    assert classify(r, built.hamiltonian + jx3).kind is Symmetry.ANTICOMMUTING


def test_square_perturbation_breaks_symmetry():
    ops = build_spin_operators("1")
    built = models.build(CrossedFields("1", 1.0, 2.0))
    r = composite_matrix(built.chiral_partner, built.dims)
    verdict = classify(r, built.hamiltonian + ops.jx @ ops.jx)
    assert verdict.kind is Symmetry.NEITHER
    assert verdict.residual_anticommute > 0.1


@pytest.mark.parametrize("family", FAMILIES)
def test_shifted_hamiltonians_are_traceless(family, rng):
    built = models.build(random_chiral_model(rng, family))
    shifted = models.shifted_hamiltonian(built)
    assert abs(np.trace(shifted)) <= 1e-9 * max(1.0, linalg.frobenius(shifted))


def test_parameter_sweep_grid():
    spec = GeneralField("5/2", 1.0, 2.0, 0.0)
    swept = models.parameter_sweep(spec, "c", np.linspace(-2.0, 2.0, 81))
    assert len(swept) == 81
    assert all(b.hamiltonian.shape == (6, 6) for b in swept)
    assert swept[0].spec.c == -2.0
    assert swept[-1].spec.c == 2.0


def test_parameter_sweep_empty():
    assert models.parameter_sweep(GeneralField("1", 1.0, 2.0, 3.0), "c", []) == []


def test_parameter_sweep_unknown_name():
    with pytest.raises(ValueError, match="unknown parameter"):
        models.parameter_sweep(GeneralField("1", 1.0, 2.0, 3.0), "d", [0.0])
    with pytest.raises(ValueError, match="unknown parameter"):
        models.parameter_sweep(GeneralField("1", 1.0, 2.0, 3.0), "j", [0.0])


@pytest.mark.parametrize("family", FAMILIES)
def test_parameter_sweep_equals_build_of_each_value(family, rng):
    spec = random_chiral_model(rng, family, max_twice_j=6, coupled_max=3)
    for name in models.parameter_names(spec):
        value = getattr(spec, name)
        values = [value, 0.5 * value + 0.25, 2.0 * value]
        for swept, v in zip(models.parameter_sweep(spec, name, values), values, strict=True):
            built = models.build(dataclasses.replace(spec, **{name: v}))
            assert swept.spec == built.spec
            assert swept.shifted.tobytes() == built.shifted.tobytes()
            assert (swept.shift, swept.chiral_partner, swept.condition_note) == (
                built.shift, built.chiral_partner, built.condition_note)


def test_oh_field_sweep_stays_paired():
    swept = models.parameter_sweep(OHMolecule(), "B", np.linspace(0.0, 2.0, 11))
    for built in swept:
        eig = linalg.hermitian_eigensolve(built.hamiltonian)
        tol = 1e-9 * max(1.0, linalg.frobenius(built.hamiltonian))
        assert pairing_check(eig.eigenvalues, tol).is_chiral_paired


def test_parse_model_documents():
    docs = [
        {"model": "crossed_fields", "j": "3/2", "params": {"a": 1.0, "b": 2.0}},
        {"model": "crossed_fields_shifted", "j": "1", "params": {"a": 1, "b": 2, "c": 3}},
        {"model": "general_field", "j": "5/2", "params": {"a": 1.0, "b": 2.0, "c": 0.0}},
        {"model": "triaxial_rotor", "j": "2",
         "params": {"ix": 1.0, "iy": 0.3333333333333333, "iz": 0.5}},
        {"model": "toy_coupled", "j1": "1/2", "j2": "1/2", "params": {"A": 1.0, "B": 1.0}},
        {"model": "oh_molecule", "params": {"B": 0.3, "theta": "pi/4"}},
    ]
    for doc in docs:
        built = models.build(models.parse_model(doc))
        assert built.hamiltonian.shape[0] == math.prod(built.dims)


def test_parse_model_rejections():
    with pytest.raises(ValueError, match="unknown keys"):
        models.parse_model(
            {"model": "crossed_fields", "j": "1", "params": {"a": 1, "b": 2}, "extra": 1}
        )
    with pytest.raises(ValueError, match="unknown parameter"):
        models.parse_model(
            {"model": "crossed_fields", "j": "1", "params": {"a": 1, "b": 2, "q": 3}}
        )
    with pytest.raises(ValueError, match="unknown model"):
        models.parse_model({"model": "nope", "params": {}})
    with pytest.raises(ValueError, match="requires"):
        models.parse_model({"model": "crossed_fields", "j": "1", "params": {"a": 1}})
    with pytest.raises(ValueError, match="requires"):
        models.parse_model({"model": "crossed_fields", "params": {"a": 1, "b": 2}})
    with pytest.raises(ValueError, match="does not take"):
        models.parse_model(
            {"model": "crossed_fields", "j1": "1", "params": {"a": 1, "b": 2}}
        )
    with pytest.raises(ValueError, match="requires"):
        models.parse_model(
            {"model": "toy_coupled", "j1": "1/2", "params": {"A": 1, "B": 1}}
        )


def test_oh_defaults():
    spec = models.parse_model({"model": "oh_molecule", "params": {}})
    assert spec.j1 == SpinLabel(1)
    assert spec.j2 == SpinLabel(3)
    assert spec.delta == 1.0
    assert spec.B == 0.0
    assert spec.E == 1.0
    assert spec.theta == pytest.approx(math.pi / 4.0)


def test_load_model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"model": "crossed_fields", "j": "1", "params": {"a": 1, "b": 2}}))
    assert isinstance(models.load_model_file(path), CrossedFields)
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ValueError, match="JSON"):
        models.load_model_file(bad)

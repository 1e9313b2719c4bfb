import math

import numpy as np
import pytest

from chiralspin import linalg
from chiralspin.angmom import SpinLabel, build_spin_operators
from chiralspin.chiral import Symmetry, classify
from chiralspin.rotations import (
    CompositeRotation,
    RotationSpec,
    composite_matrix,
    parse_angle,
    rotation_matrix,
    unit_axis,
)

from helpers import anticommutator, random_unit_vector, rotation_identity_residual


def test_parse_angle_literals():
    assert parse_angle("pi") == math.pi
    assert parse_angle("pi/2") == math.pi / 2.0
    assert parse_angle("pi/4") == math.pi / 4.0
    assert parse_angle("-pi") == -math.pi
    assert parse_angle("+pi/2") == math.pi / 2.0
    assert parse_angle("1.5") == 1.5
    assert parse_angle(2) == 2.0


def test_parse_angle_rejects_garbage():
    for bad in ("two", "pi/3", float("inf"), float("nan"), ""):
        with pytest.raises(ValueError):
            parse_angle(bad)


def test_unit_axis_normalizes_near_unit():
    assert unit_axis((0, 0, 1)) == (0.0, 0.0, 1.0)
    assert unit_axis((1.0 + 5e-7, 0.0, 0.0)) == (1.0, 0.0, 0.0)


def test_unit_axis_error_reports_the_true_length():
    # the squares of these components underflow to 0 and overflow to inf
    with pytest.raises(ValueError, match=r"\|n\| = 9\.9998887e-321$"):
        unit_axis([1e-320, 0, 0])
    with pytest.raises(ValueError, match=r"\|n\| = 1e\+308$"):
        unit_axis([0, 0, 1e308])


def test_unit_axis_rejects_bad_input():
    for bad in ((1.1, 0, 0), (0, 0, 0), (1, 1, 0), (1, 0), "xyz", (False, False, True),
                (0, 0, None), (0, 0, "1"), [[0], [0], [1]], {"z": 1}, np.array([0, 0, 1], dtype=bool)):
        with pytest.raises(ValueError):
            unit_axis(bad)


def test_rz_pi_half_spin_matrix():
    ops = build_spin_operators("1/2")
    r = rotation_matrix(RotationSpec(0, (0, 0, 1), "pi"), ops)
    assert np.allclose(r, np.diag([-1j, 1j]), atol=1e-14)


def test_zero_angle_is_identity():
    ops = build_spin_operators("3/2")
    r = rotation_matrix(RotationSpec(0, (0, 1, 0), 0.0), ops)
    assert np.allclose(r, np.eye(4), atol=1e-13)


def test_rz_pi_j1_matrix():
    # diagonal exponential of diag(1, 0, -1) at pi
    ops = build_spin_operators("1")
    r = rotation_matrix(RotationSpec(0, (0, 0, 1), math.pi), ops)
    assert np.allclose(r, np.diag([-1.0, 1.0, -1.0]), atol=1e-13)


def test_composite_two_half_spins():
    rot = CompositeRotation(
        (RotationSpec(0, (0, 1, 0), "pi"), RotationSpec(1, (0, 0, 1), "pi"))
    )
    u = composite_matrix(rot, [2, 2])
    assert u.shape == (4, 4)
    assert linalg.frobenius(u.conj().T @ u - np.eye(4)) < 1e-12


def test_composite_empty_is_identity():
    assert np.array_equal(composite_matrix(CompositeRotation(()), [2, 3]), np.eye(6))


def test_composite_half_times_three_halves():
    rot = CompositeRotation(
        (RotationSpec(0, (1, 0, 0), "pi"), RotationSpec(1, (0, 1, 0), "pi"))
    )
    u = composite_matrix(rot, [2, 4])
    assert u.shape == (8, 8)
    assert linalg.frobenius(u.conj().T @ u - np.eye(8)) < 1e-12


def test_composite_rejects_duplicate_slots():
    with pytest.raises(ValueError, match="duplicate"):
        CompositeRotation(
            (RotationSpec(0, (1, 0, 0), "pi"), RotationSpec(0, (0, 1, 0), "pi"))
        )


def test_composite_rejects_slot_out_of_range():
    rot = CompositeRotation((RotationSpec(2, (1, 0, 0), "pi"),))
    with pytest.raises(ValueError, match="out of range"):
        composite_matrix(rot, [2, 2])


def test_describe():
    rot = CompositeRotation(
        (RotationSpec(0, (0, 1, 0), "pi"), RotationSpec(1, (0, 0, 1), "pi/2"))
    )
    assert rot.describe() == "R[0,y](pi) * R[1,z](pi/2)"
    assert CompositeRotation(()).describe() == "identity"


def test_identity_residual_zero_angle():
    ops = build_spin_operators("1")
    assert rotation_identity_residual((0, 0, 1), (0.3, -1.0, 2.0), 0.0, ops) < 1e-13


def test_identity_residual_pi_specialization():
    ops = build_spin_operators("1")
    assert rotation_identity_residual((0, 0, 1), (1.0, 0.0, 0.0), math.pi, ops) < 1e-12


def test_identity_residual_generic_draw():
    ops = build_spin_operators("5/2")
    n = np.array([1.0, 2.0, 2.0]) / 3.0
    assert rotation_identity_residual(n, (0.3, -0.7, 0.1), 1.234, ops) < 1e-10


@pytest.mark.parametrize("twice_j", range(0, 6))
def test_identity_residual_random_draws(rng, twice_j):
    ops = build_spin_operators(SpinLabel(twice_j))
    for _ in range(20):
        n = random_unit_vector(rng)
        a = rng.normal(size=3)
        theta = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        assert rotation_identity_residual(n, a, theta, ops) < 1e-10


def test_rotation_is_one_parameter_group(rng):
    ops = build_spin_operators("2")
    n = tuple(random_unit_vector(rng))
    t1, t2 = rng.uniform(-3.0, 3.0, size=2)
    r1 = rotation_matrix(RotationSpec(0, n, t1), ops)
    r2 = rotation_matrix(RotationSpec(0, n, t2), ops)
    r12 = rotation_matrix(RotationSpec(0, n, t1 + t2), ops)
    assert np.max(np.abs(r1 @ r2 - r12)) < 1e-10


@pytest.mark.parametrize("twice_j", range(0, 8))
def test_full_turn_phase(rng, twice_j):
    # 2*pi returns +I for integer j and -I for half-odd-integer j
    ops = build_spin_operators(SpinLabel(twice_j))
    n = tuple(random_unit_vector(rng))
    r = rotation_matrix(RotationSpec(0, n, 2.0 * math.pi), ops)
    sign = 1.0 if twice_j % 2 == 0 else -1.0
    assert np.max(np.abs(r - sign * np.eye(ops.dim))) < 1e-10


def test_pi_rotation_anticommutes_with_perpendicular_projection(rng):
    for twice_j in (1, 2, 3, 4, 5):
        ops = build_spin_operators(SpinLabel(twice_j))
        for _ in range(5):
            n = random_unit_vector(rng)
            a = rng.normal(size=3)
            a = a - np.dot(a, n) * n
            if np.linalg.norm(a) < 0.3:
                continue
            r = rotation_matrix(RotationSpec(0, tuple(n), math.pi), ops)
            assert linalg.frobenius(anticommutator(r, ops.along(a))) < 1e-10
            assert classify(r, ops.along(a)).kind is Symmetry.ANTICOMMUTING

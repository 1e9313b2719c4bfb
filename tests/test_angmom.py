import math

import numpy as np
import pytest

from chiralspin import linalg
from chiralspin.angmom import SpinLabel, build_spin_operators, embed

from helpers import ladder_action_check


def test_label_parsing():
    assert SpinLabel.parse("1/2").twice_j == 1
    assert SpinLabel.parse("5/2").twice_j == 5
    assert SpinLabel.parse("1").twice_j == 2
    assert SpinLabel.parse("0").twice_j == 0
    assert SpinLabel.parse(2.5).twice_j == 5
    assert SpinLabel.parse(3) == SpinLabel(6)
    assert SpinLabel.parse(SpinLabel(3)) == SpinLabel(3)


def test_label_rejects_invalid():
    for bad in ("2/3", "x", -1, 0.3, "-1/2", "1/0"):
        with pytest.raises(ValueError):
            SpinLabel.parse(bad)
    with pytest.raises(ValueError):
        SpinLabel(-2)


def test_label_text_roundtrip():
    assert str(SpinLabel(5)) == "5/2"
    assert str(SpinLabel(4)) == "2"
    assert SpinLabel(7).dim == 8
    assert SpinLabel(7).j == 3.5


def test_j1_matrices_match_printed_form():
    ops = build_spin_operators("1")
    inv = 1.0 / math.sqrt(2.0)
    jx = inv * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    jy = (inv / 1j) * np.array([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], dtype=complex)
    jz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    assert np.max(np.abs(ops.jx - jx)) <= 1e-15
    assert np.max(np.abs(ops.jy - jy)) <= 1e-15
    assert np.array_equal(ops.jz, jz)


def test_half_spin_is_half_pauli():
    ops = build_spin_operators("1/2")
    assert np.array_equal(ops.jx, 0.5 * np.array([[0, 1], [1, 0]]))
    assert np.array_equal(ops.jy, 0.5 * np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(ops.jz, 0.5 * np.array([[1, 0], [0, -1]]))


def test_j0_is_trivial():
    ops = build_spin_operators("0")
    for m in (ops.jx, ops.jy, ops.jz, ops.jplus, ops.jminus, ops.jsq):
        assert m.shape == (1, 1)
        assert m[0, 0] == 0.0


@pytest.mark.parametrize("twice_j", range(0, 11))
def test_operator_invariants(twice_j):
    ops = build_spin_operators(SpinLabel(twice_j))
    dim = ops.dim
    jj = twice_j * (twice_j + 2) / 4.0
    assert linalg.frobenius(ops.jx - ops.jx.conj().T) < 1e-15
    assert linalg.frobenius(ops.jy - ops.jy.conj().T) < 1e-15
    assert linalg.frobenius(ops.jz - ops.jz.conj().T) < 1e-15
    assert np.array_equal(ops.jplus.conj().T, ops.jminus)
    total = ops.jx @ ops.jx + ops.jy @ ops.jy + ops.jz @ ops.jz
    assert linalg.frobenius(total - jj * np.eye(dim)) < 1e-12
    assert linalg.frobenius(total - ops.jsq) < 1e-12
    assert linalg.frobenius(linalg.commutator(ops.jx, ops.jy) - 1j * ops.jz) < 1e-12
    assert linalg.frobenius(linalg.commutator(ops.jy, ops.jz) - 1j * ops.jx) < 1e-12
    assert linalg.frobenius(linalg.commutator(ops.jz, ops.jx) - 1j * ops.jy) < 1e-12
    for m in (ops.jx, ops.jy, ops.jz):
        assert abs(np.trace(m)) == 0.0


@pytest.mark.parametrize("twice_j", range(1, 11))
def test_jz_spectrum_is_m_ladder(twice_j):
    ops = build_spin_operators(SpinLabel(twice_j))
    eig = linalg.hermitian_eigensolve(ops.jz)
    expected = np.arange(-twice_j, twice_j + 1, 2) / 2.0
    assert np.max(np.abs(eig.eigenvalues - expected)) <= 1e-12


def test_ladder_annihilates_top_state():
    ops = build_spin_operators("1/2")
    top = np.array([1.0, 0.0], dtype=complex)
    assert np.linalg.norm(ops.jplus @ top) == 0.0


def test_ladder_j1_raises_m0_with_sqrt2():
    ops = build_spin_operators("1")
    m0 = np.array([0.0, 1.0, 0.0], dtype=complex)
    m1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    assert np.allclose(ops.jplus @ m0, math.sqrt(2.0) * m1, atol=1e-15)


def test_ladder_j52_central_amplitudes():
    # raising from m = -1/2 lands on m = +1/2 with amplitude 3 (the central
    # entries of the six-dimensional representation); from m = +1/2 the
    # amplitude is sqrt(8)
    ops = build_spin_operators("5/2")
    basis = np.eye(6, dtype=complex)
    m_plus_half, m_minus_half = basis[2], basis[3]
    assert np.allclose(ops.jplus @ m_minus_half, 3.0 * m_plus_half, atol=1e-15)
    m_three_halves = basis[1]
    assert np.allclose(ops.jplus @ m_plus_half, math.sqrt(8.0) * m_three_halves, atol=1e-15)


@pytest.mark.parametrize("twice_j", range(0, 11))
def test_ladder_action_check_passes(twice_j):
    report = ladder_action_check(SpinLabel(twice_j))
    assert report.ok
    assert report.max_residual <= 1e-12


def test_embed_first_slot_block_diagonal():
    half = build_spin_operators("1/2")
    embedded = embed(half.jz, 0, [2, 4])
    assert np.array_equal(embedded, np.diag([0.5] * 4 + [-0.5] * 4))


def test_embed_identity_is_identity():
    assert np.array_equal(embed(np.eye(2), 0, [2, 4]), np.eye(8))


def test_embedded_operators_on_distinct_slots_commute():
    a = embed(build_spin_operators("1/2").jx, 0, [2, 4])
    b = embed(build_spin_operators("3/2").jz, 1, [2, 4])
    assert linalg.frobenius(linalg.commutator(a, b)) < 1e-13


def test_embed_product_matches_kron(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    lhs = embed(a, 0, [2, 3]) @ embed(b, 1, [2, 3])
    assert np.max(np.abs(lhs - linalg.kron(a, b))) < 1e-15


def test_embed_errors():
    with pytest.raises(ValueError, match="out of range"):
        embed(np.eye(2), 2, [2, 4])
    with pytest.raises(ValueError, match="does not match"):
        embed(np.eye(3), 0, [2, 4])


def test_ladder_matches_the_per_entry_formula_bit_for_bit():
    # J+ once filled entry by entry with math.sqrt on exact Python ints
    for twice_j in [*range(201), 1023]:
        jplus = build_spin_operators(SpinLabel(twice_j)).jplus
        expected = np.zeros((twice_j + 1, twice_j + 1), dtype=np.complex128)
        for k in range(1, twice_j + 1):
            twice_m = twice_j - 2 * k
            expected[k - 1, k] = 0.5 * math.sqrt(twice_j * (twice_j + 2) - twice_m * (twice_m + 2))
        assert jplus.dtype == expected.dtype, twice_j
        assert jplus.tobytes() == expected.tobytes(), twice_j

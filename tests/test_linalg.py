import math

import numpy as np
import pytest

from chiralspin import linalg
from chiralspin.angmom import SpinLabel, build_spin_operators, embed
from chiralspin.chiral import classify
from chiralspin.rotations import RotationSpec, rotation_matrix

import helpers
from helpers import anticommutator, commutator, random_hermitian

HALF = build_spin_operators("1/2")
ONE = build_spin_operators("1")


def test_identity_times_identity():
    eye = linalg.identity(3)
    assert np.array_equal(eye @ eye, eye)


def test_jx_squared_half_spin():
    # direct 2x2 multiplication: [[0, 1/2], [1/2, 0]]^2 = I/4
    assert np.allclose(HALF.jx @ HALF.jx, 0.25 * np.eye(2), atol=1e-15)


def test_additive_inverse(rng):
    a = random_hermitian(rng, 4)
    assert np.array_equal(a + (-1.0) * a, np.zeros((4, 4)))


def test_commutator_jx_jy_is_i_jz():
    assert np.allclose(commutator(ONE.jx, ONE.jy), 1j * ONE.jz, atol=1e-14)


def test_commutator_with_itself_vanishes(rng):
    a = random_hermitian(rng, 5)
    assert np.array_equal(commutator(a, a), np.zeros((5, 5)))


def test_jsq_commutes_with_components():
    ops = build_spin_operators("3/2")
    for m in (ops.jx, ops.jy, ops.jz):
        assert linalg.frobenius(commutator(ops.jsq, m)) < 1e-12


def test_anticommutator_pauli_pair_vanishes():
    # Jx, Jy at j=1/2: the Pauli matrices anticommute pairwise
    assert np.allclose(anticommutator(HALF.jx, HALF.jy), 0.0, atol=1e-16)


def test_anticommutator_identity_doubles(rng):
    a = random_hermitian(rng, 3)
    assert np.array_equal(anticommutator(np.eye(3), a), 2.0 * a)


def test_anticommutator_rz_pi_jx():
    r = rotation_matrix(RotationSpec(0, (0, 0, 1), "pi"), ONE)
    assert linalg.frobenius(anticommutator(r, ONE.jx)) < 1e-13


def test_commutator_antisymmetry_exact(rng):
    for dim in (2, 3, 6):
        a = random_hermitian(rng, dim)
        b = random_hermitian(rng, dim)
        assert np.array_equal(commutator(a, b), -commutator(b, a))
        assert np.array_equal(anticommutator(a, b), anticommutator(b, a))


@pytest.mark.parametrize("scale", [1e-320, 1e-170, 1e-160, 1.0, 1e160, 1e300])
def test_frobenius_at_every_scale(rng, scale):
    # sums of squares overflow from 1e154 and underflow below 1e-162
    h = random_hermitian(rng, 5)
    unit = linalg.frobenius(h)
    tiny = scale < 1e-300  # subnormal entries keep only a few digits
    with np.errstate(over="ignore"):
        scaled = linalg.frobenius(h * scale)
    assert scaled == pytest.approx(unit * scale, rel=1e-3 if tiny else 1e-14, abs=0.0)
    assert linalg.frobenius(np.zeros((3, 3))) == 0.0


def _frobenius_cases(rng):
    """(name, array) pairs whose norm lies inside (1e-150, 1e150)."""
    for dim in (1, 2, 5, 12):
        for scale in (1e-6, 1.0, 1e6):
            real = rng.normal(size=(dim, dim)) * scale
            cplx = real + 1j * rng.normal(size=(dim, dim)) * scale
            yield "real", real
            yield "complex", cplx
            yield "int64", np.rint(real / scale * 1000).astype(np.int64)
            yield "float32", real.astype(np.float32)
            yield "1-D", cplx.ravel()
            yield "transposed", cplx.T
            yield "conj-transposed", cplx.conj().T
            yield "real strided", real[::2, ::-1]
            yield "complex strided", cplx[::2, ::-1]


def test_frobenius_is_numpy_norm_bit_for_bit(rng):
    for name, a in _frobenius_cases(rng):
        assert linalg.frobenius(a) == float(np.linalg.norm(a)), name


def test_kron_is_numpy_kron_bit_for_bit(rng):
    def cplx(n):
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    pairs = [(np.ones((1, 1)), cplx(3)), (cplx(3), [[2.5]]), ([[1j]], [[-2.0]]),
             (cplx(2), cplx(4)), (cplx(4)[::2, ::-2], cplx(6)[::3, 1::3].T), (cplx(3).real, cplx(2).conj().T)]
    for a, b in pairs:
        got, want = linalg.kron(a, b), np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_dimension_mismatch_rejected():
    # [C, H] and {C, H} are formed only inside classify, which refuses
    # operators of different dimension before any product is taken
    with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
        classify(np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="^dimension mismatch: 3 vs 2$"):
        classify([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])


def test_rejects_non_square_and_non_finite():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.zeros((2, 3)))
    for bad in (np.nan, np.inf, np.inf * 1j, complex(1, np.inf), complex(np.nan, 0)):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            linalg.as_matrix([[bad, 0.0], [0.0, 0.0]])


def test_eigensolve_jz_j1():
    eig = linalg.hermitian_eigensolve(ONE.jz)
    assert np.allclose(eig.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-12)


def test_eigensolve_zero_matrix():
    eig = linalg.hermitian_eigensolve(np.zeros((4, 4)))
    assert np.array_equal(eig.eigenvalues, np.zeros(4))
    assert np.array_equal(eig.eigenvectors, np.eye(4))


def test_eigensolve_general_field_j1():
    # a=1, b=2, c=2 gives Q = 9 and spectrum 0, +-3
    h = ONE.jx + 2.0 * ONE.jy + 2.0 * ONE.jz
    eig = linalg.hermitian_eigensolve(h)
    assert np.allclose(eig.eigenvalues, [-3.0, 0.0, 3.0], atol=1e-10)


def test_eigensolve_against_numpy(rng):
    for dim in range(1, 9):
        h = random_hermitian(rng, dim, scale=rng.uniform(0.1, 5.0))
        eig = linalg.hermitian_eigensolve(h)
        hnorm = linalg.frobenius(h)
        assert np.all(np.diff(eig.eigenvalues) >= 0.0)
        assert np.allclose(eig.eigenvalues, np.linalg.eigvalsh(h), atol=1e-12 * max(1.0, hnorm))
        recon = linalg.frobenius(h @ eig.eigenvectors - eig.eigenvectors * eig.eigenvalues)
        assert recon < 1e-10 * hnorm
        unit = linalg.frobenius(eig.eigenvectors.conj().T @ eig.eigenvectors - np.eye(dim))
        assert unit < 1e-12


def test_eigensolve_trace_and_determinant(rng):
    for dim in range(1, 9):
        h = random_hermitian(rng, dim)
        eig = linalg.hermitian_eigensolve(h)
        hnorm = linalg.frobenius(h)
        assert abs(eig.eigenvalues.sum() - np.trace(h).real) <= 1e-10 * max(1.0, hnorm)
        det = np.linalg.det(h).real
        assert abs(np.prod(eig.eigenvalues) - det) <= 1e-9 * max(1.0, hnorm**dim)


def test_eigensolve_degenerate_cluster(rng):
    u = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0]
    h = u @ np.diag([1.0, 2.0, 2.0, 2.0, 3.0]) @ u.conj().T
    eig = linalg.hermitian_eigensolve(h)
    assert np.allclose(eig.eigenvalues, [1.0, 2.0, 2.0, 2.0, 3.0], atol=1e-10)
    assert linalg.frobenius(eig.eigenvectors.conj().T @ eig.eigenvectors - np.eye(5)) < 1e-12


def test_eigensolve_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        linalg.hermitian_eigensolve([[0.0, 1.0], [0.0, 0.0]])


def test_eigensolve_convergence_error(monkeypatch):
    monkeypatch.setattr(helpers, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(helpers.ConvergenceError) as err:
        helpers.jacobi_eigensolve([[0.0, 1.0], [1.0, 0.0]])
    assert err.value.sweeps == 0
    assert "0 sweeps" in str(err.value)


def _oracle_cases(rng):
    """(label, H) over dims 1-40: a seeded random Hermitian matrix at every
    dim, plus degenerate ones built from spin operators."""
    for dim in range(1, 41):
        yield f"random dim {dim}", random_hermitian(rng, dim, scale=rng.uniform(0.1, 5.0))
    for twice_j in (1, 2, 5, 9, 14, 21, 39):
        ops = build_spin_operators(SpinLabel(twice_j))
        # j(j+1) - m^2: every |m| > 0 level is doubly degenerate
        yield f"jx^2 + jy^2, 2j = {twice_j}", ops.jx @ ops.jx + ops.jy @ ops.jy
    for a, b in ((1, 1), (2, 3), (3, 4), (4, 5)):
        dims = (a + 1, b + 1)
        one, two = build_spin_operators(SpinLabel(a)), build_spin_operators(SpinLabel(b))
        # total spin projection: degenerate along the diagonals m1 + m2 = M
        yield f"jx (x) 1 + 1 (x) jx, dims {dims}", embed(one.jx, 0, dims) + embed(two.jx, 1, dims)
    for twice_j, rest in ((1, 4), (2, 7), (3, 10), (4, 8)):
        jz = build_spin_operators(SpinLabel(twice_j)).jz
        yield f"kron(jz, I_{rest}), 2j = {twice_j}", linalg.kron(jz, np.eye(rest))
    yield "zero dim 7", np.zeros((7, 7))
    yield "2.5 I dim 12", 2.5 * np.eye(12)


def test_eigensolve_matches_jacobi_oracle(rng):
    for label, h in _oracle_cases(rng):
        dim = h.shape[0]
        hnorm = linalg.frobenius(h)
        eig = linalg.hermitian_eigensolve(h)
        reference = helpers.jacobi_eigensolve(h)
        assert np.all(np.diff(eig.eigenvalues) >= 0.0), label
        gap = np.max(np.abs(eig.eigenvalues - reference.eigenvalues))
        assert gap <= 1e-12 * max(1.0, hnorm), label
        recon = linalg.frobenius(h @ eig.eigenvectors - eig.eigenvectors * eig.eigenvalues)
        assert recon <= 1e-10 * hnorm, label
        unit = linalg.frobenius(eig.eigenvectors.conj().T @ eig.eigenvectors - np.eye(dim))
        assert unit < 1e-12, label


def test_unitary_exp_zero_angle(rng):
    h = random_hermitian(rng, 4)
    assert np.allclose(linalg.unitary_exp(h, 0.0), np.eye(4), atol=1e-12)


def test_unitary_exp_spinor_full_turn():
    # diagonal exponential of diag(1/2, -1/2) at 2*pi: global phase -1
    assert np.allclose(linalg.unitary_exp(HALF.jz, 2.0 * math.pi), -np.eye(2), atol=1e-12)


def test_unitary_exp_integer_full_turn():
    # diagonal exponential of diag(1, 0, -1) at 2*pi: identity
    assert np.allclose(linalg.unitary_exp(ONE.jz, 2.0 * math.pi), np.eye(3), atol=1e-12)


def test_unitary_exp_is_unitary(rng):
    h = random_hermitian(rng, 6)
    u = linalg.unitary_exp(h, 0.731)
    assert linalg.frobenius(u.conj().T @ u - np.eye(6)) < 1e-12


def test_unitary_exp_group_property(rng):
    for dim in (2, 5, 8):
        h = random_hermitian(rng, dim)
        s, t = rng.uniform(-3.0, 3.0, size=2)
        lhs = linalg.unitary_exp(h, s) @ linalg.unitary_exp(h, t)
        assert np.max(np.abs(lhs - linalg.unitary_exp(h, s + t))) < 1e-10


def test_unitary_exp_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        linalg.unitary_exp([[0.0, 1.0], [0.0, 0.0]], 1.0)


def test_rotation_quarter_turn_is_unitary():
    r = rotation_matrix(RotationSpec(0, (0, 0, 1), "pi/2"), ONE)
    assert linalg.frobenius(r.conj().T @ r - np.eye(3)) < 1e-12


def test_kron_identities():
    assert np.array_equal(linalg.kron(np.eye(2), np.eye(4)), np.eye(8))


def test_kron_jz_block_spectrum():
    eig = linalg.hermitian_eigensolve(linalg.kron(HALF.jz, np.eye(4)))
    assert np.allclose(eig.eigenvalues, [-0.5] * 4 + [0.5] * 4, atol=1e-14)


def test_kron_dimensions():
    assert linalg.kron(np.zeros((2, 2)), np.zeros((4, 4))).shape == (8, 8)


def test_kron_mixed_product(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    d = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    lhs = linalg.kron(a, b) @ linalg.kron(c, d)
    assert np.max(np.abs(lhs - linalg.kron(a @ c, b @ d))) < 1e-12


def test_require_hermitian_bounds_the_norm():
    # at MAX_NORM the sums and products downstream stay finite; past it,
    # and at a norm that overflows to inf, the matrix is refused. numpy warns
    # of the sum of squares that frobenius then rescales
    with np.errstate(over="ignore"):
        assert linalg.require_hermitian(np.diag([linalg.MAX_NORM, 0.0])) is not None
        for big in (2.0 * linalg.MAX_NORM, 1.7e308):
            with pytest.raises(ValueError, match="Frobenius norm .* above the limit"):
                linalg.require_hermitian(np.diag([big, -big]), "H")

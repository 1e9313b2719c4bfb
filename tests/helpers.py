"""Shared test utilities: seeded random matrices and model draws, and the
reference code the package is checked against: the brute-force partner
search, the Jacobi eigensolver, and the eigenvector-map, odd-power-trace and
ladder-action checks of the paper's identities. No command calls these."""

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from chiralspin import linalg
from chiralspin.angmom import SpinLabel, build_spin_operators, embed
from chiralspin.chiral import (
    DEFAULT_SEARCH_ANGLES,
    DEFAULT_SEARCH_AXES,
    DEFAULT_TOL,
    Symmetry,
    classify,
    default_pairing_tol,
)
from chiralspin.linalg import EigenDecomposition, frobenius, identity, require_hermitian
from chiralspin.models import (
    CrossedFields,
    CrossedFieldsShifted,
    GeneralField,
    OHMolecule,
    ToyCoupled,
    TriaxialRotor,
)
from chiralspin.rotations import (
    CompositeRotation,
    RotationSpec,
    composite_matrix,
    parse_angle,
    unit_axis,
)


def random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def random_unit_vector(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_chiral_model(rng, family, max_twice_j=10, coupled_max=4):
    """One random parameter draw of a model family, restricted to parameters
    for which the documented partner exists (condition-met rotor, j >= 1/2,
    nondegenerate shifted rotor)."""
    if family == "crossed_fields":
        return CrossedFields(
            SpinLabel(int(rng.integers(1, max_twice_j + 1))),
            rng.uniform(-2, 2), rng.uniform(-2, 2),
        )
    if family == "crossed_fields_shifted":
        return CrossedFieldsShifted(
            SpinLabel(int(rng.integers(1, max_twice_j + 1))),
            rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2),
        )
    if family == "general_field":
        return GeneralField(
            SpinLabel(int(rng.integers(1, max_twice_j + 1))),
            rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2),
        )
    if family == "triaxial_rotor":
        ix, iy = rng.uniform(0.2, 2.0, size=2)
        iz = 2.0 / (1.0 / ix + 1.0 / iy)
        return TriaxialRotor(SpinLabel(int(rng.integers(2, max_twice_j + 1))), ix, iy, iz)
    if family == "toy_coupled":
        return ToyCoupled(
            SpinLabel(int(rng.integers(1, coupled_max + 1))),
            SpinLabel(int(rng.integers(1, coupled_max + 1))),
            rng.uniform(-2, 2), rng.uniform(-2, 2),
        )
    if family == "oh_molecule":
        return OHMolecule(
            delta=rng.uniform(0.2, 2.0), B=rng.uniform(0.0, 2.0),
            E=rng.uniform(0.2, 2.0), theta=rng.uniform(0.1, 1.4),
        )
    raise ValueError(family)


FAMILIES = (
    "crossed_fields", "crossed_fields_shifted", "general_field",
    "triaxial_rotor", "toy_coupled", "oh_molecule",
)


def chiral_model_at_dim(rng, family, dim):
    """A ``random_chiral_model`` draw resized to Hilbert dimension ``dim``,
    or None when the family has no model of that size (the rotor needs
    j >= 1; coupled families need dim = d1 * d2 with d1, d2 >= 2)."""
    spec = random_chiral_model(rng, family)
    if family in ("toy_coupled", "oh_molecule"):
        splits = [(d, dim // d) for d in range(2, dim // 2 + 1) if dim % d == 0]
        if not splits:
            return None
        d1, d2 = splits[int(rng.integers(len(splits)))]
        return dataclasses.replace(spec, j1=SpinLabel(d1 - 1), j2=SpinLabel(d2 - 1))
    if family == "triaxial_rotor" and dim < 3:
        return None
    return dataclasses.replace(spec, j=SpinLabel(dim - 1))


def reference_charpoly(eigenvalues):
    """Ascending coefficients of det(H - lambda I) from the spectrum, and a
    per-coefficient tolerance 1e-9 e_k(|lambda|) + 1e-11 max_k e_k(|lambda|),
    where e_k are the elementary symmetric sums that bound each coefficient."""
    eigenvalues = np.asarray(eigenvalues)
    coeffs = (-1.0) ** len(eigenvalues) * np.poly(eigenvalues)[::-1].real
    scale = np.poly(-np.abs(eigenvalues))[::-1].real
    return coeffs, 1e-9 * scale + 1e-11 * scale.max()


def expected_general_field_j52(a, b, c):
    """The printed six-dimensional form, (1/2) x the sqrt5/sqrt8/3 pattern."""
    d = a - 1j * b
    u = a + 1j * b
    s5 = math.sqrt(5.0)
    s8 = math.sqrt(8.0)
    return 0.5 * np.array(
        [
            [5 * c, s5 * d, 0, 0, 0, 0],
            [s5 * u, 3 * c, s8 * d, 0, 0, 0],
            [0, s8 * u, c, 3 * d, 0, 0],
            [0, 0, 3 * u, -c, s8 * d, 0],
            [0, 0, 0, s8 * u, -3 * c, s5 * d],
            [0, 0, 0, 0, s5 * u, -5 * c],
        ]
    )


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def brute_force_search(h, dims, angles=None, axes=None, tol=DEFAULT_TOL):
    """Reference for ``chiral.search_partners``: build and classify every
    candidate of the 7^k family from nothing, in ``itertools.product``
    order. A spin-0 slot (d = 1) takes no rotation: each of its rotations
    is the 1x1 identity."""
    h = linalg.as_matrix(h)
    dims = tuple(int(d) for d in dims)
    if math.prod(dims) != h.shape[0]:
        raise ValueError(
            f"subsystem dims {dims} do not multiply to the matrix dimension {h.shape[0]}"
        )
    axes = DEFAULT_SEARCH_AXES if axes is None else tuple(unit_axis(a) for a in axes)
    angles = DEFAULT_SEARCH_ANGLES if angles is None else tuple(parse_angle(a) for a in angles)
    per_slot = [None] + [(axis, angle) for axis in axes for angle in angles]
    found = []
    for combo in itertools.product(*([None] if d == 1 else per_slot for d in dims)):
        factors = []
        for slot, choice in enumerate(combo):
            if choice is not None:
                axis, angle = choice
                factors.append(RotationSpec(slot, axis, angle))
        if not factors:
            continue
        candidate = CompositeRotation(tuple(factors))
        verdict = classify(composite_matrix(candidate, dims), h, tol)
        if verdict.kind is Symmetry.ANTICOMMUTING:
            found.append(candidate)
    return found


def spin_chain(rng, dims, coupling="xy", fields=False):
    """Open chain on slots of dimension ``dims``: seeded nearest-neighbour
    couplings sum_a g_a J_i^a J_{i+1}^a over a in ``coupling`` plus, with
    ``fields``, seeded local z fields h_i J_i^z."""
    dims = tuple(dims)
    ops = [build_spin_operators(SpinLabel(d - 1)) for d in dims]
    n = math.prod(dims)
    h = np.zeros((n, n), dtype=np.complex128)
    for i in range(len(dims) - 1):
        for a in coupling:
            left = embed(getattr(ops[i], "j" + a), i, dims)
            right = embed(getattr(ops[i + 1], "j" + a), i + 1, dims)
            h += rng.uniform(0.5, 1.5) * (left @ right)
    if fields:
        for i, slot_ops in enumerate(ops):
            h += rng.uniform(-1.5, 1.5) * embed(slot_ops.jz, i, dims)
    return h


# Jacobi iteration: sweep cap and relative off-diagonal convergence target.
JACOBI_MAX_SWEEPS = 100
JACOBI_OFFDIAG_TOL = 1e-14


class ConvergenceError(RuntimeError):
    """The Jacobi iteration exhausted its sweep budget."""

    def __init__(self, sweeps, offdiag):
        super().__init__(
            f"eigensolver did not converge after {sweeps} sweeps "
            f"(off-diagonal norm {offdiag:.3e})"
        )
        self.sweeps = sweeps
        self.offdiag = offdiag


def _offdiagonal_norm(a):
    return frobenius(a - np.diag(np.diag(a)))


def _rotate_columns(m, p, q, c, s, phase):
    col_p = m[:, p].copy()
    col_q = m[:, q].copy()
    m[:, p] = c * col_p - s * np.conj(phase) * col_q
    m[:, q] = s * phase * col_p + c * col_q


def _rotate_rows(m, p, q, c, s, phase):
    row_p = m[p, :].copy()
    row_q = m[q, :].copy()
    m[p, :] = c * row_p - s * phase * row_q
    m[q, :] = s * np.conj(phase) * row_p + c * row_q


def jacobi_eigensolve(h) -> EigenDecomposition:
    """Diagonalize a Hermitian matrix with cyclic complex Jacobi rotations.

    Each sweep annihilates every off-diagonal pair in turn with a unitary
    plane rotation; iteration stops once the off-diagonal Frobenius norm
    drops below 1e-14 of the input norm. Quadratic convergence makes this
    exact to machine precision at the matrix sizes used here, and the
    accumulated rotations give orthonormal eigenvectors even for degenerate
    eigenvalues. Ties in the ascending sort keep their sweep order.

    This is the reference solver: it shares no code with LAPACK, so the
    tests check ``linalg.hermitian_eigensolve`` against it.
    """
    h = require_hermitian(h)
    n = h.shape[0]
    a = 0.5 * (h + h.conj().T)
    v = identity(n)
    target = JACOBI_OFFDIAG_TOL * frobenius(h)
    sweeps = 0
    while _offdiagonal_norm(a) > target:
        if sweeps >= JACOBI_MAX_SWEEPS:
            raise ConvergenceError(sweeps, _offdiagonal_norm(a))
        for p in range(n - 1):
            for q in range(p + 1, n):
                mag = abs(a[p, q])
                if mag == 0.0:
                    continue
                phase = a[p, q] / mag
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                _rotate_columns(a, p, q, c, s, phase)
                _rotate_rows(a, p, q, c, s, phase)
                _rotate_columns(v, p, q, c, s, phase)
        sweeps += 1
    values = np.diag(a).real.copy()
    order = np.argsort(values, kind="stable")
    return EigenDecomposition(values[order], np.ascontiguousarray(v[:, order]))


@dataclass(frozen=True)
class ChiralMapReport:
    """Worst residual of H(C psi) + lambda (C psi) over nonzero eigenpairs."""

    checked: int
    max_residual: float
    bound: float
    ok: bool


def chiral_map_check(c, h, tol: float = DEFAULT_TOL, tol_zero: float | None = None) -> ChiralMapReport:
    """Verify that C maps each eigenvector at +lambda to one at -lambda."""
    verdict = classify(c, h, tol)
    if verdict.residual_anticommute >= tol:
        raise ValueError(
            "operator does not anticommute with the Hamiltonian "
            f"(residual {verdict.residual_anticommute:.3e})"
        )
    c = linalg.as_matrix(c)
    h = linalg.as_matrix(h)
    eig = linalg.hermitian_eigensolve(h)
    if tol_zero is None:
        tol_zero = default_pairing_tol(h)
    bound = 1e-9 * linalg.frobenius(h)
    worst = 0.0
    checked = 0
    for lam, vec in zip(eig.eigenvalues, eig.eigenvectors.T):
        if abs(lam) <= tol_zero:
            continue
        mapped = c @ vec
        worst = max(worst, float(np.linalg.norm(h @ mapped + lam * mapped)))
        checked += 1
    return ChiralMapReport(checked, worst, bound, worst <= bound)


@dataclass(frozen=True)
class OddPowerTraceReport:
    """(power, trace, allowed bound) rows; all traces vanish iff the spectrum
    is mirror symmetric."""

    traces: tuple[tuple[int, float, float], ...]
    all_vanish: bool


def trace_oddpower_check(h, max_power: int = 7) -> OddPowerTraceReport:
    """tr(H^k) for odd k <= max_power, each judged against 1e-9 ||H||_F^k."""
    h = linalg.require_hermitian(h)
    hnorm = linalg.frobenius(h)
    hsq = h @ h
    power = h
    rows = []
    k = 1
    while k <= max_power:
        rows.append((k, float(np.trace(power).real), 1e-9 * hnorm**k))
        power = power @ hsq
        k += 2
    ok = all(abs(value) <= bound for _, value, bound in rows)
    return OddPowerTraceReport(tuple(rows), ok)


@dataclass(frozen=True)
class LadderReport:
    j: SpinLabel
    max_residual: float
    ok: bool


def ladder_action_check(label, tol: float = 1e-12) -> LadderReport:
    """Confirm J+|j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1> column by column,
    including annihilation of the top (J+) and bottom (J-) states."""
    ops = build_spin_operators(label)
    tj = ops.j.twice_j
    dim = ops.dim
    worst = 0.0
    for k in range(dim):
        expected = np.zeros(dim, dtype=np.complex128)
        if k > 0:
            # column k holds m = j - k, so 2m = tj - 2k
            tm = tj - 2 * k
            expected[k - 1] = 0.5 * math.sqrt(tj * (tj + 2) - tm * (tm + 2))
        worst = max(worst, float(np.linalg.norm(ops.jplus[:, k] - expected)))
    worst = max(worst, float(np.linalg.norm(ops.jminus[:, dim - 1])))
    return LadderReport(ops.j, worst, worst <= tol)

"""Classify operators as commuting or anticommuting with a Hamiltonian,
check spectra for mirror pairing and zero modes, and search a finite family
of rotation products for anticommuting partners."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .angmom import SpinLabel, build_spin_operators
from .rotations import (
    CompositeRotation,
    RotationSpec,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    parse_angle,
    rotation_matrix,
    unit_axis,
)

__all__ = [
    "DEFAULT_SEARCH_ANGLES",
    "DEFAULT_SEARCH_AXES",
    "DEFAULT_TOL",
    "PairingReport",
    "Symmetry",
    "SymmetryVerdict",
    "classify",
    "default_pairing_tol",
    "pairing_check",
    "search_partners",
    "spectral_pairing",
]

DEFAULT_TOL = 1e-10
DEFAULT_SEARCH_AXES = (X_AXIS, Y_AXIS, Z_AXIS)
DEFAULT_SEARCH_ANGLES = (math.pi, math.pi / 2.0)


class Symmetry(Enum):
    COMMUTING = "commuting"
    ANTICOMMUTING = "anticommuting"
    BOTH = "both"
    NEITHER = "neither"


@dataclass(frozen=True)
class SymmetryVerdict:
    kind: Symmetry
    residual_commute: float
    residual_anticommute: float


def classify(c, h, tol: float = DEFAULT_TOL) -> SymmetryVerdict:
    """Classify C against H by the relative Frobenius residuals of [C, H] and
    {C, H}. BOTH only occurs for trivial operators (either factor zero).

    C H and H C are formed once and serve both residuals. The norms in the
    denominator are those of C and H as passed, so a real array's norm is
    summed in its own dtype."""
    cm, hm = linalg._conforming(c, h)
    ch = cm @ hm
    hc = hm @ cm
    comm = ch - hc
    anti = ch + hc
    denom = linalg.frobenius(c) * linalg.frobenius(h)
    if denom == 0.0:
        rc = ra = 0.0
    else:
        rc = linalg.frobenius(comm) / denom
        ra = linalg.frobenius(anti) / denom
    if rc < tol and ra < tol:
        kind = Symmetry.BOTH
    elif rc < tol:
        kind = Symmetry.COMMUTING
    elif ra < tol:
        kind = Symmetry.ANTICOMMUTING
    else:
        kind = Symmetry.NEITHER
    return SymmetryVerdict(kind, rc, ra)


def default_pairing_tol(h) -> float:
    """1e-9 * max(1, ||H||_F): default for pair mismatch and zero modes."""
    return 1e-9 * max(1.0, linalg.frobenius(h))


@dataclass(frozen=True)
class PairingReport:
    """Mirror pairing of a sorted spectrum: (lambda+, lambda-, |sum|) pairs
    plus the zero modes sitting outside the pairing."""

    pairs: tuple[tuple[float, float, float], ...]
    zero_modes: int
    is_chiral_paired: bool

    @property
    def max_mismatch(self) -> float:
        return max((m for _, _, m in self.pairs), default=0.0)


def pairing_check(eigenvalues, tol: float) -> PairingReport:
    """Match sorted eigenvalues from opposite ends inward into +/- pairs.

    Eigenvalues with |lambda| < tol count as zero modes, and a pair is
    matched when |lambda+ + lambda-| < tol; for a genuinely paired spectrum
    the zero modes occupy the centre of the sorted list, so
    2*len(pairs) + zero_modes = len(eigenvalues) whenever pairing holds.
    """
    values = [float(x) for x in eigenvalues]
    if any(values[i] > values[i + 1] for i in range(len(values) - 1)):
        raise ValueError("eigenvalues must be sorted ascending")
    n = len(values)
    zero_modes = sum(1 for x in values if abs(x) < tol)
    pairs = tuple(
        (values[n - 1 - i], values[i], abs(values[i] + values[n - 1 - i]))
        for i in range((n - zero_modes) // 2)
    )
    paired = (n - zero_modes) % 2 == 0 and all(m < tol for _, _, m in pairs)
    return PairingReport(pairs, zero_modes, paired)


def spectral_pairing(h) -> tuple[np.ndarray, PairingReport]:
    """Ascending eigenvalues of H and their mirror pairing at default_pairing_tol(H)."""
    eigenvalues = linalg.hermitian_eigensolve(h).eigenvalues
    return eigenvalues, pairing_check(eigenvalues, default_pairing_tol(h))


def search_partners(h, dims, angles=None, axes=None,
                    tol: float = DEFAULT_TOL) -> list[tuple[CompositeRotation, SymmetryVerdict]]:
    """Return every composite rotation from the candidate family that
    anticommutes with H, each with its ``classify`` verdict.

    Each slot independently takes no rotation or one (axis, angle) pair from
    the family; candidates are enumerated in a fixed lexicographic order, slot
    0 slowest, so the output order is deterministic. Phase-equivalent
    operators built from different factor lists are reported separately. A
    spin-0 slot (d = 1) takes no rotation, since all its rotations are [[1]].

    The enumeration is a depth-first walk over the slots. The identity and
    the rotation factors of each slot dimension are built once per call, and
    a prefix P on the first slots S grows by ``linalg.kron`` in the order
    ``composite_matrix`` uses, so every candidate that reaches ``classify``
    is the matrix ``composite_matrix`` would build. A prefix is cut, with
    every candidate that extends it, when

        ||P H_S P^dagger + H_S||_F >= 2 max(tol, n eps) sqrt(n / d_rest) ||H||_F

    where n = dim H, d_rest = n / dim P and H_S = tr_rest(H) / d_rest is H
    traced over the slots after S. No candidate that ``classify`` accepts is
    cut: for a unitary C = P (x) R, ||{C, H}||_F = ||C H C^dagger + H||_F,
    tr_rest(C H C^dagger) = P tr_rest(H) P^dagger and ||tr_rest X||_F <=
    sqrt(d_rest) ||X||_F, so acceptance, ||{C, H}||_F < tol sqrt(n) ||H||_F,
    puts the prefix below half the cut. The factor 2 and the floor n eps
    absorb rounding.
    """
    h = linalg.as_matrix(h)
    dims = tuple(int(d) for d in dims)
    n = h.shape[0]
    if math.prod(dims) != n:
        raise ValueError(
            f"subsystem dims {dims} do not multiply to the matrix dimension {n}"
        )
    if any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    axes = DEFAULT_SEARCH_AXES if axes is None else tuple(unit_axis(a) for a in axes)
    angles = DEFAULT_SEARCH_ANGLES if angles is None else tuple(parse_angle(a) for a in angles)
    choices = [(axis, angle) for axis in axes for angle in angles]
    factors = {}
    for d in set(dims):
        ops = build_spin_operators(SpinLabel(d - 1))
        factors[d] = [linalg.identity(d)] + [
            rotation_matrix(RotationSpec(0, axis, angle), ops) for axis, angle in choices if d > 1
        ]
    # reduced[k] and cut[k] judge a prefix on the first k slots
    hnorm = linalg.frobenius(h)
    tol_floor = max(tol, n * np.finfo(float).eps)
    reduced, cut = [], []
    d_s = 1
    for d in dims:
        d_rest = n // d_s
        block = h.reshape(d_s, d_rest, d_s, d_rest)
        reduced.append(np.trace(block, axis1=1, axis2=3) / d_rest)
        cut.append(2.0 * tol_floor * math.sqrt(n / d_rest) * hnorm)
        d_s *= d
    picks = [0] * len(dims)
    found = []

    def walk(slot, prefix):
        if slot == len(dims):
            if any(picks) and (verdict := classify(prefix, h, tol)).kind is Symmetry.ANTICOMMUTING:
                found.append((CompositeRotation(tuple(
                    RotationSpec(s, *choices[p - 1]) for s, p in enumerate(picks) if p
                )), verdict))
            return
        h_s = reduced[slot]
        if linalg.frobenius(prefix @ h_s @ prefix.conj().T + h_s) >= cut[slot]:
            return
        for pick, factor in enumerate(factors[dims[slot]]):
            picks[slot] = pick
            walk(slot + 1, linalg.kron(prefix, factor))

    walk(0, np.ones((1, 1), dtype=np.complex128))
    return found

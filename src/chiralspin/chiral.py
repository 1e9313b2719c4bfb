"""Classify operators as commuting or anticommuting with a Hamiltonian,
check spectra for mirror pairing and zero modes, and search a finite family
of rotation products for anticommuting partners."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .angmom import CACHE_MAX_DIM, MAX_HILBERT_DIM, SpinLabel, build_spin_operators
from .rotations import (
    CompositeRotation,
    RotationSpec,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
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
    cm, hm = linalg.as_matrix(c), linalg.as_matrix(h)
    if cm.shape != hm.shape:
        raise ValueError(f"dimension mismatch: {cm.shape[0]} vs {hm.shape[0]}")
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
    values = np.asarray(eigenvalues, dtype=float)
    if (values[:-1] > values[1:]).any():
        raise ValueError("eigenvalues must be sorted ascending")
    n = len(values)
    zero_modes = int(np.count_nonzero(np.abs(values) < tol))
    k = (n - zero_modes) // 2
    top, bottom = values[::-1][:k], values[:k]
    mismatch = np.abs(bottom + top)
    pairs = tuple(zip(top.tolist(), bottom.tolist(), mismatch.tolist()))
    paired = (n - zero_modes) % 2 == 0 and bool((mismatch < tol).all())
    return PairingReport(pairs, zero_modes, paired)


def spectral_pairing(h) -> tuple[np.ndarray, PairingReport]:
    """Ascending eigenvalues of H, computed without eigenvectors, and their
    mirror pairing at default_pairing_tol(H)."""
    eigenvalues = linalg.hermitian_eigensolve(h, vectors=False).eigenvalues
    return eigenvalues, pairing_check(eigenvalues, default_pairing_tol(h))


def search_partners(h, dims, tol: float = DEFAULT_TOL) -> list[tuple[CompositeRotation, SymmetryVerdict]]:
    """Return every composite rotation from the candidate family that
    anticommutes with H, each with its ``classify`` verdict.

    The family is fixed: each slot independently takes no rotation or one
    (axis, angle) pair from DEFAULT_SEARCH_AXES x DEFAULT_SEARCH_ANGLES.
    Candidates are enumerated in a fixed lexicographic order, slot 0 slowest,
    so the output order is deterministic. Phase-equivalent operators built
    from different factor lists are reported separately. A spin-0 slot
    (d = 1) takes no rotation, since all its rotations are [[1]], and is not
    a level of the walk: the slots of dimension >= 2 multiply to at most
    MAX_HILBERT_DIM = 1024, so the walk is at most 10 levels deep.

    The enumeration is a depth-first walk over those slots. The seven
    factors of each slot dimension come from one eigendecomposition of n.J
    per axis, made once per process up to dimension CACHE_MAX_DIM and once
    per call above it. A prefix P on the first slots S is cut, with every
    candidate that extends it, when

        ||P H_S P^dagger + H_S||_F >= 2 max(tol, n eps) sqrt(n / d_rest) ||H||_F

    where n = dim H, d_rest = n / dim P and H_S = tr_rest(H) / d_rest is H
    traced over the slots after S; on the last slot d_rest = 1 and H_S = H,
    so a full candidate C reaches ``classify`` only if it passes the cut
    against H itself. No candidate that ``classify`` accepts is cut: for a
    unitary C = P (x) R, ||{C, H}||_F = ||C H C^dagger + H||_F,
    tr_rest(C H C^dagger) = P tr_rest(H) P^dagger and ||tr_rest X||_F <=
    sqrt(d_rest) ||X||_F (an equality at d_rest = 1), so acceptance,
    ||{C, H}||_F < tol sqrt(n) ||H||_F, puts every prefix below half its
    cut. The factor 2 and the floor n eps absorb rounding.

    All children P (x) R of a prefix (dim D) on the next slot (dim d) are
    judged at once: with G = (P (x) 1) H_S (P (x) 1)^dagger formed once,
    (P (x) R) H_S (P (x) R)^dagger = (1 (x) R) G (1 (x) R)^dagger, which is
    two batched matmuls against the stack of factors R on G reshaped to
    (D, d, D d). The stack is taken in chunks of at most MAX_HILBERT_DIM^2
    entries, one H at the size cap, and the chunks are freed before the walk
    goes deeper. Only the children that pass are built, by ``linalg.kron`` in
    the order ``composite_matrix`` uses, so every candidate that reaches
    ``classify`` is the matrix ``composite_matrix`` would build.
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
    slots = [s for s, d in enumerate(dims) if d > 1]
    if not slots:
        return []
    choices = [(axis, angle) for axis in DEFAULT_SEARCH_AXES for angle in DEFAULT_SEARCH_ANGLES]
    factors = {d: _factor_table(d) for d in {dims[s] for s in slots}}
    # reduced[k] and cut[k] judge a prefix on the first k walked slots
    hnorm = linalg.frobenius(h)
    tol_floor = max(tol, n * np.finfo(float).eps)
    reduced, cut = [], []
    for k in range(len(slots) + 1):
        d_s = math.prod(dims[s] for s in slots[:k])
        d_rest = n // d_s
        # the last level judges against H itself; tracing over d_rest = 1
        # would only copy it
        reduced.append(h if d_rest == 1 else np.trace(
            h.reshape(d_s, d_rest, d_s, d_rest), axis1=1, axis2=3) / d_rest)
        cut.append(2.0 * tol_floor * math.sqrt(n / d_rest) * hnorm)
    picks = [0] * len(slots)
    found = []

    def walk(level, prefix):
        stack = factors[dims[slots[level]]]
        for pick in _children_below_cut(prefix, stack, reduced[level + 1], cut[level + 1]):
            picks[level] = pick
            child = linalg.kron(prefix, stack[pick])
            if level + 1 < len(slots):
                walk(level + 1, child)
            elif any(picks) and (verdict := classify(child, h, tol)).kind is Symmetry.ANTICOMMUTING:
                found.append((CompositeRotation(tuple(
                    RotationSpec(s, *choices[p - 1]) for s, p in zip(slots, picks) if p
                )), verdict))

    if linalg.frobenius(2.0 * reduced[0]) < cut[0]:
        walk(0, np.ones((1, 1), dtype=np.complex128))
    return found


def _factor_table(d: int) -> np.ndarray:
    """The stack of a slot's seven factors, the identity first and then
    R_n(angle) for n in DEFAULT_SEARCH_AXES and angle in
    DEFAULT_SEARCH_ANGLES, from one eigendecomposition of n.J per axis. It
    is read-only; up to dimension CACHE_MAX_DIM it is built once per
    process."""
    if d <= CACHE_MAX_DIM:
        return _cached_factor_table(d)
    return _build_factor_table(d)


def _build_factor_table(d: int) -> np.ndarray:
    ops = build_spin_operators(SpinLabel(d - 1))
    table = [linalg.identity(d)]
    for axis in DEFAULT_SEARCH_AXES:
        eig = linalg.hermitian_eigensolve(ops.along(axis))
        table += [linalg._spectral_exp(eig, angle) for angle in DEFAULT_SEARCH_ANGLES]
    table = np.stack(table)
    table.setflags(write=False)
    return table


_cached_factor_table = functools.cache(_build_factor_table)


def _children_below_cut(prefix, stack, h_s, cut) -> list[int]:
    """The indices in ``stack`` of the factors R for which
    ||(P (x) R) H_S (P (x) R)^dagger + H_S||_F < cut, with P = ``prefix``. G
    and the blocks live only in this call, so they are freed before the walk
    goes deeper."""
    big, d = prefix.shape[0], stack.shape[1]
    m = big * d
    # g[a, i, b, j] = G[(a, i), (b, j)]: P from the left, then P^dagger from
    # the right as one matmul on the (a, i, j) x b transpose
    g = (prefix @ h_s.reshape(big, -1)).reshape(big, d, big, d).transpose(0, 1, 3, 2)
    g = (g.reshape(-1, big) @ prefix.conj().T).reshape(big, d, d, big)
    g = g.transpose(0, 1, 3, 2).reshape(big, d, m)
    chunk = max(1, MAX_HILBERT_DIM ** 2 // m ** 2)
    keep = []
    for start in range(0, len(stack), chunk):
        r = stack[start:start + chunk]
        x = (r[:, None] @ g).reshape(len(r), m * big, d) @ r.conj().transpose(0, 2, 1)
        x = x.reshape(len(r), m, m)
        x += h_s
        # every child's sum of squares in one call; a norm outside
        # frobenius's safe range is taken again by frobenius itself
        v = x.view(np.float64).reshape(len(r), -1)
        for i, norm in enumerate(np.sqrt(np.einsum("ij,ij->i", v, v)).tolist()):
            if not 1e-150 < norm < 1e150:
                norm = linalg.frobenius(x[i])
            if norm < cut:
                keep.append(start + i)
    return keep

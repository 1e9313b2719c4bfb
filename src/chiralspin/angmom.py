"""Angular momentum operator matrices for a single spin j, and embeddings of
single-spin operators into tensor-product spaces. hbar = 1 throughout.

Quantum numbers are carried as exact integers 2j and 2m; square roots are
evaluated only when matrices are filled, so no drift accumulates in the
bookkeeping.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, identity, kron

__all__ = [
    "MAX_HILBERT_DIM",
    "SpinLabel",
    "SpinOperators",
    "build_spin_operators",
    "embed",
]

# Largest Hilbert-space dimension any model or operator may have. Every dense
# complex matrix at this size takes 16 MiB, and a command holds a handful.
MAX_HILBERT_DIM = 1024


@dataclass(frozen=True, order=True)
class SpinLabel:
    """Spin quantum number j, stored exactly as the integer 2j."""

    twice_j: int

    def __post_init__(self):
        if isinstance(self.twice_j, bool) or int(self.twice_j) != self.twice_j:
            raise ValueError(f"2j must be an integer, got {self.twice_j!r}")
        if self.twice_j < 0:
            raise ValueError(f"2j must be non-negative, got {self.twice_j!r}")
        object.__setattr__(self, "twice_j", int(self.twice_j))

    @classmethod
    def parse(cls, value) -> "SpinLabel":
        """Accept "1/2", "5/2", "1", "0", or a numeric half-integer."""
        if isinstance(value, SpinLabel):
            return value
        if isinstance(value, bool) or not isinstance(value, (str, numbers.Real)):
            raise ValueError(f"invalid spin label {value!r}")
        if isinstance(value, numbers.Real):
            return cls.from_value(value)
        s = str(value).strip()
        if "/" in s:
            num, _, den = s.partition("/")
            try:
                if int(den) != 2:
                    raise ValueError
                return cls(int(num))
            except ValueError:
                raise ValueError(f"invalid spin label {value!r}") from None
        try:
            return cls.from_value(float(s))
        except ValueError:
            raise ValueError(f"invalid spin label {value!r}") from None

    @classmethod
    def from_value(cls, value) -> "SpinLabel":
        try:
            twice_f = 2.0 * float(value)
        except OverflowError:  # an int beyond the double range
            twice_f = math.inf
        if not math.isfinite(twice_f):
            raise ValueError(f"invalid spin label {value!r}")
        twice = round(twice_f)
        if abs(twice_f - twice) > 1e-9:
            raise ValueError(f"spin must be an integer or half-integer, got {value!r}")
        return cls(int(twice))

    @property
    def j(self) -> float:
        return self.twice_j / 2.0

    @property
    def dim(self) -> int:
        """Matrix dimension 2j + 1."""
        return self.twice_j + 1

    def __str__(self):
        if self.twice_j % 2 == 0:
            return str(self.twice_j // 2)
        return f"{self.twice_j}/2"


@dataclass(frozen=True)
class SpinOperators:
    """Matrices of one spin in the |j, m> basis, ordered m = +j ... -j."""

    j: SpinLabel
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    jplus: np.ndarray
    jminus: np.ndarray
    jsq: np.ndarray

    @property
    def dim(self) -> int:
        return self.j.dim

    def along(self, direction) -> np.ndarray:
        """n . J for a real 3-vector n."""
        n = np.asarray(direction, dtype=float).reshape(-1)
        if n.shape != (3,) or not np.all(np.isfinite(n)):
            raise ValueError(f"expected a finite 3-vector, got {direction!r}")
        return n[0] * self.jx + n[1] * self.jy + n[2] * self.jz


def build_spin_operators(label) -> SpinOperators:
    """Build Jx, Jy, Jz, J+, J-, J^2 for the given j.

    Jz is diagonal with m descending from +j (top-left) to -j; J+ sits on the
    superdiagonal with elements sqrt(j(j+1) - m(m+1)). Jx = (J+ + J-)/2 and
    Jy = (J+ - J-)/2i, so for j=1 the familiar 3x3 matrices come out
    entry-for-entry.
    """
    label = SpinLabel.parse(label)
    if label.dim > MAX_HILBERT_DIM:
        raise ValueError(
            f"spin j = {label} has dimension {label.dim}, above the limit {MAX_HILBERT_DIM}"
        )
    tj = label.twice_j
    twice_m = np.arange(tj, -tj - 1, -2, dtype=np.int64)
    jz = np.diag(twice_m / 2.0).astype(np.complex128)
    # sqrt(j(j+1) - m(m+1)) from exact twice-integer quantum numbers
    tm = twice_m[1:]
    jplus = np.diag(0.5 * np.sqrt(tj * (tj + 2) - tm * (tm + 2)), 1).astype(np.complex128)
    jminus = jplus.conj().T
    jx = 0.5 * (jplus + jminus)
    jy = -0.5j * (jplus - jminus)
    jsq = (tj * (tj + 2) / 4.0) * identity(label.dim)
    return SpinOperators(label, jx, jy, jz, jplus, jminus, jsq)


def embed(op, slot: int, dims) -> np.ndarray:
    """Place ``op`` on subsystem ``slot`` of a tensor product, identity on the
    other slots. The first subsystem is the slow (outermost) Kronecker factor,
    matching product states with the first spin's m outermost.
    """
    op = as_matrix(op)
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    if not 0 <= slot < len(dims):
        raise ValueError(f"slot {slot} out of range for {len(dims)} subsystems")
    if op.shape[0] != dims[slot]:
        raise ValueError(
            f"operator dimension {op.shape[0]} does not match "
            f"subsystem dimension {dims[slot]} at slot {slot}"
        )
    out = np.ones((1, 1), dtype=np.complex128)
    for s, d in enumerate(dims):
        out = kron(out, op if s == slot else identity(d))
    return out

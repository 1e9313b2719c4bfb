"""Rotation unitaries exp(-i theta n.J) and products of them across
subsystems."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .angmom import SpinLabel, SpinOperators, build_spin_operators

__all__ = [
    "CompositeRotation",
    "RotationSpec",
    "X_AXIS",
    "Y_AXIS",
    "Z_AXIS",
    "composite_matrix",
    "parse_angle",
    "rotation_matrix",
    "unit_axis",
]

X_AXIS = (1.0, 0.0, 0.0)
Y_AXIS = (0.0, 1.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)

# Axes within this slack of unit length are renormalized; worse are rejected.
AXIS_NORM_SLACK = 1e-6

_ANGLE_LITERALS = {"pi": math.pi, "pi/2": math.pi / 2.0, "pi/4": math.pi / 4.0}
_AXIS_NAMES = {X_AXIS: "x", Y_AXIS: "y", Z_AXIS: "z"}


def parse_angle(value) -> float:
    """Angle in radians; the literals "pi", "pi/2", "pi/4" (optionally
    signed) map to full-precision values."""
    if isinstance(value, bool):
        raise ValueError(f"cannot parse angle {value!r}")
    if isinstance(value, (int, float)):
        try:
            angle = float(value)
        except OverflowError:  # an int beyond the double range
            angle = math.inf
    else:
        s = str(value).strip().lower().replace(" ", "")
        sign = 1.0
        if s[:1] in ("-", "+"):
            sign = -1.0 if s[0] == "-" else 1.0
            s = s[1:]
        if s in _ANGLE_LITERALS:
            angle = sign * _ANGLE_LITERALS[s]
        else:
            try:
                angle = sign * float(s)
            except ValueError:
                raise ValueError(f"cannot parse angle {value!r}") from None
    if not math.isfinite(angle):
        raise ValueError("angle must be finite")
    return angle


def unit_axis(vec) -> tuple[float, float, float]:
    """Validate a rotation axis of three real numbers (booleans are not
    numbers here); near-unit input is silently renormalized."""
    parts = list(vec) if isinstance(vec, (list, tuple, np.ndarray)) else []
    try:
        finite = len(parts) == 3 and all(isinstance(x, numbers.Real) and not isinstance(x, bool)
                                         and math.isfinite(x) for x in parts)
    except OverflowError:  # an int beyond the double range
        finite = False
    if not finite:
        raise ValueError(f"axis must be a finite 3-vector, got {vec!r}")
    v = np.array(parts, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > AXIS_NORM_SLACK:
        # hypot neither underflows nor overflows where the squares in norm do
        raise ValueError(f"axis must have unit length, got |n| = {math.hypot(*parts):.8g}")
    v = v / norm
    return (float(v[0]), float(v[1]), float(v[2]))


def _angle_name(angle: float) -> str:
    for text, value in _ANGLE_LITERALS.items():
        if angle == value:
            return text
        if angle == -value:
            return "-" + text
    return f"{angle:.6g}"


@dataclass(frozen=True)
class RotationSpec:
    """One rotation factor: subsystem slot, unit axis, angle in radians."""

    slot: int
    axis: tuple[float, float, float]
    angle: float

    def __post_init__(self):
        slot = self.slot
        # slot % 1 is exact for ints beyond the double range, nan for nan and inf
        if (isinstance(slot, bool) or not isinstance(slot, numbers.Real)
                or slot % 1 != 0 or slot < 0):
            raise ValueError(f"slot must be a non-negative integer, got {slot!r}")
        object.__setattr__(self, "slot", int(slot))
        object.__setattr__(self, "axis", unit_axis(self.axis))
        object.__setattr__(self, "angle", parse_angle(self.angle))

    def describe(self) -> str:
        name = _AXIS_NAMES.get(self.axis)
        if name is None:
            name = "({:g},{:g},{:g})".format(*self.axis)
        return f"R[{self.slot},{name}]({_angle_name(self.angle)})"


@dataclass(frozen=True)
class CompositeRotation:
    """Product of per-subsystem rotations, at most one factor per slot."""

    factors: tuple[RotationSpec, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        slots = [f.slot for f in factors]
        if len(set(slots)) != len(slots):
            raise ValueError(f"duplicate subsystem slots in {sorted(slots)}")
        object.__setattr__(self, "factors", factors)

    def describe(self) -> str:
        if not self.factors:
            return "identity"
        return " * ".join(f.describe() for f in self.factors)


def rotation_matrix(spec: RotationSpec, ops: SpinOperators) -> np.ndarray:
    """Unitary R_n(theta) = exp(-i theta n.J) on a single spin."""
    return linalg.unitary_exp(ops.along(spec.axis), spec.angle)


def composite_matrix(rot: CompositeRotation, dims) -> np.ndarray:
    """Kronecker product of the per-slot rotations, identity on unused slots."""
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    by_slot = {f.slot: f for f in rot.factors}
    if by_slot and max(by_slot) >= len(dims):
        raise ValueError(f"slot {max(by_slot)} out of range for {len(dims)} subsystems")
    out = np.ones((1, 1), dtype=np.complex128)
    for s, d in enumerate(dims):
        if s in by_slot:
            factor = rotation_matrix(by_slot[s], build_spin_operators(SpinLabel(d - 1)))
        else:
            factor = linalg.identity(d)
        out = linalg.kron(out, factor)
    return out


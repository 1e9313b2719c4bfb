"""The Hamiltonian families this package studies, each built from angular
momentum operators together with its known anticommuting rotation partner and
energy shift (hbar = 1)."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import linalg
from .angmom import MAX_HILBERT_DIM, SpinLabel, build_spin_operators, embed
from .rotations import (
    CompositeRotation,
    RotationSpec,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    parse_angle,
)

__all__ = [
    "BuiltModel",
    "CrossedFields",
    "CrossedFieldsShifted",
    "GeneralField",
    "MODEL_TAGS",
    "ModelSpec",
    "OHMolecule",
    "ToyCoupled",
    "TriaxialRotor",
    "build",
    "hilbert_dim",
    "iter_parameter_sweep",
    "load_model_file",
    "model_tag",
    "parameter_names",
    "parameter_sweep",
    "parse_model",
    "read_json_file",
    "shifted_hamiltonian",
    "subsystem_dims",
]

_SPIN_FIELDS = ("j", "j1", "j2")

# Chiral condition on the rotor reciprocals is measure-zero; the tolerance
# only absorbs round-off in otherwise exact input.
TRIAXIAL_CONDITION_RTOL = 1e-10


class ModelSpec:
    """Base of the model specs: one frozen dataclass per family, whose
    fields are spin labels (``j``, ``j1``, ``j2``) and real parameters.
    Construction parses the labels and makes every parameter a finite float;
    numeric parameters also accept the angle literals of ``parse_angle``.

    ``assemble(ops)`` takes each slot's spin operators and returns H - shift*I
    from the family's own algebra, the shift, the documented partner (None
    when the family's condition fails) and a note on the condition."""

    tag: ClassVar[str]

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name in _SPIN_FIELDS:
                object.__setattr__(self, f.name, SpinLabel.parse(value))
                continue
            if isinstance(value, bool) or not isinstance(value, (str, numbers.Real)):
                raise ValueError(f"parameter {f.name!r} must be a number, got {value!r}")
            try:
                value = parse_angle(value) if isinstance(value, str) else float(value)
            except OverflowError:  # an int beyond the double range
                value = math.inf
            if not math.isfinite(value):
                raise ValueError(f"parameter {f.name!r} must be finite")
            object.__setattr__(self, f.name, value)


@dataclass(frozen=True)
class CrossedFields(ModelSpec):
    """a Jx + b Jy: one spin in two crossed transverse fields."""

    j: SpinLabel
    a: float
    b: float

    tag: ClassVar[str] = "crossed_fields"

    def assemble(self, ops):
        k = self.a * ops[0].jx + self.b * ops[0].jy
        return k, 0.0, _partner((0, Z_AXIS, math.pi)), "a pi rotation about z flips both Jx and Jy"


@dataclass(frozen=True)
class CrossedFieldsShifted(ModelSpec):
    """a Jx + b Jy + c J^2: crossed fields plus the free rotational energy.

    The J^2 term is the constant c j(j+1) at fixed j, so it only shifts the
    spectrum; the shifted Hamiltonian a Jx + b Jy is the chiral-symmetric part.
    """

    j: SpinLabel
    a: float
    b: float
    c: float

    tag: ClassVar[str] = "crossed_fields_shifted"

    def assemble(self, ops):
        tj = self.j.twice_j
        k = self.a * ops[0].jx + self.b * ops[0].jy
        return (k, self.c * tj * (tj + 2) / 4.0, _partner((0, Z_AXIS, math.pi)),
                "c J^2 is the constant c j(j+1); the remainder is chiral")


@dataclass(frozen=True)
class GeneralField(ModelSpec):
    """a Jx + b Jy + c Jz: the angular momentum projected along an arbitrary
    field direction."""

    j: SpinLabel
    a: float
    b: float
    c: float

    tag: ClassVar[str] = "general_field"

    def assemble(self, ops):
        if self.a or self.b:
            # scale (a, b) by the power of two nearest max(|a|, |b|) so that
            # subnormal fields keep their digits; the axis changes only in
            # components below about 1e-307
            e = math.frexp(max(abs(self.a), abs(self.b)))[1]
            a, b = math.ldexp(self.a, -e), math.ldexp(self.b, -e)
            plane = math.hypot(a, b)
            axis = (b / plane, -a / plane, 0.0)
        else:
            axis = X_AXIS  # field along z; any transverse axis works
        k = self.a * ops[0].jx + self.b * ops[0].jy + self.c * ops[0].jz
        return (k, 0.0, _partner((0, axis, math.pi)),
                "a pi rotation about an axis perpendicular to (a, b, c) flips a.J")


@dataclass(frozen=True)
class TriaxialRotor(ModelSpec):
    """Jx^2/2Ix + Jy^2/2Iy + Jz^2/2Iz: rigid rotor with three moments of
    inertia. Jz^2 = j(j+1) - Jx^2 - Jy^2 makes the shift j(j+1)/2Iz and the
    remainder (1/2Ix - 1/2Iz) Jx^2 + (1/2Iy - 1/2Iz) Jy^2. Chiral only when
    1/Ix + 1/Iy = 2/Iz, where the remainder collapses to D (Jx^2 - Jy^2)."""

    j: SpinLabel
    ix: float
    iy: float
    iz: float

    tag: ClassVar[str] = "triaxial_rotor"

    def __post_init__(self):
        super().__post_init__()
        if min(self.ix, self.iy, self.iz) <= 0.0:
            raise ValueError("moments of inertia must be strictly positive")

    def assemble(self, ops):
        tj = self.j.twice_j
        jj = tj * (tj + 2) / 4.0
        shift = _require_shift(self, jj / (2.0 * self.iz))
        # no entry of Jx^2 or Jy^2 exceeds j(j+1), so with each 1/2I j(j+1)
        # at most 2^1022 both products and their sum stay finite; a rotor
        # outside that bound has ||H - shift||_F above linalg.MAX_NORM anyway
        bx, by, bz = (1.0 / (2.0 * i) for i in (self.ix, self.iy, self.iz))
        for name, b in (("ix", bx), ("iy", by), ("iz", bz)):
            if not (math.isfinite(b) and b * jj <= 2.0 ** 1022):
                raise ValueError(
                    f"parameter {name!r} = {getattr(self, name):.3e} is too small: "
                    f"1/2{name} = {b:.3e} overflows the rotor terms at j = {self.j}"
                )
        jx, jy = ops[0].jx, ops[0].jy
        k = (bx - bz) * (jx @ jx) + (by - bz) * (jy @ jy)
        residual = abs(1.0 / self.ix + 1.0 / self.iy - 2.0 / self.iz)
        scale = max(1.0 / self.ix, 1.0 / self.iy, 1.0 / self.iz)
        met = residual <= TRIAXIAL_CONDITION_RTOL * scale
        note = (
            f"|1/Ix + 1/Iy - 2/Iz| = {residual:.3e} "
            f"(relative {residual / scale:.3e}); chiral requires it to vanish"
        )
        partner = _partner((0, Z_AXIS, math.pi / 2.0)) if met else None
        return k, shift, partner, note


@dataclass(frozen=True)
class ToyCoupled(ModelSpec):
    """A J1y J2y + B J1z J2z: two spins coupled along y and z but not x."""

    j1: SpinLabel
    j2: SpinLabel
    A: float
    B: float

    tag: ClassVar[str] = "toy_coupled"

    def assemble(self, ops):
        o1, o2 = ops
        k = self.A * linalg.kron(o1.jy, o2.jy) + self.B * linalg.kron(o1.jz, o2.jz)
        return (k, 0.0, _partner((0, Y_AXIS, math.pi), (1, Z_AXIS, math.pi)),
                "rotating spin 1 about y and spin 2 about z flips both couplings")


@dataclass(frozen=True)
class OHMolecule(ModelSpec):
    """Delta J1z + B J2z + E J1x (J2z cos(theta) - J2x sin(theta)): a 1/2 x 3/2
    ground-state doublet in combined static fields crossed at angle theta."""

    j1: SpinLabel = SpinLabel(1)
    j2: SpinLabel = SpinLabel(3)
    delta: float = 1.0
    B: float = 0.0
    E: float = 1.0
    theta: float = math.pi / 4.0

    tag: ClassVar[str] = "oh_molecule"

    def assemble(self, ops):
        o1, o2 = ops
        dims = subsystem_dims(self)
        tilted = math.cos(self.theta) * o2.jz - math.sin(self.theta) * o2.jx
        h = (
            self.delta * embed(o1.jz, 0, dims)
            + self.B * embed(o2.jz, 1, dims)
            + self.E * linalg.kron(o1.jx, tilted)
        )
        return (h, 0.0, _partner((0, X_AXIS, math.pi), (1, Y_AXIS, math.pi)),
                "pi about x on spin 1 and pi about y on spin 2 flips every term")


def _partner(*factors) -> CompositeRotation:
    """The product of one rotation per (slot, axis, angle) factor."""
    return CompositeRotation(tuple(RotationSpec(*f) for f in factors))


MODEL_TAGS = {
    cls.tag: cls
    for cls in (
        CrossedFields,
        CrossedFieldsShifted,
        GeneralField,
        TriaxialRotor,
        ToyCoupled,
        OHMolecule,
    )
}


def model_tag(spec) -> str:
    return type(spec).tag


def spin_labels(spec) -> tuple[SpinLabel, ...]:
    return tuple(
        getattr(spec, name) for name in _SPIN_FIELDS if hasattr(spec, name)
    )


def subsystem_dims(spec) -> tuple[int, ...]:
    return tuple(label.dim for label in spin_labels(spec))


def hilbert_dim(spec) -> int:
    """Dimension of the model's Hilbert space, the product of its subsystem
    dims; above ``MAX_HILBERT_DIM`` it raises before anything is built."""
    dim = math.prod(subsystem_dims(spec))
    if dim > MAX_HILBERT_DIM:
        raise ValueError(
            f"model {model_tag(spec)!r} has dimension {dim}, above the limit {MAX_HILBERT_DIM}"
        )
    return dim


def parameter_names(spec) -> tuple[str, ...]:
    """Real parameters of a model spec (everything except the spin labels)."""
    cls = spec if isinstance(spec, type) else type(spec)
    return tuple(f.name for f in dataclasses.fields(cls) if f.name not in _SPIN_FIELDS)


@dataclass(frozen=True)
class BuiltModel:
    """A constructed model: ``shifted`` = H - shift*I, the part that
    anticommutes with ``chiral_partner`` (the shift is zero for most
    families), and its symmetry data. The partner is None when the family's
    condition fails for these parameters, with the reason in ``condition_note``.
    """

    spec: ModelSpec
    shifted: np.ndarray
    shift: float
    chiral_partner: CompositeRotation | None
    condition_note: str

    @property
    def hamiltonian(self) -> np.ndarray:
        if self.shift == 0.0:
            return self.shifted
        return self.shifted + self.shift * linalg.identity(self.shifted.shape[0])

    @property
    def dims(self) -> tuple[int, ...]:
        return subsystem_dims(self.spec)

    @property
    def chiral_condition_met(self) -> bool:
        return self.chiral_partner is not None


def _require_shift(spec, shift: float) -> float:
    if not abs(shift) <= linalg.MAX_NORM:
        raise ValueError(
            f"model {model_tag(spec)!r} has |shift| {abs(shift):.3e}, "
            f"above the limit {linalg.MAX_NORM:.3e}"
        )
    return shift


def _assembled(spec, ops) -> BuiltModel:
    """The model from its slots' spin operators; a shift or a norm above
    ``linalg.MAX_NORM`` raises."""
    shifted, shift, partner, note = spec.assemble(ops)
    _require_shift(spec, shift)
    linalg.require_hermitian(shifted, "model Hamiltonian")
    return BuiltModel(spec, shifted, shift, partner, note)


def _slot_operators(spec):
    """One ``build_spin_operators`` per slot, after the size check."""
    hilbert_dim(spec)
    return [build_spin_operators(label) for label in spin_labels(spec)]


def build(spec) -> BuiltModel:
    """Assemble H - shift*I, the shift constant, and the chiral partner; a
    shift or a norm above ``linalg.MAX_NORM`` raises."""
    return _assembled(spec, _slot_operators(spec))


def shifted_hamiltonian(model: BuiltModel) -> np.ndarray:
    """H - shift*I, the part that carries the chiral symmetry. The family
    builds it directly, so a remainder that vanishes (the spherical rotor)
    is the exact zero matrix."""
    return model.shifted


def iter_parameter_sweep(spec, param_name: str, values):
    """Yield the model at each value of one real parameter. The name and
    size checks and the spin operators are done once, before the first
    model; only the parameter changes between models."""
    names = parameter_names(spec)
    if param_name not in names:
        raise ValueError(
            f"unknown parameter {param_name!r} for model {model_tag(spec)!r}; "
            f"expected one of: {', '.join(names)}"
        )
    ops = _slot_operators(spec)
    for v in values:
        yield _assembled(dataclasses.replace(spec, **{param_name: float(v)}), ops)


def parameter_sweep(spec, param_name: str, values) -> list[BuiltModel]:
    """Rebuild the model at each value of one real parameter."""
    return list(iter_parameter_sweep(spec, param_name, values))


def parse_model(doc) -> ModelSpec:
    """Parse one model document: {"model": tag, "j": ..., "params": {...}}.

    Coupled-spin models take "j1"/"j2" instead of "j". Unknown keys are
    rejected at both levels; numeric parameters also accept the angle
    literals "pi", "pi/2", "pi/4".
    """
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    unknown = set(doc) - {"model", "params", *_SPIN_FIELDS}
    if unknown:
        raise ValueError(f"unknown keys in model document: {sorted(unknown)}")
    tag = doc.get("model")
    cls = MODEL_TAGS.get(tag)
    if cls is None:
        raise ValueError(f"unknown model {tag!r}; expected one of: {', '.join(sorted(MODEL_TAGS))}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for name in _SPIN_FIELDS:
        if name in doc:
            if name not in fields:
                raise ValueError(f"model {tag!r} does not take {name!r}")
            kwargs[name] = SpinLabel.parse(doc[name])
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ValueError('"params" must be an object')
    for name, value in params.items():
        if name in _SPIN_FIELDS or name not in fields:
            raise ValueError(f"unknown parameter {name!r} for model {tag!r}")
        kwargs[name] = value
    for name, f in fields.items():
        if name in kwargs:
            continue
        if f.default is dataclasses.MISSING:
            kind = "spin label" if name in _SPIN_FIELDS else "parameter"
            raise ValueError(f"model {tag!r} requires {kind} {name!r}")
    return cls(**kwargs)


def read_json_file(path):
    """The JSON document in a file; a syntax error names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None


def load_model_file(path, doc=None) -> ModelSpec:
    """Parse the model document in a file, or ``doc`` when the caller has
    already read it with ``read_json_file``; every error names the file."""
    if doc is None:
        doc = read_json_file(path)
    try:
        return parse_model(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

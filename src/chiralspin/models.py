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
    numeric parameters also accept the angle literals of ``parse_angle``."""

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


@dataclass(frozen=True)
class CrossedFieldsShifted(ModelSpec):
    """a Jx + b Jy + c J^2: crossed fields plus the free rotational energy.

    The J^2 term is the constant c j(j+1) at fixed j, so it only shifts the
    spectrum; the shifted Hamiltonian is the chiral-symmetric part.
    """

    j: SpinLabel
    a: float
    b: float
    c: float

    tag: ClassVar[str] = "crossed_fields_shifted"


@dataclass(frozen=True)
class GeneralField(ModelSpec):
    """a Jx + b Jy + c Jz: the angular momentum projected along an arbitrary
    field direction."""

    j: SpinLabel
    a: float
    b: float
    c: float

    tag: ClassVar[str] = "general_field"


@dataclass(frozen=True)
class TriaxialRotor(ModelSpec):
    """Jx^2/2Ix + Jy^2/2Iy + Jz^2/2Iz: rigid rotor with three moments of
    inertia. Chiral only when 1/Ix + 1/Iy = 2/Iz, where the shifted
    Hamiltonian collapses to D (Jx^2 - Jy^2)."""

    j: SpinLabel
    ix: float
    iy: float
    iz: float

    tag: ClassVar[str] = "triaxial_rotor"

    def __post_init__(self):
        super().__post_init__()
        if min(self.ix, self.iy, self.iz) <= 0.0:
            raise ValueError("moments of inertia must be strictly positive")


@dataclass(frozen=True)
class ToyCoupled(ModelSpec):
    """A J1y J2y + B J1z J2z: two spins coupled along y and z but not x."""

    j1: SpinLabel
    j2: SpinLabel
    A: float
    B: float

    tag: ClassVar[str] = "toy_coupled"


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
    """A constructed Hamiltonian with its documented symmetry data.

    ``shift`` is the constant removed so that the remainder anticommutes with
    ``chiral_partner`` (zero for most families); ``chiral_condition_met``
    records whether the family's symmetry condition holds for these
    parameters, with the reason in ``condition_note``.
    """

    spec: ModelSpec
    hamiltonian: np.ndarray
    dims: tuple[int, ...]
    shift: float
    chiral_partner: CompositeRotation | None
    chiral_condition_met: bool
    condition_note: str


def _single(axis, angle) -> CompositeRotation:
    return CompositeRotation((RotationSpec(0, axis, angle),))


def build(spec) -> BuiltModel:
    """Assemble the Hamiltonian matrix, shift constant, and chiral partner."""
    hilbert_dim(spec)
    ops = [build_spin_operators(label) for label in spin_labels(spec)]
    dims = subsystem_dims(spec)
    if isinstance(spec, CrossedFields):
        h = spec.a * ops[0].jx + spec.b * ops[0].jy
        built = BuiltModel(
            spec, h, dims, 0.0, _single(Z_AXIS, math.pi), True,
            "a pi rotation about z flips both Jx and Jy",
        )
    elif isinstance(spec, CrossedFieldsShifted):
        h = spec.a * ops[0].jx + spec.b * ops[0].jy + spec.c * ops[0].jsq
        shift = spec.c * spec.j.twice_j * (spec.j.twice_j + 2) / 4.0
        built = BuiltModel(
            spec, h, dims, shift, _single(Z_AXIS, math.pi), True,
            "c J^2 is the constant c j(j+1); the remainder is chiral",
        )
    elif isinstance(spec, GeneralField):
        h = spec.a * ops[0].jx + spec.b * ops[0].jy + spec.c * ops[0].jz
        if spec.a or spec.b:
            # scale (a, b) by the power of two nearest max(|a|, |b|) so that
            # subnormal fields keep their digits; the axis changes only in
            # components below about 1e-307
            e = math.frexp(max(abs(spec.a), abs(spec.b)))[1]
            a, b = math.ldexp(spec.a, -e), math.ldexp(spec.b, -e)
            plane = math.hypot(a, b)
            axis = (b / plane, -a / plane, 0.0)
        else:
            axis = X_AXIS  # field along z; any transverse axis works
        built = BuiltModel(
            spec, h, dims, 0.0, _single(axis, math.pi), True,
            "a pi rotation about an axis perpendicular to (a, b, c) flips a.J",
        )
    elif isinstance(spec, TriaxialRotor):
        jx, jy, jz = ops[0].jx, ops[0].jy, ops[0].jz
        h = jx @ jx / (2.0 * spec.ix) + jy @ jy / (2.0 * spec.iy) + jz @ jz / (2.0 * spec.iz)
        shift = spec.j.twice_j * (spec.j.twice_j + 2) / 4.0 / (2.0 * spec.iz)
        residual = abs(1.0 / spec.ix + 1.0 / spec.iy - 2.0 / spec.iz)
        scale = max(1.0 / spec.ix, 1.0 / spec.iy, 1.0 / spec.iz)
        met = residual <= TRIAXIAL_CONDITION_RTOL * scale
        note = (
            f"|1/Ix + 1/Iy - 2/Iz| = {residual:.3e} "
            f"(relative {residual / scale:.3e}); chiral requires it to vanish"
        )
        built = BuiltModel(
            spec, h, dims, shift,
            _single(Z_AXIS, math.pi / 2.0) if met else None, met, note,
        )
    elif isinstance(spec, ToyCoupled):
        ops1, ops2 = ops
        h = spec.A * linalg.kron(ops1.jy, ops2.jy) + spec.B * linalg.kron(ops1.jz, ops2.jz)
        partner = CompositeRotation(
            (RotationSpec(0, Y_AXIS, math.pi), RotationSpec(1, Z_AXIS, math.pi))
        )
        built = BuiltModel(
            spec, h, dims, 0.0, partner, True,
            "rotating spin 1 about y and spin 2 about z flips both couplings",
        )
    elif isinstance(spec, OHMolecule):
        ops1, ops2 = ops
        tilted = math.cos(spec.theta) * ops2.jz - math.sin(spec.theta) * ops2.jx
        h = (
            spec.delta * embed(ops1.jz, 0, dims)
            + spec.B * embed(ops2.jz, 1, dims)
            + spec.E * linalg.kron(ops1.jx, tilted)
        )
        partner = CompositeRotation(
            (RotationSpec(0, X_AXIS, math.pi), RotationSpec(1, Y_AXIS, math.pi))
        )
        built = BuiltModel(
            spec, h, dims, 0.0, partner, True,
            "pi about x on spin 1 and pi about y on spin 2 flips every term",
        )
    else:
        raise TypeError(f"unknown model spec {type(spec).__name__}")
    linalg.require_hermitian(built.hamiltonian, "model Hamiltonian")
    return built


def shifted_hamiltonian(model: BuiltModel) -> np.ndarray:
    """H - shift*I, the part that carries the chiral symmetry.

    A remainder that vanishes to construction precision (the spherical rotor,
    where D = 0) is returned as the exact zero matrix, so downstream
    classification degenerates cleanly instead of amplifying round-off.
    """
    dim = model.hamiltonian.shape[0]
    remainder = model.hamiltonian - model.shift * linalg.identity(dim)
    if linalg.frobenius(remainder) <= 1e-12 * max(1.0, linalg.frobenius(model.hamiltonian)):
        return np.zeros((dim, dim), dtype=np.complex128)
    return remainder


def parameter_sweep(spec, param_name: str, values) -> list[BuiltModel]:
    """Rebuild the model at each value of one real parameter."""
    names = parameter_names(spec)
    if param_name not in names:
        raise ValueError(
            f"unknown parameter {param_name!r} for model {model_tag(spec)!r}; "
            f"expected one of: {', '.join(names)}"
        )
    return [build(dataclasses.replace(spec, **{param_name: float(v)})) for v in values]


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

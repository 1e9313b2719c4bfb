"""The Hamiltonian families this package studies, each built from angular
momentum operators together with its known anticommuting rotation partner and
energy shift (hbar = 1)."""

from __future__ import annotations

import dataclasses
import functools
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
    "iter_parameter_sweep",
    "load_model_file",
    "parameter_names",
    "parse_model",
    "read_json_file",
    "shifted_hamiltonian",
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
    ``check_parameters()`` then applies the family's own rule, if it has one.

    H - shift*I is a real combination of Hermitian operator products, so it
    is Hermitian by construction. ``terms(ops)`` takes each slot's spin
    operators and returns the products; ``coefficients()`` returns one real
    coefficient per term and the shift. The terms depend on the spin labels
    and on the parameters named in ``term_parameters`` alone, so a scan of
    any other parameter builds them once. ``condition()`` returns the
    documented partner (None when the family's condition fails) and a note on
    the condition; neither depends on the spin operators."""

    tag: ClassVar[str]
    term_parameters: ClassVar[tuple[str, ...]] = ()

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
            except ValueError as exc:  # a string parse_angle refuses
                raise ValueError(f"parameter {f.name!r}: {exc}") from None
            object.__setattr__(self, f.name, _finite(f.name, value))
        self.check_parameters()

    def check_parameters(self):
        """The family's own rule on its parsed parameters; most have none."""


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"parameter {name!r} must be finite")
    return value


@dataclass(frozen=True)
class CrossedFields(ModelSpec):
    """a Jx + b Jy: one spin in two crossed transverse fields."""

    j: SpinLabel
    a: float
    b: float

    tag: ClassVar[str] = "crossed_fields"

    def terms(self, ops):
        return ops[0].jx, ops[0].jy

    def coefficients(self):
        return (self.a, self.b), 0.0

    def condition(self):
        return _partner((0, Z_AXIS, math.pi)), "a pi rotation about z flips both Jx and Jy"


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

    def terms(self, ops):
        return ops[0].jx, ops[0].jy

    def coefficients(self):
        tj = self.j.twice_j
        return (self.a, self.b), self.c * tj * (tj + 2) / 4.0

    def condition(self):
        return _partner((0, Z_AXIS, math.pi)), "c J^2 is the constant c j(j+1); the remainder is chiral"


@dataclass(frozen=True)
class GeneralField(ModelSpec):
    """a Jx + b Jy + c Jz: the angular momentum projected along an arbitrary
    field direction."""

    j: SpinLabel
    a: float
    b: float
    c: float

    tag: ClassVar[str] = "general_field"

    def terms(self, ops):
        return ops[0].jx, ops[0].jy, ops[0].jz

    def coefficients(self):
        return (self.a, self.b, self.c), 0.0

    def condition(self):
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
        return (_partner((0, axis, math.pi)),
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

    def check_parameters(self):
        if min(self.ix, self.iy, self.iz) <= 0.0:
            raise ValueError("moments of inertia must be strictly positive")

    def terms(self, ops):
        jx, jy = ops[0].jx, ops[0].jy
        return jx @ jx, jy @ jy

    def coefficients(self):
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
        return (bx - bz, by - bz), shift

    def condition(self):
        residual = abs(1.0 / self.ix + 1.0 / self.iy - 2.0 / self.iz)
        scale = max(1.0 / self.ix, 1.0 / self.iy, 1.0 / self.iz)
        met = residual <= TRIAXIAL_CONDITION_RTOL * scale
        note = (
            f"|1/Ix + 1/Iy - 2/Iz| = {residual:.3e} "
            f"(relative {residual / scale:.3e}); chiral requires it to vanish"
        )
        return (_partner((0, Z_AXIS, math.pi / 2.0)) if met else None), note


@dataclass(frozen=True)
class ToyCoupled(ModelSpec):
    """A J1y J2y + B J1z J2z: two spins coupled along y and z but not x."""

    j1: SpinLabel
    j2: SpinLabel
    A: float
    B: float

    tag: ClassVar[str] = "toy_coupled"

    def terms(self, ops):
        o1, o2 = ops
        return linalg.kron(o1.jy, o2.jy), linalg.kron(o1.jz, o2.jz)

    def coefficients(self):
        return (self.A, self.B), 0.0

    def condition(self):
        return (_partner((0, Y_AXIS, math.pi), (1, Z_AXIS, math.pi)),
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
    # theta sits inside the coupling term: split into E cos(theta) J1x J2z
    # and -E sin(theta) J1x J2x, H would differ in its last bits
    term_parameters: ClassVar[tuple[str, ...]] = ("theta",)

    def terms(self, ops):
        o1, o2 = ops
        dims = (o1.dim, o2.dim)
        tilted = math.cos(self.theta) * o2.jz - math.sin(self.theta) * o2.jx
        return embed(o1.jz, 0, dims), embed(o2.jz, 1, dims), linalg.kron(o1.jx, tilted)

    def coefficients(self):
        return (self.delta, self.B, self.E), 0.0

    def condition(self):
        return (_partner((0, X_AXIS, math.pi), (1, Y_AXIS, math.pi)),
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


def spin_labels(spec) -> tuple[SpinLabel, ...]:
    return tuple(
        getattr(spec, name) for name in _SPIN_FIELDS if hasattr(spec, name)
    )


def parameter_names(spec) -> tuple[str, ...]:
    """Real parameters of a model spec (everything except the spin labels)."""
    return tuple(f.name for f in dataclasses.fields(spec) if f.name not in _SPIN_FIELDS)


@dataclass(frozen=True, eq=False)
class BuiltModel:
    """A constructed model: ``shifted`` = H - shift*I, the part that
    anticommutes with ``chiral_partner`` (the shift is zero for most
    families), and its symmetry data. The partner is None when the family's
    condition fails for these parameters, with the reason in ``condition_note``.

    The partner and the note come from ``spec.condition()`` the first time
    either is read, once per model: a scan step and ``spectrum`` read
    neither. A model compares and hashes by identity, as its matrix has no
    single truth value.
    """

    spec: ModelSpec
    shifted: np.ndarray
    shift: float

    @functools.cached_property
    def _condition(self) -> tuple[CompositeRotation | None, str]:
        return self.spec.condition()

    @property
    def chiral_partner(self) -> CompositeRotation | None:
        return self._condition[0]

    @property
    def condition_note(self) -> str:
        return self._condition[1]

    @property
    def hamiltonian(self) -> np.ndarray:
        if self.shift == 0.0:
            return self.shifted
        return self.shifted + self.shift * linalg.identity(self.shifted.shape[0])

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(label.dim for label in spin_labels(self.spec))

    @property
    def chiral_condition_met(self) -> bool:
        return self.chiral_partner is not None


def _require_shift(spec, shift: float) -> float:
    if not abs(shift) <= linalg.MAX_NORM:
        raise ValueError(
            f"model {spec.tag!r} has |shift| {abs(shift):.3e}, "
            f"above the limit {linalg.MAX_NORM:.3e}"
        )
    return shift


def _assembled(spec, terms) -> BuiltModel:
    """The model as the sum of the spec's coefficients times ``terms``, in
    the family's order. A real combination of Hermitian terms is Hermitian,
    so only what the values can break is checked: an entry that overflowed,
    and a shift or a norm above ``linalg.MAX_NORM``."""
    coefficients, shift = spec.coefficients()
    _require_shift(spec, shift)
    shifted = coefficients[0] * terms[0]
    for c, term in zip(coefficients[1:], terms[1:], strict=True):
        shifted += c * term
    norm = linalg.frobenius(linalg.as_matrix(shifted))
    if not norm <= linalg.MAX_NORM:
        raise ValueError(f"model Hamiltonian has Frobenius norm {norm:.3e}, above the limit {linalg.MAX_NORM:.3e}")
    return BuiltModel(spec, shifted, shift)


def _slot_operators(spec):
    """One ``build_spin_operators`` per slot, after the size check: the
    product of the slot dims above ``MAX_HILBERT_DIM`` raises before anything
    is built."""
    labels = spin_labels(spec)
    dim = math.prod(label.dim for label in labels)
    if dim > MAX_HILBERT_DIM:
        raise ValueError(f"model {spec.tag!r} has dimension {dim}, above the limit {MAX_HILBERT_DIM}")
    return [build_spin_operators(label) for label in labels]


def build(spec) -> BuiltModel:
    """Assemble H - shift*I and the shift constant; a shift or a norm above
    ``linalg.MAX_NORM`` raises. The model is also checked for Hermiticity,
    which guards the families' terms; a scan step leaves that check to its
    eigensolve. The chiral partner is built when read."""
    model = _assembled(spec, spec.terms(_slot_operators(spec)))
    linalg.require_hermitian(model.shifted, "model Hamiltonian")
    return model


def shifted_hamiltonian(model: BuiltModel) -> np.ndarray:
    """H - shift*I, the part that carries the chiral symmetry. The family
    builds it directly, so a remainder that vanishes (the spherical rotor)
    is the exact zero matrix."""
    return model.shifted


def _with_parameter(spec, name: str, value):
    """``spec`` with one parameter set to the float ``value``, checked as
    construction checks it. The other fields were parsed and checked when
    ``spec`` was made, so they are copied, not parsed again."""
    step = object.__new__(type(spec))
    step.__dict__.update(spec.__dict__)
    step.__dict__[name] = _finite(name, float(value))
    step.check_parameters()
    return step


def iter_parameter_sweep(spec, param_name: str, values):
    """Yield the model at each value of one real parameter. The name and
    size checks, the spin operators and the operator terms are done once,
    before the first model; only the coefficients change between models,
    unless the parameter is one the terms depend on."""
    names = parameter_names(spec)
    if param_name not in names:
        raise ValueError(
            f"unknown parameter {param_name!r} for model {spec.tag!r}; "
            f"expected one of: {', '.join(names)}"
        )
    ops = _slot_operators(spec)
    terms = None if param_name in spec.term_parameters else spec.terms(ops)
    for v in values:
        step = _with_parameter(spec, param_name, v)
        yield _assembled(step, step.terms(ops) if terms is None else terms)


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
    """The JSON document in a file; a syntax error or nesting too deep for
    the decoder names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def load_model_file(path, doc=None) -> ModelSpec:
    """Parse the model document in a file, or ``doc`` when the caller has
    already read it with ``read_json_file``; every error names the file."""
    if doc is None:
        doc = read_json_file(path)
    try:
        return parse_model(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

"""Shared test utilities: seeded random matrices and model draws, and the
brute-force partner search the pruned one is checked against."""

import itertools
import json
import math

import numpy as np

from chiralspin import linalg
from chiralspin.angmom import SpinLabel, build_spin_operators, embed
from chiralspin.chiral import (
    DEFAULT_SEARCH_ANGLES,
    DEFAULT_SEARCH_AXES,
    DEFAULT_TOL,
    Symmetry,
    classify,
)
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
    order."""
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
    for combo in itertools.product(per_slot, repeat=len(dims)):
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

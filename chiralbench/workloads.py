"""Seeded inputs for the three workloads, with the reference answer of every
operation computed when the inputs are made.

The seed draws parameter values only. Which commands run, on which families,
dimensions and chain shapes, is fixed, so every seed asks the program for the
same amount of work and a run's figures compare across seeds.

Regenerate the inputs of one run without running anything:

    python3 chiralbench/workloads.py --workload solve --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles

WORKLOADS = ("solve", "sweep", "search")

# solve: spectrum --method auto and charpoly on the single-spin field
# families at dims 2-13, which reach all three routes (radicals to dim 9,
# hypergeometric at 10-11, numeric from 12). See POLYNOMIAL_REGION.
FIELD_FAMILIES = ("crossed_fields", "crossed_fields_shifted", "general_field")
POLY_DIMS = range(2, 14)
# solve: verify and spectrum --method numeric on all six families, at dims
# 5-15 so that no single large, parameter-dependent eigensolve dominates a
# round.
SOLVE_MODELS = (
    ("crossed_fields", ("5/2",)),
    ("crossed_fields", ("11/2",)),
    ("crossed_fields_shifted", ("3",)),
    ("crossed_fields_shifted", ("5",)),
    ("general_field", ("9/2",)),
    ("general_field", ("11/2",)),
    ("triaxial_rotor", ("2",)),
    ("triaxial_rotor", ("9/2",)),
    ("toy_coupled", ("1/2", "3/2")),
    ("toy_coupled", ("1", "3/2")),
    ("oh_molecule", ("1/2", "3/2")),
    ("oh_molecule", ("1", "2")),
)
# sweep: (family, spins, scanned parameter, steps); every point stays chiral.
# Each is drawn SWEEP_DRAWS times per round. Steps are set so that one scan
# takes about the same time in every family, and the median latency is a
# median over all of them.
SWEEPS = (
    ("general_field", ("35/2",), "c", 5),
    ("crossed_fields_shifted", ("27/2",), "a", 7),
    ("toy_coupled", ("3/2", "2"), "A", 33),
    ("oh_molecule", ("3/2", "5/2"), "E", 9),
)
SWEEP_DRAWS = 3
# search: chains of 2j+1-dim slots with nearest-neighbour couplings on the
# given axes and local fields on the given axes; half have a partner in the
# candidate family and half have none.
CHAINS = (
    # (2j, slots, coupled axes, field axes, has a partner)
    (1, 4, "xy", "z", True),
    (1, 3, "xyz", "xyz", False),
    (2, 3, "xy", "", True),
    (2, 3, "xyz", "", False),
    (1, 3, "xy", "", True),
    (1, 3, "xy", "x", False),
    (2, 3, "xy", "z", True),
    (2, 3, "xyz", "y", False),
    (1, 2, "xy", "z", True),
    (1, 2, "xyz", "", False),
)
SEARCH_MODELS = (("toy_coupled", ("3/2", "1")), ("oh_molecule", ("1/2", "3/2")))

# The polynomial commands leave out the regions where the program is known
# to print wrong answers (see the FOUND lines in CHANGES.md): ||H||_F must
# exceed 1 with margin; the lowest coefficient that is nonzero in exact
# arithmetic, the one the program's zero-root count reads, must stand at
# least 1e-9 of the largest, a decade above the program's 1e-10 zero cut, in
# the polynomial of H and of H/||H||_F; and dim <= 13, well below the
# dim 20-22 where the trace recursion turns complex. For the field families
# the scaled ratio depends on j alone (3.1e-9 at dim 12, 1.4e-8 at dim 13),
# so no seed moves an input towards the cut.
POLYNOMIAL_REGION = {"min_norm": 2.0, "min_coeff_ratio": 1e-9, "max_dim": 13}


@dataclass
class Op:
    """One CLI command, the file it writes, and its reference answer."""

    name: str
    kind: str
    argv: list
    out: Path
    expect: dict


def _signed(rng, lo=0.5, hi=1.5) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))


def _label(tj: int) -> str:
    return str(tj // 2) if tj % 2 == 0 else f"{tj}/2"


def _spin_keys(spins) -> dict:
    if len(spins) == 1:
        return {"j": spins[0]}
    return {"j1": spins[0], "j2": spins[1]}


def draw_model(rng, family, spins) -> dict:
    """A model document with parameters for which the documented partner
    exists and ||H||_F >= 2."""
    if family in FIELD_FAMILIES:
        size = rng.uniform(3.0, 5.0)
        if family == "general_field":
            v = rng.normal(size=3)
        else:
            phi = rng.uniform(0.0, 2.0 * math.pi)
            v = np.array([math.cos(phi), math.sin(phi), 0.0])
        v = size * v / np.linalg.norm(v)
        params = {"a": float(v[0]), "b": float(v[1])}
        if family == "general_field":
            params["c"] = float(v[2])
        if family == "crossed_fields_shifted":
            params["c"] = float(rng.uniform(-1.0, 1.0))
    elif family == "triaxial_rotor":
        ix, iy = rng.uniform(1.0, 1.6), rng.uniform(2.2, 3.2)
        params = {"ix": float(ix), "iy": float(iy), "iz": 2.0 / (1.0 / ix + 1.0 / iy)}
    elif family == "toy_coupled":
        params = {"A": _signed(rng), "B": _signed(rng)}
    else:
        params = {
            "delta": float(rng.uniform(0.5, 1.5)),
            "B": float(rng.uniform(0.2, 1.0)),
            "E": float(rng.uniform(0.5, 1.5)),
            "theta": float(rng.uniform(0.3, 1.2)),
        }
    return {"model": family, **_spin_keys(spins), "params": params}


def reference(doc) -> dict:
    """Shifted spectrum, shift and norms of one model document."""
    h, shift = oracles.model_matrix(doc)
    eigs = oracles.shifted_spectrum(doc)
    return {
        "eigs": eigs.tolist(),
        "shift": shift,
        "norm": max(1.0, float(np.linalg.norm(eigs))),
        "hnorm": max(1.0, float(np.linalg.norm(h))),
    }


def in_polynomial_region(eigs) -> bool:
    eigs = np.asarray(eigs)
    norm = float(np.linalg.norm(eigs))
    if len(eigs) > POLYNOMIAL_REGION["max_dim"] or norm < POLYNOMIAL_REGION["min_norm"]:
        return False
    zeros = oracles.zero_count(eigs)
    for scale in (1.0, norm):
        coeffs = np.abs(np.poly(eigs / scale)[::-1])
        if coeffs[zeros] < POLYNOMIAL_REGION["min_coeff_ratio"] * coeffs.max():
            return False
    return True


def unambiguous_zeros(eigs) -> bool:
    """No eigenvalue within a factor 100 of the zero-mode tolerance, so the
    zero-mode count does not hang on round-off."""
    tol = oracles.pairing_tol(np.asarray(eigs))
    return not np.any((np.abs(eigs) > tol / 100.0) & (np.abs(eigs) < tol * 100.0))


class Writer:
    """Writes input files and the manifest the set-up probe loads."""

    def __init__(self, inputs: Path, outputs: Path):
        self.inputs, self.outputs = inputs, outputs
        self.manifest = []
        inputs.mkdir(parents=True, exist_ok=True)
        outputs.mkdir(parents=True, exist_ok=True)

    def write(self, name, doc, kind="model") -> str:
        path = self.inputs / f"{name}.json"
        path.write_text(json.dumps(doc))
        self.manifest.append({"path": str(path), "kind": kind})
        return str(path)

    def op(self, name, kind, argv, expect, suffix=".json") -> Op:
        out = self.outputs / f"{name}{suffix}"
        return Op(name, kind, argv + ["--format", "json", "--out", str(out)], out, expect)

    def finish(self):
        (self.inputs / "manifest.json").write_text(json.dumps(self.manifest, indent=1))


def solve_ops(rng, w: Writer, families=FIELD_FAMILIES, dims=POLY_DIMS, models=SOLVE_MODELS) -> list:
    ops = []
    for family in families:
        for dim in dims:
            doc = draw_model(rng, family, (_label(dim - 1),))
            ref = reference(doc)
            if not in_polynomial_region(ref["eigs"]):
                raise RuntimeError(f"{family} dim {dim} left the polynomial region")
            path = w.write(f"{family}-d{dim:02d}", doc)
            ops.append(w.op(f"spectrum-{family}-d{dim:02d}", "spectrum", ["spectrum", path], ref))
            ops.append(w.op(f"charpoly-{family}-d{dim:02d}", "charpoly", ["charpoly", path], ref))
    for i, (family, spins) in enumerate(models):
        doc = draw_model(rng, family, spins)
        while not unambiguous_zeros(reference(doc)["eigs"]):
            doc = draw_model(rng, family, spins)
        ref = {**reference(doc), "doc": doc}
        path = w.write(f"{family}-{i:02d}", doc)
        ops.append(w.op(f"verify-{family}-{i:02d}", "verify", ["verify", path], ref))
        ops.append(w.op(f"numeric-{family}-{i:02d}", "numeric",
                        ["spectrum", path, "--method", "numeric"], ref))
    return ops


def _scan_range(rng, doc, param):
    """Field scans run the field direction across most of a half-turn, so
    the eigensolver's cost, which depends on the direction, averages out
    rather than following the seed; coupled scans stay on one side of zero."""
    p = doc["params"]
    if doc["model"] in FIELD_FAMILIES:
        other = [p[k] for k in ("a", "b") if k != param]
        half = float(np.linalg.norm(other)) * float(rng.uniform(2.5, 3.5))
        return -half, half
    start = abs(p[param]) * float(rng.uniform(0.6, 0.9))
    return start, start + float(rng.uniform(0.8, 1.2))


def sweep_ops(rng, w: Writer, sweeps=SWEEPS, draws=SWEEP_DRAWS) -> list:
    ops = []
    configs = [config for _ in range(draws) for config in sweeps]
    for i, (family, spins, param, steps) in enumerate(configs):
        doc = draw_model(rng, family, spins)
        start, stop = _scan_range(rng, doc, param)
        values = np.linspace(start, stop, steps)
        refs = []
        for value in values:
            point = {**doc, "params": {**doc["params"], param: float(value)}}
            refs.append(reference(point))
        expect = {
            "param": param, "start": start, "stop": stop, "steps": steps,
            "eig_rows": [r["eigs"] for r in refs],
            "shifts": [r["shift"] for r in refs],
            "hnorms": [r["hnorm"] for r in refs],
        }
        path = w.write(f"sweep-{i}-{family}", doc)
        argv = ["scan", path, "--param", param, "--from", repr(start), "--to", repr(stop),
                "--steps", str(steps)]
        ops.append(w.op(f"scan-{i}-{family}", "scan", argv, expect, suffix=".csv"))
    return ops


def chain_terms(rng, tj, slots, coupled, fielded):
    axes = "xyz"
    fields = [np.array([_signed(rng) if a in fielded else 0.0 for a in axes]) for _ in range(slots)]
    couplings = {
        (i, i + 1): np.diag([_signed(rng) if a in coupled else 0.0 for a in axes])
        for i in range(slots - 1)
    }
    return [tj] * slots, fields, couplings


def search_ops(rng, w: Writer, chains=CHAINS, models=SEARCH_MODELS) -> list:
    ops = []
    for i, (tj, slots, coupled, fielded, partnered) in enumerate(chains):
        spins, fields, couplings = chain_terms(rng, tj, slots, coupled, fielded)
        hits = oracles.search_hits(spins, fields, couplings)
        if bool(hits) != partnered:
            raise RuntimeError(f"chain {i}: expected partner={partnered}, reference found {len(hits)}")
        h = oracles.linear_hamiltonian(spins, fields, couplings)
        doc = {"dims": [tj + 1] * slots,
               "entries": [[float(z.real), float(z.imag)] for z in h.reshape(-1)]}
        name = f"chain-{i}-s{tj}-k{slots}-{coupled}-f{fielded or 'none'}"
        path = w.write(name, doc, kind="matrix")
        ops.append(w.op(f"search-{name}", "search", ["search", path],
                        {"hits": hits, "dims": doc["dims"]}))
    for family, spins in models:
        doc = draw_model(rng, family, spins)
        fields, couplings = oracles.linear_terms(doc)
        twice = oracles.spins_of(doc)
        path = w.write(f"search-{family}", doc)
        ops.append(w.op(f"search-{family}", "search", ["search", path],
                        {"hits": oracles.search_hits(twice, fields, couplings),
                         "dims": [t + 1 for t in twice]}))
    return ops


BUILDERS = {"solve": solve_ops, "sweep": sweep_ops, "search": search_ops}


def generate(workload: str, seed: int, inputs: Path, outputs: Path) -> list:
    """Write the inputs of one run and return its operations in run order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    writer = Writer(inputs, outputs)
    ops = BUILDERS[workload](rng, writer)
    writer.finish()
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write the inputs of one benchmark run")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    ops = generate(args.workload, args.seed, args.out / "inputs", args.out / "outputs")
    for op in ops:
        print(" ".join(["chiralspin"] + op.argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Corruption self-test: every check must reject a wrong answer.

Runs one small operation of each kind through the program, then hands each
check corrupted copies of the real output (a shifted eigenvalue, a dropped
hit, a flipped parity flag, a wrong exit code ...) and confirms the check
finds a problem with every one. The benchmark runs it before it measures;
it also runs alone:

    python3 chiralbench/selftest.py
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

import oracles
import workloads


def _json_edit(edit):
    def corrupt(code, text, stdout):
        doc = json.loads(text)
        edit(doc)
        return code, json.dumps(doc), stdout
    return corrupt


def _csv_edit(edit):
    def corrupt(code, text, stdout):
        rows = list(csv.reader(io.StringIO(text)))
        edit(rows)
        return code, "\n".join(",".join(r) for r in rows) + "\n", stdout
    return corrupt


def _exit_code(new):
    return lambda code, text, stdout: (new, text, stdout)


def _nudge(values, i, rel=1e-6):
    values[i] += rel * max(1.0, abs(values[i]))


def _swap(values, i, k):
    values[i], values[k] = values[k], values[i]


def _set(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _bump_cell(row, col):
    def edit(rows):
        rows[row][col] = repr(float(rows[row][col]) * (1.0 + 1e-6) + 1e-6)
    return edit


def _next_float(rows):
    rows[2][1] = repr(float(np.nextafter(float(rows[2][1]), math.inf)))


def _non_partner(doc):
    doc["rotation"]["factors"][0]["angle"] = math.pi / 2.0


CORRUPTIONS = {
    "spectrum": {
        "shifted numeric eigenvalue": _json_edit(lambda d: _nudge(d["eigenvalues_numeric"], 0)),
        "shifted closed-form eigenvalue": _json_edit(lambda d: _nudge(d["eigenvalues_closed_form"], -1)),
        "wrong route": _json_edit(_set("method", "numeric_only")),
        "flipped parity flag": _json_edit(lambda d: d.update(parity_ok=not d["parity_ok"])),
        "perturbed coefficient": _json_edit(lambda d: _nudge(d["charpoly_shifted"], 1)),
        "error exit": _exit_code(2),
    },
    "charpoly": {
        "perturbed coefficient": _json_edit(lambda d: _nudge(d["coefficients"], 2)),
        "flipped parity flag": _json_edit(lambda d: d.update(parity_ok=not d["parity_ok"])),
        "wrong zero-root count": _json_edit(
            lambda d: d.update(zero_root_multiplicity=d["zero_root_multiplicity"] + 1)),
        "perturbed mu coefficient": _json_edit(lambda d: _nudge(d["mu_coefficients"], 0)),
    },
    "numeric": {
        "shifted eigenvalue": _json_edit(lambda d: _nudge(d["eigenvalues_numeric"], 3)),
        "dropped eigenvalue": _json_edit(lambda d: d["eigenvalues_numeric"].pop()),
        "swapped eigenvalues": _json_edit(lambda d: _swap(d["eigenvalues_numeric"], 0, -1)),
    },
    "verify": {
        "flipped verdict": _json_edit(_set("verified", False)),
        "wrong zero-mode count": _json_edit(
            lambda d: d["pairing"].update(zero_modes=d["pairing"]["zero_modes"] + 2)),
        "rotation that is no partner": _json_edit(_non_partner),
        "negative exit": _exit_code(1),
    },
    "scan": {
        "parameter off linspace by one ulp": _csv_edit(_next_float),
        "flipped pairing flag": _csv_edit(lambda rows: rows[3].__setitem__(-2, "false")),
        "shifted eigenvalue": _csv_edit(_bump_cell(4, 3)),
        "dropped row": _csv_edit(lambda rows: rows.pop()),
    },
    "search": {
        "dropped hit": _json_edit(lambda d: (d["hits"].pop(), d.update(count=d["count"] - 1))),
        "reordered hits": _json_edit(lambda d: _swap(d["hits"], 0, 1)),
        "negative exit": _exit_code(1),
    },
    "search-none": {
        "hit-found exit": _exit_code(0),
    },
}


def small_ops(inputs: Path, outputs: Path) -> list:
    """One small operation of every kind, with their reference answers."""
    rng = np.random.default_rng(20131127)
    w = workloads.Writer(inputs, outputs)
    ops = workloads.solve_ops(rng, w, ("general_field",), (5,), (("toy_coupled", ("1/2", "3/2")),))
    ops += workloads.sweep_ops(rng, w, (("general_field", ("1",), "c", 6),), draws=1)
    ops += workloads.search_ops(rng, w, ((1, 2, "xy", "", True), (1, 2, "xyz", "", False)), ())
    w.finish()
    return ops


def run(run_op, workdir: Path):
    """Return (corruptions a check let through, genuine outputs rejected).

    ``run_op(op)`` runs one operation and returns (exit code, output text,
    stdout). Only the first list means a check is broken; a rejected genuine
    output is a fault of the program, which the timed rounds count.
    """
    accepted, rejected = [], []
    for op in small_ops(workdir / "inputs", workdir / "outputs"):
        code, text, stdout = run_op(op)
        rejected += [f"{op.name}: {p}" for p in oracles.check(op.kind, op.expect, code, text, stdout)]
        kind = "search-none" if op.kind == "search" and not op.expect["hits"] else op.kind
        for what, corrupt in CORRUPTIONS[kind].items():
            if not oracles.check(op.kind, op.expect, *corrupt(code, text, stdout)):
                accepted.append(f"{op.name}: check accepted a {what}")
    return accepted, rejected


def main() -> int:
    import run as bench

    cli = bench.import_program()
    accepted, rejected = run(lambda op: bench.run_op(cli, op)[1:], bench.WORK / "selftest")
    for line in accepted + rejected:
        print(line)
    total = sum(len(c) for c in CORRUPTIONS.values())
    print(f"{total} corruptions tried: {len(accepted)} accepted; "
          f"{len(rejected)} problems with genuine outputs")
    return 1 if accepted or rejected else 0


if __name__ == "__main__":
    sys.exit(main())

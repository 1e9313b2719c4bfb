"""Byte-for-byte outputs of ``verify``, ``spectrum`` (auto and numeric),
``charpoly``, ``scan`` and ``search``, text and JSON, on the acceptance
fixtures. The files under ``tests/golden/`` are the reference: a refactor of
the command pipeline must reproduce them exactly.

Rewrite them, only when an output change is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from chiralspin import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

MODELS = {
    "general_field": {"model": "general_field", "j": "5/2", "params": {"a": 1.0, "b": 2.0, "c": 0.0}},
    "crossed_fields": {"model": "crossed_fields", "j": "1", "params": {"a": 1.0, "b": 2.0}},
    "triaxial_rotor": {"model": "triaxial_rotor", "j": "2",
                       "params": {"ix": 1.0, "iy": 1.0 / 3.0, "iz": 0.5}},
    "toy_coupled": {"model": "toy_coupled", "j1": "1/2", "j2": "1/2", "params": {"A": 1.0, "B": 1.0}},
    "oh_molecule": {"model": "oh_molecule", "params": {"B": 0.5}},
    "rotor_unmet": {"model": "triaxial_rotor", "j": "3/2", "params": {"ix": 1.0, "iy": 2.0, "iz": 1.0}},
}
MATRICES = {
    "jx_matrix": {"dims": [2], "entries": [[0.0, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 0.0]]},
    "identity_matrix": {"dims": [2, 2],
                        "entries": [[1.0, 0.0] if i == j else [0.0, 0.0] for i in range(4) for j in range(4)]},
}
SCANS = (
    ("general_field", "c", "-2", "2", "81"),
    ("oh_molecule", "B", "0", "2", "101"),
    ("rotor_unmet", "iz", "1", "2", "4"),
)
WRONG_ROTATION = json.dumps({"slot": 0, "axis": [1, 0, 0], "angle": "pi/2"})


def _commands():
    """(golden name, argv, CSV the command writes or None); file names are
    relative to the directory the fixtures are written to."""
    cmds = []
    for fmt in ("text", "json"):
        for name in MODELS:
            cmds.append((f"verify-{name}.{fmt}", ["--format", fmt, "verify", f"{name}.json"], None))
        for name in MODELS:
            cmds.append((f"spectrum-{name}.{fmt}", ["--format", fmt, "spectrum", f"{name}.json"], None))
            cmds.append((f"spectrum_numeric-{name}.{fmt}",
                         ["--format", fmt, "spectrum", f"{name}.json", "--method", "numeric"], None))
            cmds.append((f"charpoly-{name}.{fmt}", ["--format", fmt, "charpoly", f"{name}.json"], None))
        cmds.append((f"verify-crossed_fields-wrong.{fmt}",
                     ["--format", fmt, "verify", "crossed_fields.json", "--rotation", WRONG_ROTATION], None))
        for name in [*MODELS, *MATRICES]:
            cmds.append((f"search-{name}.{fmt}", ["--format", fmt, "search", f"{name}.json"], None))
        for name, param, start, stop, steps in SCANS:
            csv = f"scan-{name}.csv"
            cmds.append((f"scan-{name}.{fmt}",
                         ["--format", fmt, "--out", csv, "scan", f"{name}.json",
                          "--param", param, "--from", start, "--to", stop, "--steps", steps], csv))
    return cmds


def _write_fixtures(directory: Path):
    for name, doc in {**MODELS, **MATRICES}.items():
        (directory / f"{name}.json").write_text(json.dumps(doc))


def _run(argv) -> str:
    """Exit code, stdout and stderr of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("name, argv, csv", _commands(), ids=[c[0] for c in _commands()])
def test_output_matches_golden(tmp_path, monkeypatch, name, argv, csv):
    _write_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert _run(argv) == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    if csv is not None:
        assert (tmp_path / csv).read_bytes() == (GOLDEN / csv).read_bytes()


def _rewrite():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        _write_fixtures(Path(work))
        os.chdir(work)
        for name, argv, csv in _commands():
            (GOLDEN / f"{name}.out").write_text(_run(argv), encoding="utf-8")
            if csv is not None:
                (GOLDEN / csv).write_bytes(Path(csv).read_bytes())


if __name__ == "__main__":
    _rewrite()

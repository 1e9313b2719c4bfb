"""Byte-for-byte outputs of ``verify``, ``spectrum`` (auto and numeric),
``charpoly``, ``scan`` and ``search``, text and JSON, on the acceptance
fixtures. The files under ``tests/golden/`` are the reference: a refactor of
the command pipeline must reproduce them exactly.

Rewrite them, only when an output change is intended, with

    PYTHONPATH=src python tests/test_golden.py

which prints one line per file it changes: the largest relative change of
each numeric key (JSON key path, or "text" for other output), and a flag for
any change to the exit code, stderr, the JSON keys, a non-numeric value or
the text around the numbers.
"""

import contextlib
import io
import json
import os
import re
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


@pytest.mark.parametrize("name", MODELS)
def test_spectrum_methods_share_the_numeric_spectrum(tmp_path, monkeypatch, name):
    _write_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    printed = [json.loads(_run(["--format", "json", "spectrum", f"{name}.json", *method])
                          .split("--- stdout\n")[1].split("--- stderr\n")[0])["eigenvalues_numeric"]
               for method in ([], ["--method", "numeric"])]
    assert printed[0] == printed[1]


def test_shared_parser_keeps_no_state_between_commands(tmp_path, monkeypatch):
    # one process, one parser: flags, a usage error and its partial parse
    # must not carry over into the next command
    _write_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    flagged = _run(["--format", "json", "--tol", "1e-3", "--out", "flagged.json", "verify", "general_field.json"])
    assert flagged == "exit 0\n--- stdout\n--- stderr\n"
    assert json.loads((tmp_path / "flagged.json").read_text())["verified"] is True
    assert _run(["verify", "general_field.json"]) == (GOLDEN / "verify-general_field.text.out").read_text()
    with pytest.raises(SystemExit) as exc:
        _run(["spectrum", "general_field.json", "--method", "bogus"])
    assert exc.value.code == 2
    assert _run(["spectrum", "general_field.json"]) == (GOLDEN / "spectrum-general_field.text.out").read_text()


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    _write_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        for argv in (["verify", "general_field.json"], ["--format", "json", "charpoly", "toy_coupled.json"],
                     ["spectrum", "oh_molecule.json", "--method", "numeric"], ["search", "jx_matrix.json"]):
            assert _run(argv).startswith("exit 0\n")
        assert built == [1]
    finally:
        cli._parser.cache_clear()


@pytest.mark.parametrize("command", [None, "ops", "verify", "spectrum", "scan", "search", "charpoly"])
def test_help_matches_a_freshly_built_parser(command):
    argv = ["--help"] if command is None else [command, "--help"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--format", "json", "ops", "--j", "1", "--which", "jx"]) == 0  # use the shared parser first
    texts = []
    for parse in (cli.main, cli.build_parser().parse_args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 0
        texts.append(out.getvalue())
    assert texts[0] == texts[1]
    assert "usage: chiralspin" in texts[0]


NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _leaves(doc, path="", found=None):
    """{key path: leaf values in document order} of a JSON value, with list
    indices dropped."""
    found = {} if found is None else found
    if isinstance(doc, dict):
        for key, value in doc.items():
            _leaves(value, f"{path}.{key}" if path else key, found)
    elif isinstance(doc, list):
        for value in doc:
            _leaves(value, path, found)
    else:
        found.setdefault(path, []).append(doc)
    return found


def _audit(name, old, new) -> str:
    """One line on how a golden file changed: the largest change of each
    numeric key relative to the key's largest magnitude, then flags for
    everything that is not a number."""
    flags = []
    if name.endswith(".out"):
        (old_code, old_out, old_err), (new_code, new_out, new_err) = (
            re.split(r"\n--- stdout\n|--- stderr\n", text) for text in (old, new))
        flags += ["EXIT"] * (old_code != new_code) + ["STDERR"] * (old_err != new_err)
    else:
        old_out, new_out = old, new
    if name.endswith(".json.out") and old_out and new_out:
        was, now = _leaves(json.loads(old_out)), _leaves(json.loads(new_out))
    else:
        was, now = ({"text": [float(x) for x in NUMBER.findall(out)]} for out in (old_out, new_out))
        flags += ["TEXT"] * (NUMBER.sub("#", old_out) != NUMBER.sub("#", new_out))
    changes = []
    for key in sorted(was.keys() | now.keys()):
        pairs = list(zip(was.get(key, []), now.get(key, [])))
        if key not in was or key not in now or len(was[key]) != len(now[key]):
            flags.append(f"KEYS {key}")
        elif any(a != b and not (_is_number(a) and _is_number(b)) for a, b in pairs):
            flags.append(f"VALUE {key}")
        numeric = [(a, b) for a, b in pairs if _is_number(a) and _is_number(b)]
        if numeric:
            # relative to the key's largest magnitude, so that round-off
            # entries of a coefficient list do not swamp the figure
            scale = max(max(abs(a), abs(b)) for a, b in numeric)
            rel = max(abs(a - b) for a, b in numeric) / scale if scale else 0.0
            changes.append(f"{key} {rel:.2g}")
    return f"changed {name}: " + ", ".join(changes) + "".join(f" [{flag}]" for flag in flags)


def _rewrite():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        _write_fixtures(Path(work))
        os.chdir(work)
        for name, argv, csv in _commands():
            files = {f"{name}.out": _run(argv)}
            if csv is not None:
                files[csv] = Path(csv).read_bytes().decode("utf-8")
            for file, text in files.items():
                path = GOLDEN / file
                old = path.read_bytes().decode("utf-8") if path.exists() else None
                if old != text:
                    print(f"new {file}" if old is None else _audit(file, old, text))
                    path.write_bytes(text.encode("utf-8"))


if __name__ == "__main__":
    _rewrite()

"""Reference answers computed apart from chiralspin, and the checks that hold
the program's outputs to them.

Nothing here imports chiralspin. Spin matrices, model Hamiltonians and
rotations are rebuilt from their textbook definitions, spectra come from
closed forms or LAPACK (``numpy.linalg.eigvalsh``), and partner searches are
answered in SO(3) from the axis-angle identity

    R_n(theta) (a.J) R_n(theta)^dagger = (O a).J,

with O the 3x3 Rodrigues matrix. A product of per-slot rotations therefore
anticommutes with H = sum_i h_i.J_i + sum_{i<k} J_i^T A_ik J_k exactly when
O_i h_i = -h_i and O_i A_ik O_k^T = -A_ik for every term.

Every ``check_*`` function returns a list of problems; an empty list means the
output is right.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import numpy as np

SQRT_EPS = math.sqrt(np.finfo(float).eps)
# Closed-form roots lose up to sqrt(eps) relative accuracy near double roots;
# 6e-9 ||H||_F was the worst loss seen on correct inputs.
CLOSED_FORM_RTOL = 4.0 * SQRT_EPS
NUMERIC_RTOL = 1e-9
CLASSIFY_TOL = 1e-10
SEARCH_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
SEARCH_ANGLES = (math.pi, math.pi / 2.0)


def twice_j(label) -> int:
    """2j from a spin label such as "5/2" or "3"."""
    text = str(label)
    if text.endswith("/2"):
        return int(text[:-2])
    return 2 * int(text)


def spin_matrices(tj: int):
    """(Jx, Jy, Jz) for spin j = tj/2 in the basis m = +j ... -j."""
    j = tj / 2.0
    m = j - np.arange(tj + 1)
    raise_op = np.diag(np.sqrt((j - m[1:]) * (j + m[1:] + 1.0)), k=1)
    jx = (raise_op + raise_op.T) / 2.0
    jy = (raise_op - raise_op.T) / 2.0j
    return jx.astype(complex), jy, np.diag(m).astype(complex)


def embed(op, slot: int, dims) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for s, d in enumerate(dims):
        out = np.kron(out, op if s == slot else np.eye(d))
    return out


def rodrigues(axis, angle) -> np.ndarray:
    """SO(3) image of exp(-i angle n.J): rotation by ``angle`` about n."""
    n = np.asarray(axis, dtype=float)
    k = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def rotation(tj: int, axis, angle) -> np.ndarray:
    """exp(-i angle n.J) from the LAPACK eigendecomposition of n.J."""
    gen = sum(c * m for c, m in zip(axis, spin_matrices(tj)))
    w, v = np.linalg.eigh(gen)
    return (v * np.exp(-1j * angle * w)) @ v.conj().T


# --- model Hamiltonians ---------------------------------------------------


def spins_of(doc) -> list[int]:
    if "j" in doc:
        return [twice_j(doc["j"])]
    return [twice_j(doc.get("j1", "1/2")), twice_j(doc.get("j2", "3/2"))]


def field_vector(doc):
    """(a, b, c) of the single-spin field families, else None."""
    p = doc["params"]
    if doc["model"] in ("crossed_fields", "crossed_fields_shifted"):
        return np.array([p["a"], p["b"], 0.0])
    if doc["model"] == "general_field":
        return np.array([p["a"], p["b"], p["c"]])
    return None


def linear_terms(doc):
    """(fields, couplings) of a coupled model: fields[i] is h_i, couplings
    maps (i, k) to the 3x3 matrix A_ik."""
    p = doc["params"]
    if doc["model"] == "toy_coupled":
        return [np.zeros(3), np.zeros(3)], {(0, 1): np.diag([0.0, p["A"], p["B"]])}
    if doc["model"] == "oh_molecule":
        e, theta = p["E"], p["theta"]
        a = np.zeros((3, 3))
        a[0, 0] = -e * math.sin(theta)
        a[0, 2] = e * math.cos(theta)
        return [np.array([0.0, 0.0, p["delta"]]), np.array([0.0, 0.0, p["B"]])], {(0, 1): a}
    raise ValueError(f"no linear form for {doc['model']}")


def linear_hamiltonian(spins, fields, couplings) -> np.ndarray:
    ops = [spin_matrices(tj) for tj in spins]
    dims = [tj + 1 for tj in spins]
    n = math.prod(dims)
    h = np.zeros((n, n), dtype=complex)
    for i, vec in enumerate(fields):
        for a in range(3):
            if vec[a]:
                h += vec[a] * embed(ops[i][a], i, dims)
    for (i, k), mat in couplings.items():
        for a, b in itertools.product(range(3), repeat=2):
            if mat[a, b]:
                h += mat[a, b] * embed(ops[i][a], i, dims) @ embed(ops[k][b], k, dims)
    return h


def model_matrix(doc):
    """(H, shift) of a model document, H - shift*I being the chiral part."""
    spins = spins_of(doc)
    p = doc["params"]
    vec = field_vector(doc)
    if vec is not None:
        jx, jy, jz = spin_matrices(spins[0])
        h = vec[0] * jx + vec[1] * jy + vec[2] * jz
        shift = 0.0
        if doc["model"] == "crossed_fields_shifted":
            jj = spins[0] * (spins[0] + 2) / 4.0
            shift = p["c"] * jj
            h = h + shift * np.eye(len(h))
        return h, shift
    if doc["model"] == "triaxial_rotor":
        jx, jy, jz = spin_matrices(spins[0])
        h = jx @ jx / (2 * p["ix"]) + jy @ jy / (2 * p["iy"]) + jz @ jz / (2 * p["iz"])
        return h, spins[0] * (spins[0] + 2) / 4.0 / (2 * p["iz"])
    return linear_hamiltonian(spins, *linear_terms(doc)), 0.0


def shifted_spectrum(doc) -> np.ndarray:
    """Ascending eigenvalues of H - shift: m|(a,b,c)| for the field families,
    eigvalsh otherwise."""
    vec = field_vector(doc)
    if vec is not None:
        tj = spins_of(doc)[0]
        return np.sort(np.linalg.norm(vec) * (tj / 2.0 - np.arange(tj + 1)))
    h, shift = model_matrix(doc)
    return np.linalg.eigvalsh(h - shift * np.eye(len(h)))


def pairing_tol(eigs) -> float:
    """The program's rule: 1e-9 max(1, ||H||_F), with ||H||_F = ||eigs||_2."""
    return 1e-9 * max(1.0, float(np.linalg.norm(eigs)))


def zero_count(eigs) -> int:
    return int(np.sum(np.abs(eigs) < pairing_tol(eigs)))


def mirror_paired(eigs) -> bool:
    return bool(np.all(np.abs(eigs + eigs[::-1]) < pairing_tol(eigs)))


def route(eigs) -> str:
    """Solution route by the degree rule: pairing halves the degree left
    after the zero roots are factored out."""
    n = len(eigs)
    effective = (n - zero_count(eigs)) // 2 if mirror_paired(eigs) else n
    if effective <= 4:
        return "radicals"
    return "hypergeometric_required" if effective == 5 else "numeric_only"


def charpoly(eigs):
    """Ascending coefficients of det(H - lambda I) and a per-coefficient
    tolerance scaled by the elementary symmetric sums of |lambda|. The
    floor sits ten times below the program's zero-coefficient cut of 1e-10
    of the largest coefficient."""
    n = len(eigs)
    coeffs = (-1.0) ** n * np.poly(eigs)[::-1].real
    scale = np.poly(-np.abs(eigs))[::-1].real
    return coeffs, 1e-9 * scale + 1e-11 * scale.max()


def search_hits(spins, fields, couplings):
    """Every candidate of the program's family that anticommutes with the
    linear Hamiltonian, in the program's lexicographic order."""
    choices = [None] + [(ax, an) for ax in SEARCH_AXES for an in SEARCH_ANGLES]
    scale = max([np.abs(v).max() for v in fields] + [np.abs(m).max() for m in couplings.values()])
    hits = []
    for combo in itertools.product(choices, repeat=len(spins)):
        if all(c is None for c in combo):
            continue
        rot = [np.eye(3) if c is None else rodrigues(*c) for c in combo]
        flipped = all(
            np.allclose(rot[i] @ v, -v, atol=1e-9 * scale) for i, v in enumerate(fields)
        ) and all(
            np.allclose(rot[i] @ m @ rot[k].T, -m, atol=1e-9 * scale)
            for (i, k), m in couplings.items()
        )
        if flipped:
            hits.append([[s, list(c[0]), c[1]] for s, c in enumerate(combo) if c is not None])
    return hits


# --- checks ----------------------------------------------------------------


def _close(problems, what, got, want, tol):
    """Elementwise |got - want| <= tol (scalar or array)."""
    if got is None:
        problems.append(f"{what}: missing")
        return
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{what}: shape {got.shape} != {want.shape}")
        return
    err = np.abs(got - want) - tol
    if err.size and np.max(err) > 0:
        i = int(np.argmax(err))
        problems.append(
            f"{what}[{i}]: {got.flat[i]!r} vs reference {want.flat[i]!r} "
            f"(tol {np.broadcast_to(tol, want.shape).flat[i]:.3e})"
        )


def _equal(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: {got!r} != {want!r}")


def _exit(problems, code, want) -> bool:
    if code != want:
        problems.append(f"exit code {code!r}, expected {want}")
        return False
    return True


def check_spectrum(exp, code, text, _stdout):
    problems = []
    if not _exit(problems, code, 0):
        return problems
    out = json.loads(text)
    eig_tol = NUMERIC_RTOL * exp["hnorm"]
    _equal(problems, "dim", out["dim"], len(exp["eigs"]))
    _close(problems, "shift", out["shift"], exp["shift"], eig_tol)
    eigs = np.asarray(exp["eigs"])
    _equal(problems, "method", out["method"], route(eigs))
    _equal(problems, "parity_ok", out["parity_ok"], mirror_paired(eigs))
    phys = eigs + exp["shift"]
    _close(problems, "eigenvalues_numeric", out["eigenvalues_numeric"], phys, eig_tol)
    if route(eigs) == "radicals":
        tol = CLOSED_FORM_RTOL * exp["norm"] + NUMERIC_RTOL * exp["hnorm"]
        _close(problems, "eigenvalues_closed_form", out["eigenvalues_closed_form"], phys, tol)
    else:
        _equal(problems, "eigenvalues_closed_form", out["eigenvalues_closed_form"], None)
    coeffs, tol = charpoly(eigs)
    _close(problems, "charpoly_shifted", out["charpoly_shifted"], coeffs, tol)
    return problems


def check_numeric(exp, code, text, _stdout):
    problems = []
    if _exit(problems, code, 0):
        out = json.loads(text)
        _equal(problems, "method", out["method"], "numeric_only")
        phys = np.asarray(exp["eigs"]) + exp["shift"]
        _close(problems, "eigenvalues_numeric", out["eigenvalues_numeric"], phys,
               NUMERIC_RTOL * exp["hnorm"])
    return problems


def check_charpoly(exp, code, text, _stdout):
    problems = []
    if not _exit(problems, code, 0):
        return problems
    out = json.loads(text)
    eigs = np.asarray(exp["eigs"])
    coeffs, tol = charpoly(eigs)
    _equal(problems, "dim", out["dim"], len(eigs))
    _close(problems, "shift", out["shift"], exp["shift"], NUMERIC_RTOL * exp["hnorm"])
    _close(problems, "coefficients", out["coefficients"], coeffs, tol)
    _equal(problems, "parity_ok", out["parity_ok"], mirror_paired(eigs))
    zeros = zero_count(eigs)
    _equal(problems, "zero_root_multiplicity", out["zero_root_multiplicity"], zeros)
    if out["parity_ok"]:
        _close(problems, "mu_coefficients", out["mu_coefficients"], coeffs[zeros::2], tol[zeros::2])
    return problems


def check_verify(exp, code, text, _stdout):
    """The reported rotation must anticommute with the reference matrix, and
    the pairing summary must match the reference spectrum."""
    problems = []
    if not _exit(problems, code, 0):
        return problems
    out = json.loads(text)
    eigs = np.asarray(exp["eigs"])
    _equal(problems, "verified", out["verified"], True)
    _equal(problems, "dim", out["dim"], len(eigs))
    _close(problems, "shift", out["shift"], exp["shift"], NUMERIC_RTOL * exp["hnorm"])
    _equal(problems, "verdict.kind", out["verdict"]["kind"], "anticommuting")
    zeros = zero_count(eigs)
    pairing = out["pairing"]
    _equal(problems, "pairing.zero_modes", pairing["zero_modes"], zeros)
    _equal(problems, "pairing.pairs", len(pairing["pairs"]), (len(eigs) - zeros) // 2)
    _equal(problems, "pairing.is_chiral_paired", pairing["is_chiral_paired"], True)
    h, shift = model_matrix(exp["doc"])
    h = h - shift * np.eye(len(h))
    c = np.ones((1, 1), dtype=complex)
    factors = {f["slot"]: f for f in out["rotation"]["factors"]}
    for slot, tj in enumerate(spins_of(exp["doc"])):
        f = factors.get(slot)
        c = np.kron(c, np.eye(tj + 1) if f is None else rotation(tj, f["axis"], f["angle"]))
    residual = np.linalg.norm(c @ h + h @ c) / (np.linalg.norm(c) * np.linalg.norm(h))
    if not residual < CLASSIFY_TOL:
        problems.append(f"reported rotation does not anticommute (reference residual {residual:.3e})")
    return problems


def check_scan(exp, code, text, stdout):
    """Row by row: linspace parameter values, reference eigenvalues, and
    pairing_ok true on every row."""
    problems = []
    if not _exit(problems, code, 0):
        return problems
    summary = json.loads(stdout)
    rows = list(csv.reader(io.StringIO(text)))
    values = np.linspace(exp["start"], exp["stop"], exp["steps"])
    eig_rows = exp["eig_rows"]
    n = len(eig_rows[0])
    _equal(problems, "header", rows[0] if rows else None,
           ["param", exp["param"]] + [f"lambda_{i}" for i in range(1, n + 1)]
           + ["pairing_ok", "max_pair_mismatch"])
    _equal(problems, "row count", len(rows) - 1, exp["steps"])
    _equal(problems, "summary.rows", summary.get("rows"), exp["steps"])
    _equal(problems, "summary.all_paired", summary.get("all_paired"), True)
    for i, (row, value, eigs) in enumerate(zip(rows[1:], values, eig_rows)):
        if len(row) != n + 4:
            problems.append(f"row {i}: {len(row)} cells, expected {n + 4}")
            continue
        _equal(problems, f"row {i} param", row[0], exp["param"])
        _equal(problems, f"row {i} value", float(row[1]), float(value))
        _equal(problems, f"row {i} pairing_ok", row[-2], "true")
        eigs = np.asarray(eigs)
        _close(problems, f"row {i} eigenvalues", [float(x) for x in row[2:-2]],
               eigs + exp["shifts"][i], NUMERIC_RTOL * exp["hnorms"][i])
        _close(problems, f"row {i} max_pair_mismatch", float(row[-1]), 0.0, pairing_tol(eigs))
    return problems


def check_search(exp, code, text, _stdout):
    """Hits, in order, equal to the SO(3) reference; exit 1 exactly when it
    finds none."""
    problems = []
    want = exp["hits"]
    if not _exit(problems, code, 0 if want else 1):
        return problems
    out = json.loads(text)
    _equal(problems, "dims", out["dims"], exp["dims"])
    _equal(problems, "count", out["count"], len(want))
    got = [
        [[f["slot"], [round(x, 12) for x in f["axis"]], round(f["angle"], 12)] for f in hit["factors"]]
        for hit in out["hits"]
    ]
    ref = [[[s, [round(x, 12) for x in ax], round(an, 12)] for s, ax, an in hit] for hit in want]
    if got != ref:
        problems.append(f"hits differ from the reference ({len(got)} vs {len(ref)})")
    worst = max((hit["residual_anticommute"] for hit in out["hits"]), default=0.0)
    if not worst < CLASSIFY_TOL:
        problems.append(f"hit residual {worst:.3e} is not below {CLASSIFY_TOL}")
    return problems


CHECKS = {
    "spectrum": check_spectrum,
    "numeric": check_numeric,
    "charpoly": check_charpoly,
    "verify": check_verify,
    "scan": check_scan,
    "search": check_search,
}


def check(kind, exp, code, text, stdout):
    """Problems with one operation's output; malformed output is a problem,
    not a crash."""
    try:
        return CHECKS[kind](exp, code, text, stdout)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]

"""Characteristic polynomials by a tridiagonal three-term recurrence, parity
reduction to a polynomial in lambda^2, and closed-form (radical) root
extraction up to quartic reduced degree, cross-checked against the numeric
spectrum from LAPACK, which shares no code with the recurrence."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .chiral import default_pairing_tol, spectral_pairing

__all__ = [
    "CharPoly",
    "PolySolveReport",
    "ReducedPoly",
    "SolveMethod",
    "SpectrumInconsistencyError",
    "characteristic_polynomial",
    "classify_solvability",
    "full_solve",
    "parity_reduce",
    "real_roots_closed_form",
    "solve_reduced",
]

# Coefficients below this fraction of the largest one count as zero.
ZERO_COEFF_TOL = 1e-10


class SpectrumInconsistencyError(ArithmeticError):
    """Roots impossible for a Hermitian origin: upstream data is corrupt."""


class SolveMethod(Enum):
    RADICALS = "radicals"
    NUMERIC_ONLY = "numeric_only"
    HYPERGEOMETRIC_REQUIRED = "hypergeometric_required"


@dataclass(frozen=True)
class CharPoly:
    """P(lambda) = det(H - lambda I) = sum coeffs[k] lambda^k, ascending,
    with leading coefficient (-1)^dim exactly."""

    coeffs: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.coeffs) - 1


def characteristic_polynomial(h) -> CharPoly:
    """Coefficients of det(H - lambda I) from a real three-term recurrence.

    Householder reflections reduce H to a tridiagonal T with real diagonal
    alpha_k and off-diagonal moduli beta_k, the norm of column k below the
    diagonal (Golub & Van Loan 8.3). The leading minors of T - lambda I obey
    p_k = (alpha_k - lambda) p_{k-1} - beta_{k-1}^2 p_{k-2}.
    """
    a = linalg.require_hermitian(h)
    a = (a if a.imag.any() else a.real).copy()  # a real H keeps real reflections
    prev, poly, beta2 = np.zeros(0), np.ones(1), 0.0
    for k in range(a.shape[0]):
        nxt = np.zeros(k + 2)
        nxt[:-1] = a[k, k].real * poly
        nxt[1:] -= poly
        nxt[:-2] -= beta2 * prev
        prev, poly = poly, nxt
        x = a[k + 1:, k]
        beta2, scale = float(np.vdot(x, x).real), float(np.abs(x).max(initial=0.0))
        if scale >= np.finfo(float).tiny:  # below it, x is zero beside a unit-norm H
            v = x / scale  # reflect x onto its first axis; ||x / scale|| cannot underflow
            beta, x0 = math.sqrt(np.vdot(v, v).real), v[0].item()
            v[0] += (x0 / abs(x0) if x0 else 1.0) * beta
            v /= math.sqrt(np.vdot(v, v).real)
            block = a[k + 1:, k + 1:]
            w = 2.0 * (block @ v)
            w -= np.vdot(v, w) * v
            vw = np.array([v, w])
            block -= vw.T @ vw[::-1].conj()  # v w^H + w v^H
    return CharPoly(tuple(float(c) for c in poly))


@dataclass(frozen=True)
class ReducedPoly:
    """P(lambda) = lambda^zero_root_multiplicity * M(lambda^2), with the
    coefficients of M in mu_coeffs (ascending in mu = lambda^2)."""

    zero_root_multiplicity: int
    mu_coeffs: tuple[float, ...]


def parity_reduce(poly: CharPoly, tol: float = ZERO_COEFF_TOL) -> tuple[bool, ReducedPoly]:
    """Factor out the zero root and read off the surviving even coefficients.

    The zero-root multiplicity is the smallest index whose coefficient is not
    negligible relative to the largest one; parity holds when every odd
    coefficient past that index is negligible on the same scale.
    """
    coeffs = np.asarray(poly.coeffs, dtype=float)
    thresh = tol * float(np.max(np.abs(coeffs)))
    above = np.abs(coeffs) > thresh
    above[-1] = True  # leading coefficient is structurally +-1
    mult = int(np.argmax(above))
    rest = coeffs[mult:]
    parity_ok = bool(np.all(np.abs(rest[1::2]) <= thresh))
    return parity_ok, ReducedPoly(mult, tuple(float(c) for c in rest[0::2]))


def _quadratic_roots(b, c):
    """Roots of x^2 + bx + c; a negative discriminant gives the real part
    of the complex pair twice."""
    disc = b * b - 4.0 * c
    if disc <= 0.0:
        return [-b / 2.0] * 2
    root = math.sqrt(disc)
    x1 = (-b - root) / 2.0 if b >= 0.0 else (-b + root) / 2.0
    x2 = c / x1 if x1 != 0.0 else -b - x1
    return sorted([x1, x2])


def _cubic_roots(a2, a1, a0):
    """Roots of a monic cubic. Three real roots (the casus irreducibilis)
    use the trigonometric form to avoid complex intermediates; otherwise
    Cardano gives the real root, and the real part of the complex pair
    twice."""
    shift = a2 / 3.0
    p = a1 - a2 * a2 / 3.0
    q = 2.0 * a2**3 / 27.0 - a2 * a1 / 3.0 + a0
    disc = -4.0 * p**3 - 27.0 * q * q
    eps = 1e-12 * max(1.0, abs(p) ** 3, q * q)
    if disc >= -eps:
        if p >= 0.0:
            # disc >= 0 with p >= 0 forces p and q negligible: triple root
            return [-shift] * 3
        radius = 2.0 * math.sqrt(-p / 3.0)
        arg = (3.0 * q) / (2.0 * p) * math.sqrt(-3.0 / p)
        phi = math.acos(min(1.0, max(-1.0, arg)))
        return sorted(
            radius * math.cos((phi - 2.0 * math.pi * k) / 3.0) - shift
            for k in range(3)
        )
    half = math.sqrt(q * q / 4.0 + p**3 / 27.0)
    real = float(np.cbrt(-q / 2.0 + half) + np.cbrt(-q / 2.0 - half))
    return sorted([real - shift] + [-real / 2.0 - shift] * 2)


def _quartic_roots(a3, a2, a1, a0):
    """Roots of a monic quartic by resolvent-cubic factorization into two
    real quadratics, each giving the real part of a complex pair twice."""
    shift = a3 / 4.0
    p = a2 - 3.0 * a3 * a3 / 8.0
    q = a1 - a3 * a2 / 2.0 + a3**3 / 8.0
    r = a0 - a3 * a1 / 4.0 + a3 * a3 * a2 / 16.0 - 3.0 * a3**4 / 256.0
    yscale = max(1.0, abs(p) ** 0.5, abs(q) ** (1.0 / 3.0), abs(r) ** 0.25)
    # the resolvent's largest root is positive whenever q is not negligible
    z = max(_cubic_roots(2.0 * p, p * p - 4.0 * r, -q * q))
    if abs(q) <= 1e-12 * yscale**3 or z <= 0.0:
        # biquadratic: y^2 solves w^2 + p w + r = 0
        roots = []
        for w in _quadratic_roots(p, r):
            roots.extend([-math.sqrt(max(w, 0.0)), math.sqrt(max(w, 0.0))])
        return sorted(y - shift for y in roots)
    k = math.sqrt(z)
    s = (p + z - q / k) / 2.0
    t = (p + z + q / k) / 2.0
    roots = _quadratic_roots(k, s) + _quadratic_roots(-k, t)
    return sorted(y - shift for y in roots)


def real_roots_closed_form(coeffs) -> list[float]:
    """All roots (with multiplicity, ascending) of a polynomial of degree
    <= 4, by radical formulas.

    Intended for polynomials whose roots are known to be real (characteristic
    polynomials of Hermitian matrices). Round-off can split a multiple root
    into complex pairs; each pair comes back as its real part twice, which
    keeps the sum of the roots, and so the mean of a cluster, exact.
    """
    coeffs = [float(c) for c in coeffs]
    if not coeffs or coeffs[-1] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    degree = len(coeffs) - 1
    if degree > 4:
        raise ValueError(f"no radical formula for degree {degree}")
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs[:-1]]
    if degree == 0:
        return []
    if degree == 1:
        return [-monic[0]]
    if degree == 2:
        return _quadratic_roots(monic[1], monic[0])
    if degree == 3:
        return _cubic_roots(monic[2], monic[1], monic[0])
    return _quartic_roots(monic[3], monic[2], monic[1], monic[0])


def solve_reduced(reduced: ReducedPoly) -> tuple[float, ...]:
    """Eigenvalues +-sqrt(mu) from the even-polynomial roots, plus the
    factored zeros, sorted ascending.

    mu roots slightly below zero (within 1e-9 of the root magnitude bound)
    are round-off in the coefficients and snap to zero; anything more
    negative is impossible for Hermitian input and raises.
    """
    degree = len(reduced.mu_coeffs) - 1
    if degree > 4:
        raise ValueError(f"reduced degree {degree} has no radical solution")
    mu_roots = real_roots_closed_form(reduced.mu_coeffs)
    lead = reduced.mu_coeffs[-1]  # 1 + max |c_k / lead| bounds every |mu| (Cauchy)
    clamp = 1e-9 * (1.0 + max((abs(c / lead) for c in reduced.mu_coeffs[:-1]), default=0.0))
    values = [0.0] * reduced.zero_root_multiplicity
    for mu in mu_roots:
        if mu < -clamp:
            raise SpectrumInconsistencyError(f"negative squared eigenvalue {mu:.6e}")
        lam = math.sqrt(max(mu, 0.0))
        values.extend([-lam, lam])
    return tuple(sorted(values))


def classify_solvability(dim: int, chiral: bool) -> SolveMethod:
    """Which solution route the characteristic polynomial admits.

    Chiral pairing halves the effective degree (the forced zero mode of odd
    dimension is factored out first), so radicals reach dimension 8, or 9
    with the zero mode. Effective degree five would need hypergeometric
    functions, which are reported but not evaluated.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    effective = dim // 2 if chiral else dim
    if effective <= 4:
        return SolveMethod.RADICALS
    if effective == 5:
        return SolveMethod.HYPERGEOMETRIC_REQUIRED
    return SolveMethod.NUMERIC_ONLY


@dataclass(frozen=True)
class PolySolveReport:
    """Everything the polynomial pipeline produced for one Hamiltonian."""

    charpoly: CharPoly | None  # None when a coefficient would leave the double range
    parity_ok: bool
    zero_root_multiplicity: int
    reduced: ReducedPoly | None
    method: SolveMethod
    closed_form_eigenvalues: tuple[float, ...] | None
    numeric_eigenvalues: tuple[float, ...]
    max_root_deviation: float | None
    charpoly_unavailable: str | None  # why charpoly is None


def _cluster_means(values, numeric, tol) -> list[float]:
    """Each value replaced by the mean over its cluster: a run of the
    ascending numeric spectrum whose neighbours differ by less than tol.
    Runs chain, so m values spaced just under tol move by up to (m-1)/2 tol;
    splitting such a run instead leaves the closed forms of a near-multiple
    root split by up to the m-th root of the coefficient error."""
    cuts = [0, *(i for i in range(1, len(numeric)) if numeric[i] - numeric[i - 1] >= tol), len(numeric)]
    return [math.fsum(values[a:b]) / (b - a) for a, b in zip(cuts, cuts[1:]) for _ in range(a, b)]


def full_solve(h) -> PolySolveReport:
    """Numeric spectrum and its mirror pairing, the solution route, the
    characteristic polynomial, and on the radicals route closed-form roots
    with their worst sorted deviation from the numeric ones.

    Parity and the zero-root count are ``spectral_pairing``'s, the rule of
    ``verify`` and ``scan``; the route is ``classify_solvability`` of the
    degree, halved after the zero roots when paired. Every |c_k| is at most
    prod(1 + |lambda_i|), and the lowest coefficient that is not a zero root
    is +-prod |lambda_i| over the nonzero roots; when the first leaves the
    double range or the second falls below its smallest normal number,
    nothing is built, the route is numeric_only and ``charpoly_unavailable``
    says why. Otherwise the polynomial is built on H / 2^e, 2^e nearest
    ||H||_F or lower where the nonzero roots of H / 2^e would multiply to
    below the smallest normal number, and coefficient k is rescaled exactly
    by 2^(e(n-k)). A root
    of multiplicity m moves by the m-th root of the coefficient error but the
    mean of its cluster in the numeric spectrum only by that error, so each
    closed form, in mu = lambda^2 when paired, is its cluster's mean.
    """
    h = linalg.as_matrix(h)  # the eigensolve under spectral_pairing checks it is Hermitian
    eigenvalues, pairing = spectral_pairing(h)
    numeric = tuple(float(x) for x in eigenvalues)
    n, zeros, parity_ok = len(numeric), pairing.zero_modes, pairing.is_chiral_paired
    mags = np.sort(np.abs(eigenvalues))
    low = math.fsum(np.log2(mags[zeros:]))  # log2 prod |lambda| over the nonzero roots
    unavailable = None
    if math.fsum(np.log1p(mags)) > math.log(np.finfo(float).max):
        unavailable = "prod(1 + |lambda|) bounds its coefficients and exceeds the double range"
    elif low < np.finfo(float).minexp:
        unavailable = (f"the product of its {n - zeros} nonzero roots, 2^{low:.1f}, "
                       "is below the smallest normal double")
    if unavailable:
        method = SolveMethod.NUMERIC_ONLY
    elif parity_ok:
        # H = 0 leaves no nonzero root, which radicals solve trivially
        method = classify_solvability(max(1, n - zeros), chiral=True)
    else:
        method = classify_solvability(n, chiral=False)
    poly = reduced = closed = deviation = None
    if not unavailable:
        norm = math.hypot(*numeric)  # ||H||_F, free of overflow and underflow
        e = round(math.log2(norm)) if norm else 0
        if zeros < n:
            # as prod |lambda| is normal, a lowered e is still >= 0, so every
            # |lambda / 2^e| <= |lambda| and the top bound holds here too
            e = min(e, math.floor((low - np.finfo(float).minexp) / (n - zeros)))
        scaled = characteristic_polynomial(np.ldexp(h.real, -e) + 1j * np.ldexp(h.imag, -e)).coeffs
        poly = CharPoly(tuple(math.ldexp(c, e * (n - k)) for k, c in enumerate(scaled)))
        reduced = ReducedPoly(zeros, poly.coeffs[zeros::2]) if parity_ok else None
    if method is SolveMethod.RADICALS:
        tol = default_pairing_tol(h)
        if parity_ok:
            roots = solve_reduced(ReducedPoly(zeros, scaled[zeros::2]))
            mus = _cluster_means([x * x for x in roots], numeric, tol)
            roots = [math.copysign(math.sqrt(mu), x) for mu, x in zip(mus, roots)]
        else:
            roots = _cluster_means(real_roots_closed_form(scaled), numeric, tol)
        closed = tuple(math.ldexp(x, e) for x in roots)
        deviation = max((abs(c - x) for c, x in zip(closed, numeric)), default=0.0)
    return PolySolveReport(poly, parity_ok, zeros, reduced, method, closed, numeric, deviation, unavailable)

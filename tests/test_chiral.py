import tracemalloc

import numpy as np
import pytest

from chiralspin import angmom, chiral, linalg, models
from chiralspin.angmom import CACHE_MAX_DIM, MAX_HILBERT_DIM, SpinLabel, build_spin_operators
from chiralspin.charpoly import SolveMethod, full_solve
from chiralspin.chiral import (
    Symmetry,
    classify,
    default_pairing_tol,
    pairing_check,
    search_partners,
    spectral_pairing,
)
from chiralspin.models import (
    CrossedFields,
    GeneralField,
    OHMolecule,
    ToyCoupled,
    TriaxialRotor,
)
from chiralspin.rotations import CompositeRotation, RotationSpec, composite_matrix

from helpers import (
    FAMILIES,
    anticommutator,
    brute_force_search,
    chiral_map_check,
    commutator,
    random_chiral_model,
    random_hermitian,
    random_unit_vector,
    reference_pairing_check,
    spin_chain,
    trace_oddpower_check,
)


def test_classify_crossed_fields_partner():
    built = models.build(CrossedFields("1", 1.0, 2.0))
    r = composite_matrix(built.chiral_partner, built.dims)
    verdict = classify(r, built.hamiltonian)
    assert verdict.kind is Symmetry.ANTICOMMUTING
    assert verdict.residual_anticommute < 1e-12
    assert verdict.residual_commute > 0.1


def test_classify_identity_commutes(rng):
    h = random_hermitian(rng, 4)
    assert classify(np.eye(4), h).kind is Symmetry.COMMUTING


def test_classify_quarter_turn_against_quadrupole():
    ops = build_spin_operators("2")
    h = 0.7 * (ops.jx @ ops.jx - ops.jy @ ops.jy)
    r = composite_matrix(
        CompositeRotation((RotationSpec(0, (0, 0, 1), "pi/2"),)), [5]
    )
    assert classify(r, h).kind is Symmetry.ANTICOMMUTING


def test_classify_zero_hamiltonian_is_both():
    assert classify(np.eye(3), np.zeros((3, 3))).kind is Symmetry.BOTH


def test_classify_generic_pair_is_neither(rng):
    verdict = classify(random_hermitian(rng, 4), random_hermitian(rng, 4))
    assert verdict.kind is Symmetry.NEITHER


def test_classify_invariant_under_sign_flip(rng):
    h = random_hermitian(rng, 5)
    c = random_hermitian(rng, 5)
    v1 = classify(c, h)
    v2 = classify(-c, h)
    assert v1.kind is v2.kind
    assert v1.residual_commute == v2.residual_commute
    assert v1.residual_anticommute == v2.residual_anticommute


def test_classify_dimension_mismatch():
    with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
        classify(np.eye(2), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="^dimension mismatch: 3 vs 2$"):
        classify(np.zeros((3, 3)), np.eye(2))


def test_classify_rejects_non_finite_input():
    bad = np.eye(2, dtype=complex)
    bad[0, 1] = np.nan
    for c, h in ((bad, np.eye(2)), (np.eye(2), bad)):
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            classify(c, h)


def test_classify_residuals_are_commutator_norms(rng):
    # the residuals are exactly ||[C, H]|| and ||{C, H}|| over ||C|| ||H||,
    # also for real and list input, whose norms are summed as given
    for dim in (1, 2, 4, 9, 16):
        c = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = random_hermitian(rng, dim)
        for cc, hh in ((c, h), (c.real, h.real), (c.T, h), (c.real.tolist(), h)):
            verdict = classify(cc, hh)
            denom = linalg.frobenius(cc) * linalg.frobenius(hh)
            assert verdict.residual_commute == linalg.frobenius(commutator(cc, hh)) / denom
            assert verdict.residual_anticommute == linalg.frobenius(anticommutator(cc, hh)) / denom


def test_pairing_with_zero_mode():
    report = pairing_check([-3.0, 0.0, 3.0], 1e-9)
    assert report.is_chiral_paired
    assert report.zero_modes == 1
    assert len(report.pairs) == 1
    assert report.pairs[0] == (3.0, -3.0, 0.0)


def test_pairing_single_zero():
    report = pairing_check([0.0], 1e-9)
    assert report.is_chiral_paired
    assert report.zero_modes == 1
    assert report.pairs == ()


def test_pairing_six_levels_no_zero_mode():
    report = pairing_check([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5], 1e-9)
    assert report.is_chiral_paired
    assert report.zero_modes == 0
    assert len(report.pairs) == 3
    assert report.max_mismatch == 0.0


def test_pairing_rejects_unsorted():
    with pytest.raises(ValueError, match="sorted"):
        pairing_check([1.0, -1.0], 1e-9)


def test_pairing_flags_asymmetric_spectrum():
    assert not pairing_check([1.0, 2.0, 3.0], 1e-9).is_chiral_paired
    assert not pairing_check([-1.0, 2.0], 1e-9).is_chiral_paired


def test_pairing_counts_add_up(rng):
    for _ in range(20):
        pos = np.sort(rng.uniform(0.5, 3.0, size=int(rng.integers(0, 4))))
        zeros = int(rng.integers(0, 3))
        values = np.concatenate([-pos[::-1], np.zeros(zeros), pos])
        report = pairing_check(values, 1e-9)
        assert report.is_chiral_paired
        assert 2 * len(report.pairs) + report.zero_modes == len(values)


def _pairing_spectra(rng):
    """Sorted spectra of 0 to 40 values: mirror pairs with tied magnitudes,
    zero modes, and some values nudged by about the tolerance 2^-20."""
    tol = 2.0 ** -20
    for n in range(41):
        for _ in range(4):
            k = int(rng.integers(0, n // 2 + 1))
            mags = rng.choice([0.5, 1.0, 3.0, *rng.uniform(0.0, 2.0, size=3)], size=k)
            values = np.concatenate([-mags, np.zeros(n - 2 * k), mags])
            nudged = rng.random(n) < 0.2
            values[nudged] += rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=int(nudged.sum())) * tol
            yield np.sort(values)
    # |lambda| exactly tol, and lambda+ + lambda- exactly tol
    yield np.array([-tol, tol])
    yield np.array([-tol, 0.0, tol])
    yield np.array([-1.0, 1.0 + tol])
    yield np.array([-1.0 - tol, -tol, 0.0, 1.0])


def test_pairing_check_matches_the_reference_loop(rng):
    tol = 2.0 ** -20
    for values in _pairing_spectra(rng):
        for given in (values, values.tolist()):
            report = pairing_check(given, tol)
            assert report == reference_pairing_check(given, tol)
            assert all(type(x) is float for pair in report.pairs for x in pair)
            assert type(report.zero_modes) is int and type(report.is_chiral_paired) is bool
            assert type(report.max_mismatch) is float
    for values in ([1.0, -1.0], [-1.0, 1.0, 0.0], [0.0, -tol], [-2.0, 1.0, 0.5, 2.0]):
        for check in (pairing_check, reference_pairing_check):
            with pytest.raises(ValueError, match="^eigenvalues must be sorted ascending$"):
                check(values, tol)


def test_chiral_map_half_spin_sigma_z():
    # H = Jx (crossed fields with b = 0); sigma_z anticommutes and maps the
    # +1/2 eigenstate onto the -1/2 one
    ops = build_spin_operators("1/2")
    sigma_z = np.diag([1.0, -1.0]).astype(complex)
    report = chiral_map_check(sigma_z, ops.jx)
    assert report.ok
    assert report.checked == 2


def test_chiral_map_zero_matrix_is_vacuous():
    report = chiral_map_check(np.eye(3), np.zeros((3, 3)))
    assert report.ok
    assert report.checked == 0


def test_chiral_map_oh_molecule():
    built = models.build(OHMolecule(B=0.7))
    r = composite_matrix(built.chiral_partner, built.dims)
    report = chiral_map_check(r, built.hamiltonian)
    assert report.ok
    assert report.checked == 8


def test_chiral_map_requires_anticommutation():
    with pytest.raises(ValueError, match="anticommute"):
        chiral_map_check(np.eye(2), np.diag([1.0, 2.0]).astype(complex))


def _rotations(hits):
    return [rot for rot, _ in hits]


def test_search_finds_toy_partner():
    built = models.build(ToyCoupled("1/2", "1/2", 1.0, 1.0))
    hits = search_partners(built.hamiltonian, built.dims)
    assert built.chiral_partner in _rotations(hits)


def test_search_identity_finds_nothing():
    assert search_partners(np.eye(4), [2, 2]) == []


def test_search_finds_oh_partner():
    built = models.build(OHMolecule())
    hits = search_partners(built.hamiltonian, built.dims)
    assert built.chiral_partner in _rotations(hits)


def test_search_hits_reclassify_as_anticommuting():
    built = models.build(ToyCoupled("1/2", "1", 0.8, -1.1))
    hits = search_partners(built.hamiltonian, built.dims)
    assert hits
    for hit, verdict in hits:
        assert verdict.kind is Symmetry.ANTICOMMUTING
        # the walk's prefix is the matrix composite_matrix builds, bit for bit
        assert classify(composite_matrix(hit, built.dims), built.hamiltonian) == verdict


def test_search_spin_zero_slots_offer_only_identity():
    # every rotation of a d = 1 slot is [[1]]: offering all seven would
    # repeat each hit 7 times per spin-0 slot (4,802 hits on four slots);
    # 2000 spin-0 slots were once 2000 levels of a recursive walk
    jz = build_spin_operators("1/2").jz
    for dims in ((1, 1, 1, 1, 2), (1,) * 2000 + (2,)):
        hits = search_partners(jz, dims)
        last = len(dims) - 1
        assert [hit.describe() for hit, _ in hits] == [f"R[{last},x](pi)", f"R[{last},y](pi)"]
        assert _rotations(hits) == brute_force_search(jz, dims)
    assert [hit.describe() for hit, _ in search_partners(jz, (2,))] == ["R[0,x](pi)", "R[0,y](pi)"]


def test_search_spin_zero_slots_only_renumber_the_hits():
    # a d = 1 slot is not a level of the walk: the hits and their verdicts
    # are those of the same H without it, at the slot indices after it
    h = spin_chain(np.random.default_rng(12), (2, 3), "xy", fields=True)
    plain = search_partners(h, (2, 3))
    assert plain
    padded = search_partners(h, (1, 2, 1, 1, 3, 1))
    renumber = {0: 1, 1: 4}
    assert padded == [
        (CompositeRotation(tuple(RotationSpec(renumber[f.slot], f.axis, f.angle) for f in rot.factors)), verdict)
        for rot, verdict in plain
    ]


def test_spectral_pairing_uses_default_tolerance(rng):
    h = 1e3 * random_hermitian(rng, 5)
    eigenvalues, report = spectral_pairing(h)
    tol = default_pairing_tol(h)
    assert np.array_equal(eigenvalues, linalg.hermitian_eigensolve(h, vectors=False).eigenvalues)
    assert report == pairing_check(eigenvalues, tol)


def test_search_rejects_inconsistent_dims():
    with pytest.raises(ValueError, match="dims"):
        search_partners(np.eye(4), [2, 3])
    with pytest.raises(ValueError, match="positive"):
        search_partners(np.eye(2), [-1, -2])


@pytest.mark.parametrize(
    "family",
    ("crossed_fields", "crossed_fields_shifted", "general_field",
     "triaxial_rotor", "toy_coupled", "oh_molecule"),
)
def test_search_finds_documented_partner(family, rng):
    if family == "general_field":
        # the documented partner axis (b, -a, 0)/|..| lies in the finite
        # candidate family only when it is axis-aligned; draw a = 0, b > 0
        spec = GeneralField(
            SpinLabel(int(rng.integers(1, 6))), 0.0,
            rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0),
        )
    else:
        spec = random_chiral_model(rng, family, max_twice_j=6, coupled_max=3)
    built = models.build(spec)
    shifted = models.shifted_hamiltonian(built)
    hits = search_partners(shifted, built.dims)
    assert built.chiral_partner in _rotations(hits)


def _fixture_searches():
    """Every search input of the other tests, raw and shifted, plus one
    parameter draw per family."""
    cases = []
    for name, spec in (
        ("toy-half-half", ToyCoupled("1/2", "1/2", 1.0, 1.0)),
        ("toy-half-one", ToyCoupled("1/2", "1", 0.8, -1.1)),
        ("oh", OHMolecule()),
        ("oh-B", OHMolecule(B=0.5)),
        ("crossed-1", CrossedFields("1", 1.0, 2.0)),
        ("crossed-3/2", CrossedFields("3/2", 1.0, 2.0)),
        ("rotor-2", TriaxialRotor("2", 1.0, 1.0 / 3.0, 0.5)),
        ("general-3/2", GeneralField("3/2", 0.0, 1.2, -0.7)),
    ):
        built = models.build(spec)
        cases.append(pytest.param(built.hamiltonian, built.dims, id=name))
        cases.append(pytest.param(models.shifted_hamiltonian(built), built.dims, id=name + "-shifted"))
    rng = np.random.default_rng(20260809)
    for family in FAMILIES:
        built = models.build(random_chiral_model(rng, family, max_twice_j=6, coupled_max=3))
        cases.append(pytest.param(models.shifted_hamiltonian(built), built.dims, id=family + "-drawn"))
    cases.append(pytest.param(np.eye(4), (2, 2), id="identity"))
    cases.append(pytest.param(0.5 * np.array([[0.0, 1.0], [1.0, 0.0]]), (2,), id="jx-matrix"))
    return cases


@pytest.mark.parametrize("h, dims", _fixture_searches())
def test_search_matches_brute_force_on_fixtures(h, dims):
    hits = search_partners(h, dims)
    assert _rotations(hits) == brute_force_search(h, dims)
    for hit, verdict in hits:
        assert classify(composite_matrix(hit, dims), h) == verdict


def _generated_searches():
    """At least 100 seeded (H, dims, search keywords) cases: spin-1/2 and
    spin-1 chains, mixed slot sizes up to spin 3/2, degenerate scales, d = 1
    slots, partners planted by construction and other tolerances."""
    rng = np.random.default_rng(4417)
    cases = []

    def add(tag, h, dims, **kwargs):
        cases.append(pytest.param(h, tuple(dims), kwargs, id=f"{len(cases)}-{tag}"))

    for d in (2, 3):
        for _ in range(4):
            add(f"d{d}-k1-field", spin_chain(rng, (d,), fields=True), (d,))
        for k, reps in ((2, 4), (3, 1)):
            for coupling in ("xy", "xyz"):
                for fields in (False, True):
                    for _ in range(reps):
                        dims = (d,) * k
                        add(f"d{d}-k{k}-{coupling}-{fields}", spin_chain(rng, dims, coupling, fields), dims)
        for k in (1, 2):
            for fields in (False, True) if k > 1 else (True,):
                # one H searched with spin-0 slots placed before, between
                # and after its slots
                h = spin_chain(rng, (d,) * k, "xy", fields)
                add(f"d{d}-k{k}-lead0", h, (1,) + (d,) * k)
                add(f"d{d}-k{k}-spread0", h, (1,) + (d, 1) * k)
        add(f"d{d}-k2-mid0", spin_chain(rng, (d, d), "xy", True), (d, 1, d))
        for k in (1, 2, 3) if d == 2 else (1, 2):
            dims = (d,) * k
            n = d**k
            add(f"d{d}-k{k}-tiny", 1e-6 * spin_chain(rng, dims, "xy", True), dims)
            add(f"d{d}-k{k}-zero", np.zeros((n, n)), dims)
            add(f"d{d}-k{k}-scalar", 2.5 * np.eye(n), dims)
        for tol in (1e-6, 1e-14):
            add(f"d{d}-k2-tol{tol:g}", spin_chain(rng, (d, d), "xy", True), (d, d), tol=tol)
    for dims in ((1,), (1, 1), (2, 1), (1, 3), (2, 2, 1), (2, 1, 2), (3, 1, 2), (1, 2, 2)):
        for coupling, fields in (("xy", True), ("xyz", False)):
            add(f"dims{dims}-{coupling}", spin_chain(rng, dims, coupling, fields), dims)
    for dims in ((2, 2), (3, 2), (2, 3), (2, 2, 2), (3, 3)):
        # H = X - C X C^dagger anticommutes with C, a product of pi
        # rotations (C^2 = +-1), so the planted partner is among the hits
        planted = CompositeRotation(tuple(
            RotationSpec(slot, ((1, 0, 0), (0, 1, 0), (0, 0, 1))[rng.integers(3)], "pi")
            for slot in range(len(dims))
        ))
        c = composite_matrix(planted, dims)
        x = random_hermitian(rng, c.shape[0])
        add(f"planted{dims}", x - c @ x @ c.conj().T, dims)
    dims = (2, 2, 2, 2)
    add("d2-k4-xy-fields", spin_chain(rng, dims, "xy", True), dims)
    # mixed slot sizes, spin-3/2 slots and spin-0 slots between others
    for dims in ((2, 3, 2), (3, 3, 2), (4, 4), (4, 2), (2, 4), (2, 1, 3), (3, 1, 1, 2), (2, 1, 2, 1, 2)):
        for coupling, fields in (("xy", True), ("xyz", False)):
            add(f"slots{dims}-{coupling}", spin_chain(rng, dims, coupling, fields), dims)
    return cases


@pytest.mark.parametrize("h, dims, kwargs", _generated_searches())
def test_search_matches_brute_force_on_generated_chains(h, dims, kwargs):
    assert _rotations(search_partners(h, dims, **kwargs)) == brute_force_search(h, dims, **kwargs)


def test_generated_searches_are_many_and_often_hit():
    cases = _generated_searches()
    hits = [bool(search_partners(*case.values[:2], **case.values[2])) for case in cases]
    assert len(cases) >= 100
    assert sum(hits) >= 40


def test_search_six_spin_chain_finds_alternating_partners(monkeypatch):
    dims = (2,) * 6
    h = spin_chain(np.random.default_rng(6), dims, "xy", fields=True)
    classified = _counting_classify(monkeypatch)
    hits = search_partners(h, dims)
    assert [hit.describe() for hit, _ in hits] == [
        "R[0,x](pi) * R[1,y](pi) * R[2,x](pi) * R[3,y](pi) * R[4,x](pi) * R[5,y](pi)",
        "R[0,y](pi) * R[1,x](pi) * R[2,y](pi) * R[3,x](pi) * R[4,y](pi) * R[5,x](pi)",
    ]
    # brute force classifies all 7^6 - 1 = 117,648 candidates; the cut
    # against H itself leaves classify the two hits
    assert len(classified) == 2


def _counting_classify(monkeypatch):
    """Patch ``chiral.classify`` to record the dimension of every call."""
    classified = []
    original = chiral.classify

    def counting(c, hh, tol):
        classified.append(c.shape[0])
        return original(c, hh, tol)

    monkeypatch.setattr(chiral, "classify", counting)
    return classified


def _traced_peak(f, *args):
    """f(*args) and the peak bytes that tracemalloc, which sees numpy's
    buffers, traces while it runs."""
    tracemalloc.start()
    try:
        out = f(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_search_ten_spin_chain_at_the_size_cap(monkeypatch):
    # dim 1024 = MAX_HILBERT_DIM: a block of children never holds more than
    # one H, the temporaries are freed before classify, and only the two
    # hits pass the cut against H itself
    dims = (2,) * 10
    n = 2 ** 10
    h = spin_chain(np.random.default_rng(6), dims, "xy", fields=True)
    classified = _counting_classify(monkeypatch)
    hits, peak = _traced_peak(search_partners, h, dims)
    assert [hit.describe() for hit, _ in hits] == [
        " * ".join(f"R[{s},{'xy'[(s + k) % 2]}](pi)" for s in range(10)) for k in (0, 1)
    ]
    assert classified == [n, n]
    assert peak <= 6 * 16 * n * n


@pytest.mark.parametrize("k", (8, 9))
def test_search_peak_memory_below_the_size_cap(k):
    # chunks of up to 7 children hold more than one H below the cap, and
    # still stay under the bound that holds at dim 1024
    dims = (2,) * k
    h = spin_chain(np.random.default_rng(6), dims, "xy", fields=True)
    hits, peak = _traced_peak(search_partners, h, dims)
    assert len(hits) == 2
    assert peak < 6 * 16 * MAX_HILBERT_DIM ** 2


def _block_boundary_searches():
    """Slot dims where the seven children of a prefix come in chunks of at
    most MAX_HILBERT_DIM^2 entries: 6 + 1 at child dim 400, 4 + 3 at 512."""
    cases = []
    for d in (400, 512):
        label = SpinLabel(d - 1)
        # the one hit R[0,z](pi) is pick 5, in the second chunk at d = 512
        crossed = models.build(CrossedFields(label, 0.75, -0.5)).hamiltonian
        cases.append(pytest.param(crossed, (d,), ["R[0,z](pi)"], id=f"crossed-{d}"))
        # hits at picks 1 and 3, both in the first chunk
        jz = build_spin_operators(label).jz
        cases.append(pytest.param(jz, (d,), ["R[0,x](pi)", "R[0,y](pi)"], id=f"jz-{d}"))
    # child dim 400 on the last slot, after a walked spin-1/2 slot
    chain = spin_chain(np.random.default_rng(5), (2, 200), "xy", fields=True)
    alternating = ["R[0,x](pi) * R[1,y](pi)", "R[0,y](pi) * R[1,x](pi)"]
    cases.append(pytest.param(chain, (2, 200), alternating, id="chain-2-200"))
    return cases


@pytest.mark.parametrize("h, dims, expected", _block_boundary_searches())
def test_search_matches_brute_force_across_block_boundaries(h, dims, expected):
    hits = search_partners(h, dims)
    assert [hit.describe() for hit, _ in hits] == expected
    assert _rotations(hits) == brute_force_search(h, dims)
    for hit, verdict in hits:
        assert classify(composite_matrix(hit, dims), h) == verdict


def test_generated_searches_classify_only_their_hits(monkeypatch):
    # on every generated case each candidate that passes the cut against H
    # itself is a hit
    classified = _counting_classify(monkeypatch)
    hits = 0
    for case in _generated_searches():
        hits += len(search_partners(*case.values[:2], **case.values[2]))
    assert hits > 100
    assert len(classified) == hits


def _counting_eigensolve(monkeypatch):
    """Patch ``linalg.hermitian_eigensolve`` to record the dimension of every
    call."""
    solved = []
    original = linalg.hermitian_eigensolve

    def counting(h, *args, **kwargs):
        solved.append(h.shape[0])
        return original(h, *args, **kwargs)

    monkeypatch.setattr(linalg, "hermitian_eigensolve", counting)
    return solved


@pytest.mark.parametrize("d", (2, 3, 4, CACHE_MAX_DIM))
def test_cached_factor_table_is_a_fresh_build_and_read_only(d):
    cached = chiral._factor_table(d)
    assert chiral._factor_table(d) is cached
    fresh = chiral._cached_factor_table.__wrapped__(d)
    assert fresh is not cached
    assert (fresh.shape, fresh.tobytes()) == (cached.shape, cached.tobytes())
    with pytest.raises(ValueError):
        cached[0, 0, 0] = 2.0


def test_second_search_on_the_same_slot_dims_makes_no_eigensolve(monkeypatch):
    built = models.build(ToyCoupled("1/2", "3/2", 0.8, -1.1))
    first = search_partners(built.hamiltonian, built.dims)
    solved = _counting_eigensolve(monkeypatch)
    assert search_partners(built.hamiltonian, built.dims) == first
    assert solved == []


def test_factor_table_above_the_bound_is_built_per_call(monkeypatch):
    d = 400
    jz = build_spin_operators(SpinLabel(d - 1)).jz
    size = chiral._cached_factor_table.cache_info().currsize
    solved = _counting_eigensolve(monkeypatch)
    for calls in (1, 2):
        assert [hit.describe() for hit, _ in search_partners(jz, (d,))] == ["R[0,x](pi)", "R[0,y](pi)"]
        # one eigendecomposition of n.J per axis
        assert solved == [d] * 3 * calls
    assert chiral._cached_factor_table.cache_info().currsize == size


def test_caches_keep_no_entry_above_the_bound():
    # a single cached table or operator set above the bound would be tens of
    # MB: at d = 512, 29 MB and 25 MB
    chiral._cached_factor_table.cache_clear()
    angmom._cached_spin_operators.cache_clear()
    jz = build_spin_operators(SpinLabel(511)).jz
    assert len(search_partners(jz, (512,))) == 2
    chiral._factor_table(CACHE_MAX_DIM + 1)
    assert chiral._cached_factor_table.cache_info().currsize == 0
    assert angmom._cached_spin_operators.cache_info().currsize == 0
    # the bound itself is cached: one table, and the operators it was built from
    chiral._factor_table(CACHE_MAX_DIM)
    assert chiral._cached_factor_table.cache_info().currsize == 1
    assert angmom._cached_spin_operators.cache_info().currsize == 1


def test_eigensolver_failure_in_a_table_build_caches_nothing(monkeypatch):
    def failing_eigensolver(*_args, **_kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    built = models.build(ToyCoupled("1", "5/2", 0.6, 1.3))
    chiral._cached_factor_table.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", failing_eigensolver)
        with pytest.raises(np.linalg.LinAlgError):
            search_partners(built.hamiltonian, built.dims)
    assert chiral._cached_factor_table.cache_info().currsize == 0
    hits = search_partners(built.hamiltonian, built.dims)
    assert hits
    assert _rotations(hits) == brute_force_search(built.hamiltonian, built.dims)


def test_odd_traces_vanish_for_chiral_model():
    built = models.build(GeneralField("5/2", 1.0, 2.0, 0.5))
    report = trace_oddpower_check(built.hamiltonian, max_power=5)
    assert report.all_vanish
    assert [k for k, _, _ in report.traces] == [1, 3, 5]


def test_odd_traces_flag_displaced_spectrum():
    report = trace_oddpower_check(np.diag([1.0, 2.0]).astype(complex), max_power=3)
    assert not report.all_vanish
    assert report.traces[0][1] == pytest.approx(3.0)


def test_odd_traces_vanish_for_shifted_rotor(rng):
    built = models.build(random_chiral_model(rng, "triaxial_rotor"))
    report = trace_oddpower_check(models.shifted_hamiltonian(built), max_power=7)
    assert report.all_vanish


def test_anticommuting_partner_implies_pairing(rng):
    for family in ("crossed_fields", "general_field", "toy_coupled", "oh_molecule"):
        built = models.build(random_chiral_model(rng, family, coupled_max=3))
        shifted = models.shifted_hamiltonian(built)
        r = composite_matrix(built.chiral_partner, built.dims)
        assert classify(r, shifted).kind in (Symmetry.ANTICOMMUTING, Symmetry.BOTH)
        eig = linalg.hermitian_eigensolve(shifted)
        tol = default_pairing_tol(shifted)
        assert pairing_check(eig.eigenvalues, tol).is_chiral_paired


def test_odd_dimension_forces_zero_mode(rng):
    for twice_j in (2, 4, 6):
        a, b, c = rng.uniform(-2.0, 2.0, size=3)
        built = models.build(GeneralField(SpinLabel(twice_j), a, b, c))
        eig = linalg.hermitian_eigensolve(built.hamiltonian)
        hnorm = linalg.frobenius(built.hamiltonian)
        assert np.min(np.abs(eig.eigenvalues)) < 1e-9 * hnorm


def _generated_chiral(rng, dims):
    """H = X - C X C^dagger for a random Hermitian X, with C a product of pi
    rotations about random axes on every slot. C^2 = +-1, so C H C^dagger =
    -H: C anticommutes with H, which is otherwise generic."""
    c = composite_matrix(
        CompositeRotation(
            tuple(RotationSpec(slot, random_unit_vector(rng), "pi") for slot in range(len(dims)))
        ),
        dims,
    )
    dim = c.shape[0]
    assert linalg.frobenius(c @ c - (c @ c)[0, 0] * np.eye(dim)) < 1e-12
    x = random_hermitian(rng, dim)
    return c, x - c @ x @ c.conj().T


def _assert_chiral_identities(c, h):
    """Mirror pairing, exactly one zero mode at odd dim (every slot is
    rotated, so C's two eigenspaces differ in size by dim mod 2 and H maps
    each into the other), the eigenvector map C: lambda -> -lambda, and
    through ``full_solve`` the same pairing, an even characteristic
    polynomial and closed forms on the radicals route."""
    dim = h.shape[0]
    eig = linalg.hermitian_eigensolve(h)
    tol = default_pairing_tol(h)
    report = pairing_check(eig.eigenvalues, tol)
    assert report.is_chiral_paired, dim
    assert report.zero_modes == dim % 2, dim
    assert 2 * len(report.pairs) + report.zero_modes == dim
    mapped = chiral_map_check(c, h)
    assert mapped.ok, dim
    assert mapped.checked == dim - dim % 2
    solved = full_solve(h)
    assert solved.parity_ok, dim
    assert solved.zero_root_multiplicity == dim % 2, dim
    coeffs = np.array(solved.charpoly.coeffs)
    assert np.max(np.abs(coeffs[dim % 2 + 1::2])) <= 1e-10 * np.max(np.abs(coeffs)), dim
    assert solved.reduced.mu_coeffs == tuple(coeffs[dim % 2::2])
    if dim <= 9:
        assert solved.method is SolveMethod.RADICALS
        assert solved.max_root_deviation < 1e-9 * linalg.frobenius(h), dim


def test_generated_chiral_single_spin_dims_2_to_40(rng):
    for dim in range(2, 41):
        _assert_chiral_identities(*_generated_chiral(rng, (dim,)))


# The last five reach dim 256: the 2^8 and 3 x 5 x 17 draws failed the
# odd-coefficient check while the polynomial's low coefficients underflowed.
# Single spins stop at 128, as the pi rotation of a spin at dim 255-256
# misses C^2 = +-1 by more than the generator's 1e-12.
@pytest.mark.parametrize(
    "dims",
    [(2, 2), (2, 3), (3, 3), (4, 5), (3, 7), (5, 7), (2, 2, 2), (2, 3, 3), (3, 3, 3), (3, 3, 4), (2, 4, 5),
     (127,), (128,), (3,) * 5, (3, 5, 17), (2,) * 8],
)
def test_generated_chiral_products(rng, dims):
    _assert_chiral_identities(*_generated_chiral(rng, dims))

"""Bethe diagonalization tests: roots, eigenpairs, spectra, growth constants.

Residual checks are performed against dense blocks assembled independently
inside verify_sector; here we freeze concrete eigenvalues and identities.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from barreldimer import bethe, errors, paths, transfer
from conftest import amplitudes_by_entry, weighted_block_entry


# ---------------------------------------------------------------------------
# Roots and selections
# ---------------------------------------------------------------------------


def test_roots_odd_sector_are_mth_roots_of_unity():
    roots = np.array(bethe.roots_for_sector(3, 1))
    assert np.allclose(sorted(np.angle(roots)), [-2 * np.pi / 3, 0.0, 2 * np.pi / 3])
    assert np.allclose(roots ** 3, 1.0)


def test_roots_even_sector_are_odd_eighth_roots():
    roots = np.array(bethe.roots_for_sector(4, 2))
    assert np.allclose(roots ** 4, -1.0)
    assert len(set(np.round(roots, 12).tolist())) == 4


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_root_power_sign_rule(m):
    for p in range(m + 1):
        roots = np.array(bethe.roots_for_sector(m, p))
        assert np.allclose(roots ** m, (-1.0) ** (p + 1))


def test_roots_are_cached_per_sector():
    roots = bethe.roots_for_sector(7, 3)
    assert isinstance(roots, tuple) and len(roots) == 7
    assert bethe.roots_for_sector(7, 3) is roots
    assert bethe.roots_for_sector(7, 2) is not roots


@pytest.mark.parametrize("m, p, error", [
    (5, 6, errors.SectorError), (5, -1, errors.SectorError), (2, 0, errors.InvalidParamsError),
])
def test_bad_sector_raises_on_every_call(m, p, error):
    for _ in range(3):
        with pytest.raises(error):
            bethe.roots_for_sector(m, p)


@pytest.mark.parametrize("entry", [
    lambda m: bethe.roots_for_sector(m, 1),
    lambda m: bethe.selections_for_sector(m, 1),
    lambda m: bethe.lambda_max_sector(m, 1),
    bethe.p_zero,
    bethe.n_zero,
    bethe.growth_constant,
    paths.leading_n_consistency,
    transfer.boundary_vector,
    transfer.build_transfer,
], ids=["roots_for_sector", "selections_for_sector", "lambda_max_sector", "p_zero",
        "n_zero", "growth_constant", "leading_n_consistency", "boundary_vector",
        "build_transfer"])
@pytest.mark.parametrize("m", [2, 3.5])
def test_width_entry_points_raise_invalid_params(entry, m):
    """A width below 3 or not an int is refused with a typed error, not a value."""
    with pytest.raises(errors.InvalidParamsError):
        entry(m)


def test_selections_are_colex_ordered():
    sels = bethe.selections_for_sector(4, 2)
    assert sels == ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
    assert len(bethe.selections_for_sector(6, 3)) == 20


# ---------------------------------------------------------------------------
# Eigenpairs
# ---------------------------------------------------------------------------


def test_eigenvalue_ground_selection_m3():
    _, lam = bethe.bethe_eigenpair(3, 1, (0,))
    assert lam == pytest.approx(3.0, abs=1e-12)


def test_eigenvalue_nilpotent_selection_m3():
    _, lam = bethe.bethe_eigenpair(3, 1, (1,))
    assert abs(lam) < 1e-12


def test_full_sector_eigenvalue_is_one():
    _, lam = bethe.bethe_eigenpair(3, 3, (0, 1, 2))
    assert lam == pytest.approx(1.0, abs=1e-12)


def test_eigenpair_rejects_bad_selection():
    with pytest.raises(errors.SectorError):
        bethe.bethe_eigenpair(3, 1, (0, 1))
    with pytest.raises(errors.SectorError):
        bethe.bethe_eigenpair(3, 1, (5,))
    with pytest.raises(errors.DegenerateRootsError):
        bethe.bethe_eigenpair(3, 2, (1, 1))


def eigenvalue_direct(m: int, p: int, selection, b: float, c: float) -> complex:
    """Quotient form (c^m + (-1)^p b^m) / prod_{r in R} (c z_r - b).

    Equal to the complementary product wherever the denominator is
    nonzero; kept as an independent cross-check of the closed form.
    """
    roots = bethe.roots_for_sector(m, p)
    denom = 1.0 + 0.0j
    for r in selection:
        denom *= c * roots[r] - b
    num = c**m + (-1) ** p * b**m
    return num / denom


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_direct_equals_complementary_eigenvalue(m):
    rng = np.random.default_rng(97)
    for p in range(m + 1):
        sels = bethe.selections_for_sector(m, p)
        take = sels if len(sels) <= 6 else [sels[i] for i in rng.choice(len(sels), 6, replace=False)]
        for sel in take:
            b, c = rng.uniform(0.5, 2.0, size=2)
            direct = eigenvalue_direct(m, p, sel, b, c)
            comp = bethe.complementary_eigenvalue(m, p, sel, b, c)
            assert direct == pytest.approx(comp, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# Full-sector verification
# ---------------------------------------------------------------------------


def test_verify_sector_m3_spectrum():
    spectrum = bethe.verify_sector(3, 1)
    eigs = sorted(round(e.eigenvalue.real, 9) for e in spectrum.entries)
    assert eigs == [0.0, 0.0, 3.0]
    assert spectrum.rank == 3
    assert spectrum.max_residual <= 1e-9


def test_verify_sector_generic_weights_full_rank():
    spectrum = bethe.verify_sector(4, 2, b=1.2, c=0.8)
    assert spectrum.dimension == 6
    assert spectrum.rank == 6
    assert spectrum.max_residual <= 1e-9


def test_verify_sector_spectra_close_under_conjugation():
    spectrum = bethe.verify_sector(5, 1)
    eigs = np.array([e.eigenvalue for e in spectrum.entries])
    conj = np.conj(eigs)
    assert np.allclose(np.sort_complex(eigs), np.sort_complex(conj), atol=1e-9)


def test_verify_sector_rejects_large_m():
    with pytest.raises(errors.TooLargeError):
        bethe.verify_sector(9, 1)


def test_verify_sector_rejects_non_finite_weights():
    with pytest.raises(errors.InvalidParamsError):
        bethe.verify_sector(4, 2, math.nan)
    with pytest.raises(errors.InvalidParamsError):
        bethe.verify_sector(4, 2, 1.0, math.inf)


def test_verify_sector_rejects_overflowing_weights():
    """b^2 = 1e400 is no float; the block must not leak an OverflowError.
    Nor must the weight check, which would convert an int beyond the float
    range such as 10^400 if it asked math.isfinite."""
    with pytest.raises(errors.InvalidParamsError):
        bethe.verify_sector(4, 2, 1e200)
    with pytest.raises(errors.InvalidParamsError):
        bethe.verify_sector(4, 2, 1.0, 1e200)
    for b, c in [(10**400, 1.0), (1, 10**400), (10**400, 10**400)]:
        with pytest.raises(errors.InvalidParamsError, match="overflow a float"):
            bethe.verify_sector(4, 2, b, c)


def test_verify_sector_names_an_int_weight_of_more_than_4300_digits_by_its_bits():
    """str() of such an int raises ValueError under Python's int-to-str digit limit;
    the message names it by its bit length instead."""
    with pytest.raises(errors.InvalidParamsError, match="b=an int of 16610 bits, c=1.0 "
                                                        "overflow a float"):
        bethe.verify_sector(4, 2, 10**5000)
    with pytest.raises(errors.InvalidParamsError,
                       match="must be finite, got b=nan, c=an int of 16610 bits"):
        bethe.verify_sector(4, 2, math.nan, 10**5000)


def _dense_block_reference(m, p, b, c):
    """The block entry by entry from the per-entry arc reference, one matching at a time."""
    basis = bethe._block_basis(m, p)
    mat = np.zeros((len(basis), len(basis)))
    for i, mask in enumerate(basis):
        for j, t_mask in enumerate(basis):
            for b_exp, c_exp in weighted_block_entry(m, mask, t_mask):
                mat[i, j] += b ** b_exp * c ** c_exp
    return mat


@pytest.mark.parametrize("m", range(3, 9))
def test_cached_block_structure_gives_the_same_matrices(m):
    """The block, and per selection the cached roots, norm and omega overlap
    bit for bit as verify_sector took them from each row."""
    for p in range(m + 1):
        block = bethe._dense_block(m, p, 2.0, 3.0)
        assert np.array_equal(block, _dense_block_reference(m, p, 2.0, 3.0)), p
        _, table, amplitudes, omega_vec = bethe._block_structure(m, p)
        roots = bethe.roots_for_sector(m, p)
        sels = bethe.selections_for_sector(m, p)
        assert [row[0] for row in table] == list(sels)
        for (sel, sel_roots, norm, overlap), v in zip(table, amplitudes, strict=True):
            assert sel_roots == tuple(roots[r] for r in sel), (p, sel)
            assert norm == np.linalg.norm(v), (p, sel)
            assert overlap == complex(omega_vec @ v), (p, sel)


@pytest.mark.parametrize("m", range(3, 9))
def test_cached_omega_overlap_is_the_boundary_vector(m):
    omega = transfer.boundary_vector(m)
    for p in range(m + 1):
        *_, amplitudes, omega_vec = bethe._block_structure(m, p)
        assert list(omega_vec) == [omega.get(mask, 0) for mask in bethe._block_basis(m, p)]
        assert not omega_vec.flags.writeable
        assert not amplitudes.flags.writeable


@pytest.mark.parametrize("m", range(3, 9))
def test_stacked_amplitudes_equal_the_entry_loop(m):
    """Every row of the sector's amplitude matrix, bit for bit."""
    for p in range(m + 1):
        *_, amplitudes, _ = bethe._block_structure(m, p)
        roots, basis = bethe.roots_for_sector(m, p), bethe._block_basis(m, p)
        for sel, row in zip(bethe.selections_for_sector(m, p), amplitudes, strict=True):
            want = amplitudes_by_entry(roots, sel, basis)
            assert tuple(row.tolist()) == want, (p, sel)
            assert bethe.bethe_eigenpair(m, p, sel)[0].amplitudes == want, (p, sel)


@pytest.mark.parametrize("m", range(3, 9))
def test_block_exponents_cover_the_evaluated_range(m):
    """_dense_block evaluates b^(m-p-d) c^d for d = 0 .. m - p: every such d is
    read for p >= 1, and the p = 0 entry reads d = 0 (b^m), then d = m (c^m)."""
    for p in range(m + 1):
        (rows, cols, exps), *_ = bethe._block_structure(m, p)
        assert len(rows) == len(cols) == len(exps)
        if p:
            assert set(exps.tolist()) == set(range(m - p + 1)), p
        else:
            assert exps.tolist() == [0, m]


def test_block_structure_cache_is_bounded():
    assert bethe._block_structure.cache_info().maxsize is not None


def test_verify_sector_rank_deficiency_fails(monkeypatch):
    real = np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "matrix_rank", lambda a, *args: real(a, *args) - 1)
    bethe._block_structure.cache_clear()
    with pytest.raises(errors.RankDeficientError):
        bethe.verify_sector(4, 2)


def test_sector_rank_is_taken_once_per_sector(monkeypatch):
    """The amplitude matrix does not depend on the weights, so its rank is
    checked once, when the sector table is built, not on every draw."""
    real, calls = np.linalg.matrix_rank, []

    def counted(a, *args):
        calls.append(a.shape)
        return real(a, *args)

    bethe._block_structure.cache_clear()
    monkeypatch.setattr(np.linalg, "matrix_rank", counted)
    for b, c in [(1.0, 1.0), (2.0, 3.0), (0.5, 1.7)]:
        assert bethe.verify_sector(5, 2, b, c).rank == 10
    assert calls == [(10, 10)]


@pytest.mark.parametrize("weight", ["1", None, 1j, True, False])
@pytest.mark.parametrize("slot", ["b", "c"])
def test_verify_sector_rejects_weights_that_are_not_numbers(slot, weight):
    """Weights follow the coordinate rule of the walker estimate: an int or a
    float, and no bool."""
    with pytest.raises(errors.InvalidParamsError, match="must be finite"):
        bethe.verify_sector(4, 2, **{slot: weight})


def test_verify_sector_takes_int_and_numpy_float_weights():
    assert bethe.verify_sector(4, 2, 2, np.float64(3.0)).max_residual <= bethe.RESIDUAL_TOL


def test_eigenpair_refuses_m_above_the_cap_before_the_basis_scan(monkeypatch):
    def unreachable(*args):
        raise AssertionError("basis scanned despite the eigenpair cap")

    monkeypatch.setattr(bethe, "_block_basis", unreachable)
    monkeypatch.setattr(bethe, "selections_for_sector", unreachable)
    with pytest.raises(errors.TooLargeError):
        bethe.bethe_eigenpair(transfer.TRANSFER_M_CAP + 1, 1, (0,))


def test_verify_sector_nan_residual_fails(monkeypatch):
    real = bethe._dense_block

    def poisoned(m, p, b, c):
        block = real(m, p, b, c)
        block[0, 0] = math.nan
        return block

    monkeypatch.setattr(bethe, "_dense_block", poisoned)
    with pytest.raises(errors.ResidualExceededError):
        bethe.verify_sector(4, 2)


# ---------------------------------------------------------------------------
# Root-of-unity product identity
# ---------------------------------------------------------------------------


def test_identity_concrete_value():
    roots = np.array(bethe.roots_for_sector(5, 1))
    prod = np.prod(2.0 - 3.0 * roots)
    assert prod == pytest.approx(2 ** 5 - 3 ** 5, rel=1e-12)


def test_identity_degenerate_weight():
    assert bethe.roots_identity_check(4, 2, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("m", [3, 5, 8, 12, 20])
def test_identity_random_weights(m):
    rng = np.random.default_rng(271828)
    for p in range(m + 1):
        b, c = rng.uniform(0.5, 2.0, size=2)
        assert bethe.roots_identity_check(m, p, b, c) <= 1e-9


# ---------------------------------------------------------------------------
# Sector maxima and the growth constant
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "m,p,value",
    [
        (3, 1, 3.0),
        (3, 3, 1.0),
        (4, 0, 2.0),
        (4, 2, 2.0 + math.sqrt(2.0)),
        (4, 4, 1.0),
        (5, 1, 5.0),
        (6, 2, 4.0 + 2.0 * math.sqrt(3.0)),
    ],
)
def test_lambda_max_closed_values(m, p, value):
    assert bethe.lambda_max_sector(m, p) == pytest.approx(value, rel=1e-12)


def test_p_zero_and_n_zero_tables():
    assert [bethe.p_zero(m) for m in range(3, 10)] == [1, 2, 1, 2, 3, 2, 3]
    assert [bethe.n_zero(m) for m in range(3, 10)] == [2, 2, 4, 4, 4, 6, 6]
    for m in range(3, 65):
        assert bethe.p_zero(m) + bethe.n_zero(m) == m
        assert bethe.p_zero(m) % 2 == m % 2


@pytest.mark.parametrize(
    "m,rho",
    [(3, 3.0), (4, 2.0 + math.sqrt(2.0)), (5, 5.0), (6, 4.0 + 2.0 * math.sqrt(3.0))],
)
def test_growth_constant_closed_values(m, rho):
    assert bethe.growth_constant(m) == pytest.approx(rho, rel=1e-12)


def test_growth_constant_internal_crosscheck_never_trips():
    for m in range(3, 65):
        assert bethe.growth_constant(m) > 1.0


def test_growth_constant_stops_at_the_first_inf(monkeypatch):
    """Every factor is >= 1, so the product stops within ~512 of m = 10^12's 3.3e11 factors."""
    real, calls = math.cos, [0]

    def counted(x):
        calls[0] += 1
        if calls[0] > 10_000:
            raise AssertionError("cosine product kept going after inf")
        return real(x)

    monkeypatch.setattr(math, "cos", counted)
    with pytest.raises(errors.TooLargeError, match="float range"):
        bethe.growth_constant(10**12)


def test_growth_constant_is_the_walker_base_at_n0():
    """One product: growth and asymptotic --aggregate print the same rho(m)."""
    for m in range(3, 2198):
        assert bethe.growth_constant(m) == bethe.eigenterm(m, bethe.n_zero(m)), m


@pytest.mark.parametrize("check", [bethe.growth_constant, paths.leading_n_consistency])
@pytest.mark.parametrize("skew", [lambda lam: lam * (1 + 1e-9), lambda lam: math.nan],
                         ids=["1e-9", "nan"])
def test_route_disagreement_raises(monkeypatch, check, skew):
    """Both callers compare the two routes in one place, which refuses a NaN too."""
    real = bethe.lambda_max_sector
    monkeypatch.setattr(bethe, "lambda_max_sector", lambda m, p: skew(real(m, p)))
    with pytest.raises(errors.FormulaMismatchError):
        check(7)


def test_lambda_max_stops_at_the_first_zero(monkeypatch):
    """Every sine factor is positive, so the product stops once it underflows to 0."""
    real, calls = math.sin, [0]

    def counted(x):
        calls[0] += 1
        if calls[0] > 10_000:
            raise AssertionError("sine product kept going after 0")
        return real(x)

    monkeypatch.setattr(math, "sin", counted)
    with pytest.raises(errors.TooLargeError, match="float range"):
        bethe.lambda_max_sector(10**12, 10**11)


@pytest.mark.parametrize("call", [
    lambda: bethe.lambda_max_sector(4, 2.5),
    lambda: bethe.eigenterm(4, 2.5),
    lambda: bethe.bethe_eigenpair(4, 1, (1.5,)),
    lambda: bethe.bethe_eigenpair(4, 1, (True,)),
    lambda: transfer.sector_count(4, 2, 2.0),
], ids=["lambda_max_sector", "eigenterm", "eigenpair-float", "eigenpair-bool", "sector_count"])
def test_an_index_that_is_not_an_int_is_a_sector_error(call):
    with pytest.raises(errors.SectorError):
        call()


@pytest.mark.parametrize("m,n", [(2, 2), (0, 0), (2.0, 0)])
def test_eigenterm_rejects_a_bad_width(m, n):
    """The width is checked before the walker number, as in lambda_max_sector."""
    with pytest.raises(errors.InvalidParamsError):
        bethe.eigenterm(m, n)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_dominant_sector_is_p_zero(m):
    p0 = bethe.p_zero(m)
    values = {p: bethe.lambda_max_sector(m, p) for p in range(m % 2, m + 1, 2)}
    assert max(values, key=values.get) == p0
    for p, v in values.items():
        if p != p0:
            assert v < values[p0] - 1e-9


def test_growth_constant_agrees_with_empirical_ratio():
    from fractions import Fraction

    rho = bethe.growth_constant(4)
    ratio = Fraction(
        transfer.count_matchings_transfer(4, 31), transfer.count_matchings_transfer(4, 30)
    )
    assert abs(float(ratio) - rho) < 1e-6 * rho


# ---------------------------------------------------------------------------
# Perron vector positivity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", range(3, 17))
def test_top_selection_takes_the_roots_nearest_one(m):
    """The p root indices whose |arg z| is smallest; the cut never splits a conjugate pair."""
    for p in range(m + 1):
        roots = bethe.roots_for_sector(m, p)
        nearest = sorted(range(m), key=lambda r: abs(cmath.phase(roots[r])))[:p]
        assert bethe.top_selection(m, p) == tuple(sorted(nearest)), p


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_perron_positivity(m):
    rep = bethe.perron_positivity_check(m)
    assert rep.p0 == bethe.p_zero(m)
    assert rep.min_amplitude > 0
    assert rep.max_imag <= 1e-9
    assert rep.eigenvalue == pytest.approx(bethe.growth_constant(m), rel=1e-9)


def test_perron_amplitudes_m4_are_sine_ratios():
    rep = bethe.perron_positivity_check(4)
    vec, _ = bethe.bethe_eigenpair(4, 2, rep.selection)
    amps = np.array(vec.amplitudes)
    amps = (amps / amps[0]).real
    assert np.allclose(amps, [1.0, math.sqrt(2.0), 1.0, 1.0, math.sqrt(2.0), 1.0])

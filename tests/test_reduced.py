import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lmglab.analytic import entropy_analytic
from lmglab.model import ModelParams, ground_state
from lmglab.reduced import (
    Bipartition,
    ReducedDensityError,
    _box_weights,
    _log_binomials,
    reduce_state,
    von_neumann_entropy,
)

from oracles import (
    dense_reduced,
    full_quarter_reduce,
    hypergeometric,
    lift_reduced,
    lift_to_product_basis,
    partial_trace_first,
    reduced_from_matrix,
)


def _weights(n, m_sub):
    """sqrt(H(p; N, M, p + k)) over every p and k, from the four parity boxes."""
    table = np.empty((m_sub + 1, n - m_sub + 1))
    for r in (0, 1):
        for c in (0, 1):
            n_rows, n_cols = (m_sub - r) // 2 + 1, (n - m_sub - c) // 2 + 1
            table[r::2, c::2] = _box_weights(n, m_sub, r, c, n_rows, n_cols)
    return table


def _anti_diagonal_sums(table):
    """Sums of table[p, k] over p + k = m, for m = 0..N."""
    p, k = np.indices(table.shape)
    return np.bincount((p + k).ravel(), table.ravel())


class TestLogBinomials:
    @pytest.mark.parametrize(
        "n", [0, 1, 2, 3, 4, 63, 64, 511, 512, 1023, 1024, 4095, 4096]
    )
    def test_equals_log_of_exact_comb(self, n):
        # n = 0 is reached by the complement table when M = N.
        table = _log_binomials(n)
        expected = [math.log(math.comb(n, k)) for k in range(n + 1)]
        assert np.array_equal(table, expected)
        assert not table.flags.writeable


class TestHypergeometricWeight:
    """The weights reduce_state forms, sqrt(H(p; N, M, p + k)) at each (p, k)."""

    def test_subsystem_is_everything(self):
        assert np.array_equal(_weights(4, 4), np.ones((5, 1)))

    def test_direct_binomial_value(self):
        # C(1,0) C(1,1) / C(2,1) = 1/2
        assert _weights(2, 1)[0, 1] ** 2 == pytest.approx(0.5, abs=1e-15)

    def test_out_of_support_is_zero(self):
        # The exact reference the tests sum over every m, in support or not.
        exact = hypergeometric(10, 4)
        assert exact[0, 8] == 0.0  # m - p > N - M
        assert exact[4, 2] == 0.0  # m - p < 0
        assert exact[2, 4] == 6 * 15 / 210

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 33, 40])
    def test_entries_match_exact_oracle(self, n):
        # Each weight is exp of a sum of three log-binomials, each within an
        # ulp of log C(n, n/2), so the relative error is a few of those ulps.
        tol = 4 * np.spacing(max(1.0, math.log(math.comb(n, n // 2))))
        for m_sub in range(1, n + 1):
            table = _weights(n, m_sub)
            p, k = np.indices(table.shape)
            exact = np.sqrt(hypergeometric(n, m_sub)[p, p + k])
            np.testing.assert_allclose(table, exact, rtol=tol, atol=0)

    def test_normalization_over_p(self):
        # Vandermonde: sum_p H(p; N, M, m) = 1, including large sizes.
        for n, m_sub in [(6, 2), (40, 13), (400, 137), (400, 399)]:
            totals = _anti_diagonal_sums(_weights(n, m_sub) ** 2)
            assert np.abs(totals - 1.0).max() < 1e-12, (n, m_sub)


class TestReduceState:
    def test_full_subsystem_is_pure_projector(self):
        state = ground_state(ModelParams(12, 0.5, 0.7))
        rho = reduce_state(state, Bipartition(12, 12))
        np.testing.assert_allclose(
            dense_reduced(rho), np.outer(state.coefficients, state.coefficients),
            atol=1e-13,
        )
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_polarized_limit_single_entry(self):
        # Residual squeezing corrections at h=100 are O((1-gamma)/8h) ~ 6e-4.
        state = ground_state(ModelParams(24, 0.5, 100.0))
        rho = dense_reduced(reduce_state(state, Bipartition(24, 6)))
        assert rho[6, 6] == pytest.approx(1.0, abs=1e-3)
        off = rho.copy()
        off[6, 6] = 0.0
        assert np.abs(off).max() < 1e-3

    def test_matches_brute_force_partial_trace(self):
        state = ground_state(ModelParams(6, 0.5, 0.7))
        psi = lift_to_product_basis(state.coefficients)
        brute = partial_trace_first(psi, 3, 6)
        ours = lift_reduced(dense_reduced(reduce_state(state, Bipartition(6, 3))))
        np.testing.assert_allclose(ours, brute, atol=1e-10)

    def test_brute_force_grid(self):
        for n, gamma, h in [(5, 0.0, 1.2), (7, 0.5, 0.4), (8, 1.0, 0.9)]:
            state = ground_state(ModelParams(n, gamma, h))
            psi = lift_to_product_basis(state.coefficients)
            for m_sub in range(1, n):
                brute = partial_trace_first(psi, m_sub, n)
                rho = reduce_state(state, Bipartition(n, m_sub))
                ours = lift_reduced(dense_reduced(rho))
                np.testing.assert_allclose(ours, brute, atol=1e-10)

    @pytest.mark.parametrize("h", [0.5, 1.0, 1.5])
    def test_matches_scalar_hypergeometric_sum(self, h):
        # Independent reference at a size the 2^N oracles cannot reach:
        # rho[p, q] = sum_m C_m C_{q+m-p} sqrt(H(p; m)) sqrt(H(q; q+m-p)).
        n = 40
        state = ground_state(ModelParams(n, 0.5, h))
        c = state.coefficients
        for m_sub in [1, 13, 20, 39, 40]:
            w = np.sqrt(hypergeometric(n, m_sub))
            ref = np.zeros((m_sub + 1, m_sub + 1))
            for p in range(m_sub + 1):
                for q in range(m_sub + 1):
                    ref[p, q] = sum(
                        c[m] * c[q + m - p] * w[p, m] * w[q, q + m - p]
                        for m in range(max(0, p - q), min(n, n + p - q) + 1)
                    )
            ours = dense_reduced(reduce_state(state, Bipartition(n, m_sub)))
            np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-14)

    def test_odd_lags_vanish_for_definite_parity(self):
        state = ground_state(ModelParams(256, 0.5, 0.5))
        rho = dense_reduced(reduce_state(state, Bipartition(256, 100)))
        p, q = np.indices(rho.shape)
        assert np.all(rho[(p - q) % 2 == 1] == 0.0)

    @pytest.mark.parametrize("h", [0.9, 0.99, 1.1])
    def test_invariants_at_large_n(self, h):
        # dense_reduced asserts the trace, symmetry, parity and PSD floor.
        state = ground_state(ModelParams(2048, 0.5, h))
        dense_reduced(reduce_state(state, Bipartition(2048, 1024)))

    @pytest.mark.parametrize("h", [0.97, 1.0, 1.3])
    def test_windows_are_narrow_near_the_transition(self, h):
        # Only the rows of Psi with weight above WINDOW_FLOOR are decomposed;
        # near and above h = 1 that is a few dozen of each block's 513 or 512.
        rho = reduce_state(ground_state(ModelParams(2048, 0.5, h)),
                           Bipartition(2048, 1024))
        for r, (offset, psi) in enumerate(rho.windows):
            assert 0 <= offset and offset + len(psi) <= (1024 + 2 - r) // 2
            assert 0 < len(psi) <= 64, (h, r)

    def test_invariants_at_n_32768(self):
        # Smoke test of the binomial tables at large N; no timing is asserted.
        n = 32768
        rho = reduce_state(ground_state(ModelParams(n, 0.5, 0.9)), Bipartition(n, 1))
        dense_reduced(rho)  # asserts the trace within TRACE_TOL = 1e-12
        # Each weight is exp of a sum of log-binomials, so its relative error
        # is a few ulp of log C(n, m): up to 5.4e-12, at m = 9267, here.
        totals = _anti_diagonal_sums(_weights(n, 1) ** 2)
        tol = np.maximum(1e-12, 4 * np.spacing(_log_binomials(n)))
        assert np.all(np.abs(totals - 1.0) <= tol)

    def test_memory_is_set_by_the_box(self):
        # A whole (M+1) x (N-M+1) weight table would take 537 MB here; the box
        # of rows and columns that meet C's support peaks at about 11 MB.
        n = 16384
        state = ground_state(ModelParams(n, 0.5, 0.9))
        tracemalloc.start()
        try:
            reduce_state(state, Bipartition(n, n // 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_both_parity_sectors_raise(self):
        # The parity blocks need the state in a single k-parity sector, also
        # when the other sector's weight (1e-18 here) passes the trace check.
        state = ground_state(ModelParams(8, 0.5, 0.7))
        tiny = state.coefficients.copy()
        tiny[1] = 1e-9
        for coefficients in (np.full(9, 1.0 / 3.0), tiny):
            mixed = replace(state, coefficients=coefficients)
            with pytest.raises(ReducedDensityError, match="both k-parity sectors"):
                reduce_state(mixed, Bipartition(8, 4))

    def test_nan_trace_raises(self):
        # A NaN coefficient in the window makes every row mass NaN, so no row
        # would be kept; the trace check must not read NaN as within tolerance.
        state = ground_state(ModelParams(16, 0.5, 0.7))
        coefficients = state.coefficients.copy()
        coefficients[int(np.argmax(np.abs(coefficients)))] = math.nan
        with pytest.raises(ReducedDensityError, match="trace deviates from 1 by nan"):
            reduce_state(replace(state, coefficients=coefficients), Bipartition(16, 8))

    def test_size_mismatch_raises(self):
        state = ground_state(ModelParams(8, 0.5, 0.7))
        with pytest.raises(ValueError):
            reduce_state(state, Bipartition(10, 5))

    def test_invariants_on_grid(self):
        for h in np.linspace(0.2, 1.8, 9):
            state = ground_state(ModelParams(48, 0.3, float(h)))
            rho = reduce_state(state, Bipartition(48, 18))
            matrix = dense_reduced(rho)
            assert abs(matrix.trace() - 1.0) < 1e-12
            assert np.array_equal(matrix, matrix.T)
            assert all((w >= 0.0).all() for _, _, w in rho.spectra)

    def test_complement_symmetry(self):
        state = ground_state(ModelParams(10, 0.5, 0.8))
        for m_sub in range(1, 10):
            s_a = von_neumann_entropy(reduce_state(state, Bipartition(10, m_sub)))
            s_b = von_neumann_entropy(reduce_state(state, Bipartition(10, 10 - m_sub)))
            assert abs(s_a - s_b) < 1e-8


class TestBoxFormation:
    """reduce_state forms Psi only where C is nonzero, with the same factors."""

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 65, 512, 513, 2048])
    def test_matches_full_quarter(self, n):
        for gamma, h in [(0.5, 0.0), (0.5, 0.5), (0.5, 0.97), (0.5, 1.0), (0.5, 1.3),
                         (0.5, 10.0), (1.0, 0.9), (0.0, 0.2)]:
            state = ground_state(ModelParams(n, gamma, h))
            for m_sub in sorted({1, max(n // 10, 1), max(n // 2, 1), n - 1, n}):
                ours = reduce_state(state, Bipartition(n, m_sub)).windows
                reference = full_quarter_reduce(state, n, m_sub).windows
                for (offset, factor), (ref_offset, ref_factor) in zip(ours, reference):
                    assert offset == ref_offset, (n, gamma, h, m_sub)
                    assert np.array_equal(factor, ref_factor), (n, gamma, h, m_sub)
                    assert factor.shape == ref_factor.shape, (n, gamma, h, m_sub)


class TestBipartition:
    @pytest.mark.parametrize("m_sub", [0, 9, -1])
    def test_invalid_sizes(self, m_sub):
        with pytest.raises(ValueError):
            Bipartition(8, m_sub)

    @pytest.mark.parametrize("n, m_sub", [(10, 2.5), (10, True), (10.0, 5), (True, 1),
                                          (10, np.float64(5.0))])
    def test_non_integer_sizes(self, n, m_sub):
        # A float size would fail later inside numpy; a bool would count as 0 or 1.
        with pytest.raises(ValueError, match="must be an integer"):
            Bipartition(n, m_sub)

    def test_numpy_integer_sizes(self):
        part = Bipartition(np.int64(10), np.int32(5))
        assert (part.n, part.m_sub) == (10, 5)


class TestVonNeumannEntropy:
    def test_maximally_mixed_qubit(self):
        rho = reduced_from_matrix(np.diag([0.5, 0.5]))
        assert von_neumann_entropy(rho) == pytest.approx(np.log(2.0), abs=1e-14)

    def test_tiny_eigenvalues_contribute_zero(self):
        rho = reduced_from_matrix(np.diag([1.0, 0.0]))
        assert von_neumann_entropy(rho) == 0.0
        # The 1e-15 mode alone would contribute ~3.5e-14; the cutoff drops
        # it, leaving only the -(1-1e-15) ln(1-1e-15) ~ 1e-15 remainder.
        rho = reduced_from_matrix(np.diag([1.0 - 1e-15, 1e-15]))
        assert von_neumann_entropy(rho) < 2e-15

    def test_pure_subsystem_entropy_is_positive_zero(self):
        # At tau = 1 the single eigenvalue is exactly 1, and -1 * ln 1 is -0.0.
        state = ground_state(ModelParams(256, 0.5, 0.9))
        entropy = von_neumann_entropy(reduce_state(state, Bipartition(256, 256)))
        assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0

    def test_negative_eigenvalue_below_floor_raises(self):
        # Factors cannot hold a negative eigenvalue; the dense input is
        # checked against the PSD floor when it is factored.
        with pytest.raises(ReducedDensityError, match="below"):
            reduced_from_matrix(np.diag([1.0 + 1e-8, -1e-8]))

    def test_matches_closed_form_away_from_transition(self):
        state = ground_state(ModelParams(256, 0.5, 2.0))
        numeric = von_neumann_entropy(reduce_state(state, Bipartition(256, 128)))
        analytic = entropy_analytic(2.0, 0.5, 0.5)
        assert abs(numeric - analytic) / analytic < 0.02

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import sqrtm

import lmglab.fidelity
from lmglab.fidelity import (
    DEGENERACY_TOL,
    POPULATION_CUTOFF,
    DeltaProbeWarning,
    FidelityError,
    SweepPoint,
    auto_delta,
    bures_distance_sq,
    fs_finite_difference,
    fs_spectral,
    sweep_point,
    uhlmann_fidelity,
)
from lmglab.model import ModelParams, ground_state
from lmglab.reduced import (
    PSD_FLOOR,
    Bipartition,
    ReducedDensity,
    ReducedDensityError,
    reduce_state,
)

from oracles import partial_trace_first, pauli_hamiltonian

# Ground states in the odd k-parity sector, alongside the even-sector
# inputs: odd N in the broken phase (N = 9, 15) and gamma = 1 (N = 16).
ODD_SECTOR = [(9, 0.5, 0.7), (9, 0.5, 0.9), (15, 0.5, 0.3), (16, 1.0, 0.9)]


def _rho(diag):
    mat = np.diag(np.asarray(diag, dtype=float))
    return ReducedDensity(m_sub=len(diag) - 1, matrix=mat)


def _sector(n, gamma, h):
    """k-parity sector (0 or 1) of the ground state."""
    return int(ground_state(ModelParams(n, gamma, h)).coefficients[1::2].any())


def _reduced(n, gamma, h, m_sub):
    return reduce_state(ground_state(ModelParams(n, gamma, h)), Bipartition(n, m_sub))


# Dense reference: the full-matrix formulas, without the parity blocks.

def _dense_eigh(rho):
    w, v = np.linalg.eigh(rho.matrix)
    assert w[0] >= PSD_FLOOR
    return np.clip(w, 0.0, None), v


def _dense_uhlmann(rho, sigma):
    w_r, v_r = _dense_eigh(rho)
    w_s, v_s = _dense_eigh(sigma)
    core = np.sqrt(w_r)[:, None] * (v_r.T @ v_s) * np.sqrt(w_s)[None, :]
    return min(max(float(np.linalg.svd(core, compute_uv=False).sum()), 0.0), 1.0)


def _dense_spectral(rho_minus, rho, rho_plus, delta):
    w, v = _dense_eigh(rho)
    overlap = v.T @ ((rho_plus.matrix - rho_minus.matrix) / (2.0 * delta)) @ v
    dp = np.diag(overlap)
    occupied = w >= POPULATION_CUTOFF
    first = float((dp[occupied] ** 2 / (4.0 * w[occupied])).sum())
    pair_mask = np.abs(w[:, None] - w[None, :]) >= DEGENERACY_TOL
    np.fill_diagonal(pair_mask, False)
    denom = w[:, None] + w[None, :]
    return first + float(0.5 * (overlap[pair_mask] ** 2 / denom[pair_mask]).sum())


def _oracle_fidelity(n, gamma, h1, h2, m_sub):
    """Uhlmann fidelity of M-spin partial traces of dense 2^n ground states."""
    lo = np.linalg.eigh(pauli_hamiltonian(n, gamma, h1))[1][:, 0]
    hi = np.linalg.eigh(pauli_hamiltonian(n, gamma, h2))[1][:, 0]
    root = sqrtm(partial_trace_first(lo, m_sub, n))
    return float(np.trace(sqrtm(root @ partial_trace_first(hi, m_sub, n) @ root)).real)


class TestUhlmannFidelity:
    def test_identity(self):
        state = ground_state(ModelParams(20, 0.5, 0.7))
        rho = reduce_state(state, Bipartition(20, 8))
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_commuting_diagonal_case(self):
        # classical fidelity sum_i sqrt(p_i q_i) = sqrt(.45) + sqrt(.05)
        fid = uhlmann_fidelity(_rho([0.5, 0.5]), _rho([0.9, 0.1]))
        assert fid == pytest.approx(math.sqrt(0.45) + math.sqrt(0.05), abs=1e-12)

    def test_orthogonal_pure_states(self):
        assert uhlmann_fidelity(_rho([1.0, 0.0]), _rho([0.0, 1.0])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_symmetric_in_arguments(self):
        cases = (
            [(30, 12, 0.5, 0.9, 1.1)]
            + [(n, n // 2, gamma, h, h + 0.2) for n, gamma, h in ODD_SECTOR]
            + [(9, 4, 1.0, 0.3, 0.5)]  # even sector against odd
        )
        for n, m_sub, gamma, h, h2 in cases:
            rho = _reduced(n, gamma, h, m_sub)
            sigma = _reduced(n, gamma, h2, m_sub)
            assert abs(uhlmann_fidelity(rho, sigma) - uhlmann_fidelity(sigma, rho)) < 1e-10

    def test_pure_inputs_equal_absolute_overlap(self):
        a = ground_state(ModelParams(16, 0.5, 0.8)).coefficients
        b = ground_state(ModelParams(16, 0.5, 0.9)).coefficients
        rho_a = ReducedDensity(m_sub=16, matrix=np.outer(a, a))
        rho_b = ReducedDensity(m_sub=16, matrix=np.outer(b, b))
        assert uhlmann_fidelity(rho_a, rho_b) == pytest.approx(
            abs(float(a @ b)), abs=1e-10
        )

    def test_bounds(self):
        for n, gamma, h in [(14, 0.2, 0.7)] + ODD_SECTOR:
            for h2 in (0.75, 0.9, 1.3):
                rho = _reduced(n, gamma, h, n // 2)
                sig = _reduced(n, gamma, h2, n // 2)
                fid = uhlmann_fidelity(rho, sig)
                assert 0.0 <= fid <= 1.0

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    @pytest.mark.parametrize(
        "n, gamma, h1, h2",
        [
            (8, 0.5, 0.7, 0.8),  # even sector
            (7, 0.5, 0.3, 0.7),  # odd sector
            (9, 0.5, 0.7, 0.75),  # odd sector
            (9, 1.0, 0.3, 0.5),  # even against odd: orthogonal at M = N
        ],
    )
    def test_matches_dense_product_basis_oracle(self, n, gamma, h1, h2):
        # sqrtm of the rank-deficient 2^M matrices is good to ~1e-7 here;
        # 1 - F is above 1e-3 at every M, so a lost block would show.
        for m_sub in range(1, n + 1):
            fid = uhlmann_fidelity(_reduced(n, gamma, h1, m_sub),
                                   _reduced(n, gamma, h2, m_sub))
            oracle = _oracle_fidelity(n, gamma, h1, h2, m_sub)
            assert fid == pytest.approx(oracle, abs=1e-6), m_sub

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            uhlmann_fidelity(_rho([1.0, 0.0]), _rho([1.0, 0.0, 0.0]))


class TestBuresDistance:
    def test_identical_states(self):
        assert bures_distance_sq(_rho([0.3, 0.7]), _rho([0.3, 0.7])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_orthogonal_pure_states(self):
        assert bures_distance_sq(_rho([1.0, 0.0]), _rho([0.0, 1.0])) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_diagonal_example(self):
        expected = 2.0 * (1.0 - (math.sqrt(0.45) + math.sqrt(0.05)))
        assert bures_distance_sq(_rho([0.5, 0.5]), _rho([0.9, 0.1])) == pytest.approx(
            expected, abs=1e-12
        )


class TestFsFiniteDifference:
    def test_h_independent_family_is_zero(self):
        vec = np.array([0.6, 0.8])
        assert fs_finite_difference(lambda h: vec, 1.0, 1e-3) == pytest.approx(
            0.0, abs=1e-9
        )
        rho = _rho([0.25, 0.75])
        assert fs_finite_difference(lambda h: rho, 1.0, 1e-3) == pytest.approx(
            0.0, abs=1e-7
        )

    def test_chi_g_approaches_closed_form(self):
        # (1-gamma)^2/(32 (h-gamma)^2 (h-1)^2) = 1/32 at gamma=.5, h=1.5
        devs = []
        for n in (128, 256, 512):
            chi = fs_finite_difference(
                lambda h, n=n: ground_state(ModelParams(n, 0.5, h)).coefficients,
                1.5,
                auto_delta(1.5),
            )
            devs.append(abs(chi - 1.0 / 32.0) / (1.0 / 32.0))
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] < 0.03

    def test_step_robustness(self):
        n = 128
        def state(h):
            return ground_state(ModelParams(n, 0.5, h)).coefficients
        chi_a = fs_finite_difference(state, 1.5, 1e-3)
        chi_b = fs_finite_difference(state, 1.5, 5e-4)
        assert abs(chi_a - chi_b) / chi_a < 1e-4

    def test_boundary_uses_one_sided_stencil(self):
        seen = []
        vec = np.array([1.0, 0.0])
        def recording(h):
            seen.append(h)
            return vec
        fs_finite_difference(recording, 0.0, 1e-3)
        assert seen == [0.0, 1e-3]

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            fs_finite_difference(lambda h: np.array([1.0]), 1.0, 0.0)


class TestFsSpectral:
    def test_h_independent_family_is_zero(self):
        rho = _rho([0.25, 0.75])
        assert fs_spectral(rho, rho, rho, 1e-3) == pytest.approx(0.0, abs=1e-12)

    def test_two_level_hand_built_family(self):
        # rho(h) = diag(h, 1-h): chi = 1/(4h) + 1/(4(1-h)); at h=0.5 -> 1.
        def rho(h):
            return _rho([h, 1.0 - h])
        delta = 1e-4
        chi = fs_spectral(rho(0.5 - delta), rho(0.5), rho(0.5 + delta), delta)
        assert chi == pytest.approx(1.0, rel=1e-10)
        chi = fs_spectral(rho(0.3 - delta), rho(0.3), rho(0.3 + delta), delta)
        assert chi == pytest.approx(1.0 / (4 * 0.3) + 1.0 / (4 * 0.7), rel=1e-10)

    def test_agrees_with_finite_difference(self):
        # N = 256 is in the even sector, the other three in the odd one.
        for n, m_sub, h in [(256, 128, 1.5), (255, 128, 1.5), (9, 4, 0.7), (15, 7, 0.3)]:
            part = Bipartition(n, m_sub)
            fd = sweep_point(ModelParams(n, 0.5, h), part, probe=False)
            sp = sweep_point(ModelParams(n, 0.5, h), part, method="spectral",
                             probe=False)
            assert abs(fd.chi_r - sp.chi_r) / fd.chi_r < 1e-3, n

    def test_degenerate_pairs_skipped(self):
        # Exactly degenerate pair: the pair term must be dropped, not 0/0.
        base = _rho([0.4, 0.4, 0.2])
        bump = np.zeros((3, 3))
        bump[0, 2] = bump[2, 0] = 1e-3
        plus = ReducedDensity(m_sub=2, matrix=base.matrix + bump)
        minus = ReducedDensity(m_sub=2, matrix=base.matrix - bump)
        chi = fs_spectral(minus, base, plus, 1e-2)
        assert math.isfinite(chi) and chi >= 0.0

    def test_error_names_the_point_field(self, monkeypatch):
        # A NaN on the diagonal of rho(h + delta) makes chi non-finite; the
        # error must carry the point's h, not a placeholder.
        def poisoned(state, part):
            rho = reduce_state(state, part)
            if state.params.h <= 0.9:
                return rho
            matrix = rho.matrix.copy()
            matrix[0, 0] = math.nan
            return ReducedDensity(m_sub=rho.m_sub, matrix=matrix)

        monkeypatch.setattr(lmglab.fidelity, "reduce_state", poisoned)
        with pytest.raises(FidelityError) as info:
            sweep_point(ModelParams(16, 0.5, 0.9), Bipartition(16, 8),
                        method="spectral")
        assert info.value.h == 0.9
        assert "h=0.9," in str(info.value)


def _dense_cases():
    for n in (8, 9, 16, 64):
        for m_sub in sorted({1, 2, n // 2, n - 1, n}):
            for gamma in (0.5, 1.0):
                yield n, m_sub, gamma


class TestParityBlocks:
    """The per-block paths against the dense full-matrix formulas."""

    @pytest.mark.parametrize("n, m_sub, gamma", list(_dense_cases()))
    def test_match_dense_reference(self, n, m_sub, gamma):
        delta = 1e-3
        for h in (0.0, 0.5, 1.0, 1.5):
            lo = max(h - delta, 0.0)
            minus, rho, plus = (_reduced(n, gamma, x, m_sub) for x in (lo, h, h + delta))
            step = 0.5 * (h + delta - lo)
            w_dense = _dense_eigh(rho)[0]
            np.testing.assert_allclose(np.sort(rho.eigenvalues), w_dense,
                                       rtol=0, atol=1e-13)

            fid, dense_fid = uhlmann_fidelity(rho, plus), _dense_uhlmann(rho, plus)
            if m_sub == n and _sector(n, gamma, h) != _sector(n, gamma, h + delta):
                # The stencil crosses a level crossing into the other k-parity
                # sector: rho and sigma are orthogonal pure states.  Per block,
                # F is exactly 0; the dense core pairs rho's eigenvector with
                # sigma's null space, whose sqrt(roundoff) eigenvalues leave
                # ~1e-9 (N = 9, h = 0).
                assert fid == 0.0 and dense_fid < 1e-8, h
            else:
                assert fid == pytest.approx(dense_fid, abs=1e-13), h

            chi = fs_spectral(minus, rho, plus, step)
            dense = _dense_spectral(minus, rho, plus, step)
            (w0, _), (w1, _) = rho.blocks
            w0, w1 = w0[w0 >= POPULATION_CUTOFF], w1[w1 >= POPULATION_CUTOFF]
            if np.any(np.abs(w0[:, None] - w1[None, :]) < DEGENERACY_TOL):
                # An occupied eigenvalue shared by both blocks (N = 8, M = 4,
                # h = 0.5): the dense eigh may mix the blocks in that
                # eigenspace, and the dense first term, which skips the
                # degenerate pair, depends on that mixing and can only lose
                # weight by it.  d_rho has no cross-block entries, so the
                # parity basis is the one that diagonalizes it there.
                assert dense <= chi * (1.0 + 1e-12), h
                assert chi == pytest.approx(dense, rel=1e-8), h
            else:
                # Where rho does not move (gamma = 1 between level
                # crossings), both sums are roundoff around 0.
                assert chi == pytest.approx(dense, rel=1e-9, abs=1e-12), h

    def test_eigenvalue_order(self):
        # The even-p block's eigenvalues ascending, then the odd-p block's.
        rho = ReducedDensity(m_sub=3, matrix=np.diag([0.1, 0.4, 0.3, 0.2]))
        np.testing.assert_array_equal(rho.eigenvalues, [0.1, 0.3, 0.2, 0.4])

    @pytest.mark.parametrize("entry", [(0, 1), (2, 1), (3, 0)])
    def test_odd_offset_entry_rejected(self, entry):
        matrix = np.diag([0.4, 0.3, 0.2, 0.1])
        matrix[entry] = 1e-3
        bad = ReducedDensity(m_sub=3, matrix=matrix)
        good = _rho([0.4, 0.3, 0.2, 0.1])
        with pytest.raises(ReducedDensityError):
            bad.eigenvalues
        with pytest.raises(ReducedDensityError):
            uhlmann_fidelity(good, bad)
        with pytest.raises(ReducedDensityError):
            fs_spectral(good, good, bad, 1e-2)

    def test_even_offset_entries_accepted(self):
        matrix = np.diag([0.4, 0.3, 0.2, 0.1])
        matrix[0, 2] = matrix[2, 0] = 1e-3
        matrix[1, 3] = matrix[3, 1] = 1e-3
        rho = ReducedDensity(m_sub=3, matrix=matrix)
        assert rho.eigenvalues.sum() == pytest.approx(1.0, abs=1e-15)
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)


class TestSweep:
    """sweep_point over a grid of fields, one call per point."""

    def test_points_and_invariants(self):
        part = Bipartition(32, 16)
        points = [sweep_point(ModelParams(32, 0.5, h), part, probe=False)
                  for h in (0.6, 0.9, 1.2)]
        assert [p.h for p in points] == [0.6, 0.9, 1.2]
        for p in points:
            assert isinstance(p, SweepPoint)
            assert p.chi_g >= 0.0 and p.chi_r >= 0.0
            assert 0.0 <= p.eta <= 1.0 + 1e-6
            assert p.chi_r <= p.chi_g * (1.0 + 1e-6)
            assert p.method == "finite-difference"

    def test_auto_delta_recorded(self):
        point = sweep_point(ModelParams(24, 0.5, 2.0), Bipartition(24, 12), probe=False)
        assert point.delta == pytest.approx(2e-3)

    def test_zero_chi_g_point_raises(self):
        # gamma=1, h=0 makes chi_g exactly zero (S_z is conserved, the
        # polarized tower is h-independent), so eta is undefined there.
        with pytest.raises(FidelityError):
            sweep_point(ModelParams(16, 1.0, 0.0), Bipartition(16, 8), probe=False)

    def test_probe_warns_when_step_too_coarse(self):
        with pytest.warns(DeltaProbeWarning):
            sweep_point(ModelParams(96, 0.5, 1.0), Bipartition(96, 48), delta=0.2,
                        probe=True)

    def test_peak_sharpens_and_migrates(self):
        hs = np.linspace(0.7, 1.1, 21)
        peaks = {}
        for n in (32, 64):
            part = Bipartition(n, n // 2)
            chis = np.array([sweep_point(ModelParams(n, 0.5, float(h)), part,
                                         probe=False).chi_r for h in hs])
            peaks[n] = (hs[int(np.argmax(chis))], chis.max())
        assert abs(peaks[64][0] - 1.0) < abs(peaks[32][0] - 1.0)
        assert peaks[64][1] > peaks[32][1]


class TestStencilSharing:
    """sweep_point solves each distinct stencil field once per call."""

    @pytest.fixture
    def solved_fields(self, monkeypatch):
        fields = []

        def counting(params):
            fields.append(params.h)
            return ground_state(params)

        monkeypatch.setattr(lmglab.fidelity, "ground_state", counting)
        return fields

    @pytest.mark.parametrize(
        "h, method, probe, solves",
        [
            (0.8, "finite-difference", True, 5),
            (0.8, "finite-difference", False, 3),
            (0.8, "spectral", True, 7),
            (0.0, "finite-difference", True, 3),
        ],
    )
    def test_solve_counts(self, solved_fields, h, method, probe, solves):
        sweep_point(ModelParams(40, 0.5, h), Bipartition(40, 20), method=method,
                    probe=probe)
        assert len(solved_fields) == solves
        assert len(set(solved_fields)) == solves

    @pytest.mark.parametrize("h", [0.0, 0.8])
    def test_values_equal_fresh_solves(self, h):
        params = ModelParams(40, 0.5, h)
        part = Bipartition(40, 20)
        point = sweep_point(params, part)

        def fresh(x):
            return ground_state(replace(params, h=x))

        chi_g = fs_finite_difference(lambda x: fresh(x).coefficients, h, point.delta)
        chi_r = fs_finite_difference(lambda x: reduce_state(fresh(x), part), h,
                                     point.delta)
        assert point.chi_g == chi_g
        assert point.chi_r == chi_r

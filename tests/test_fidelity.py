import math
from dataclasses import replace

import numpy as np
import pytest

import lmglab.fidelity
from lmglab.fidelity import (
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
from lmglab.reduced import Bipartition, ReducedDensity, reduce_state


def _rho(diag):
    mat = np.diag(np.asarray(diag, dtype=float))
    return ReducedDensity(m_sub=len(diag) - 1, matrix=mat)


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
        state = ground_state(ModelParams(30, 0.5, 0.9))
        rho = reduce_state(state, Bipartition(30, 12))
        sigma = reduce_state(ground_state(ModelParams(30, 0.5, 1.1)), Bipartition(30, 12))
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
        for h2 in (0.75, 0.9, 1.3):
            rho = reduce_state(ground_state(ModelParams(14, 0.2, 0.7)), Bipartition(14, 7))
            sig = reduce_state(ground_state(ModelParams(14, 0.2, h2)), Bipartition(14, 7))
            fid = uhlmann_fidelity(rho, sig)
            assert 0.0 <= fid <= 1.0

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
        n = 256
        part = Bipartition(n, 128)
        fd = sweep_point(ModelParams(n, 0.5, 1.5), part, probe=False)
        sp = sweep_point(ModelParams(n, 0.5, 1.5), part, method="spectral", probe=False)
        assert abs(fd.chi_r - sp.chi_r) / fd.chi_r < 1e-3

    def test_degenerate_pairs_skipped(self):
        # Exactly degenerate pair: the pair term must be dropped, not 0/0.
        base = _rho([0.4, 0.4, 0.2])
        bump = np.zeros((3, 3))
        bump[0, 2] = bump[2, 0] = 1e-3
        plus = ReducedDensity(m_sub=2, matrix=base.matrix + bump)
        minus = ReducedDensity(m_sub=2, matrix=base.matrix - bump)
        chi = fs_spectral(minus, base, plus, 1e-2)
        assert math.isfinite(chi) and chi >= 0.0


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

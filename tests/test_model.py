import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from lmglab import model
from lmglab.cli import BLAS_THREAD_VARS
from lmglab.model import (
    RESIDUAL_TOL,
    EigensolverError,
    ModelParams,
    _block_residual,
    _lowest_block_eigenpair,
    _row_sum_max,
    ground_state,
    hamiltonian_blocks,
)

from oracles import (
    band_norm_inf,
    dense_hamiltonian,
    dicke_basis,
    full_bands,
    pauli_hamiltonian,
    projected_spectrum,
    two_block_ground_state,
)


class TestModelParams:
    def test_valid(self):
        p = ModelParams(8, 0.5, 0.7)
        assert (p.n, p.gamma, p.h) == (8, 0.5, 0.7)

    @pytest.mark.parametrize(
        "n,gamma,h",
        [
            (1, 0.5, 0.5),
            (0, 0.5, 0.5),
            (8, -0.1, 0.5),
            (8, 1.1, 0.5),
            (8, 0.5, -0.2),
            (8, 0.5, float("nan")),
        ],
    )
    def test_out_of_range_rejected(self, n, gamma, h):
        with pytest.raises(ValueError):
            ModelParams(n, gamma, h)

    @pytest.mark.parametrize("h", [-0.2, float("nan"), float("inf")])
    def test_field_error_names_the_value(self, h):
        with pytest.raises(ValueError, match=f"field must be finite and >= 0, got {h}"):
            ModelParams(8, 0.5, h)

    def test_non_integer_n_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(8.0, 0.5, 0.5)


class TestBuildHamiltonian:
    def test_two_spin_entries(self):
        # 2-spin triplet sector at gamma=0, h=2; entries checked by hand
        # against the explicit Pauli construction projected onto J=1.
        (even_diag, even_off), (odd_diag, odd_off) = hamiltonian_blocks(2, 0.0, 2.0)
        np.testing.assert_allclose(even_diag, [1.75, -2.25], atol=1e-15)
        np.testing.assert_allclose(even_off, [-0.25], atol=1e-15)
        np.testing.assert_allclose(odd_diag, [-0.5], atol=1e-15)
        assert odd_off.size == 0

    def test_isotropic_coupling_vanishes(self):
        for _, off in hamiltonian_blocks(12, 1.0, 0.7):
            assert np.all(off == 0.0)

    def test_band_shapes(self):
        # N = 9: k = 0, 2, .., 8 and k = 1, 3, .., 9.
        shapes = [(diag.shape, off.shape) for diag, off in hamiltonian_blocks(9, 0.3, 0.4)]
        assert shapes == [((5,), (4,)), ((5,), (4,))]
        shapes = [(diag.shape, off.shape) for diag, off in hamiltonian_blocks(8, 0.3, 0.4)]
        assert shapes == [((5,), (4,)), ((4,), (3,))]

    def test_spectrum_matches_pauli_oracle(self):
        ours = np.linalg.eigvalsh(dense_hamiltonian(hamiltonian_blocks(8, 0.5, 0.7)))
        oracle = projected_spectrum(8, 0.5, 0.7)
        np.testing.assert_allclose(ours, oracle, atol=1e-10)

    def test_spectrum_symmetric_under_field_reversal(self):
        # The guard forbids h < 0 through the public API; the unchecked block
        # builder exposes the h <-> -h invariance of the spectrum.
        for n, gamma in [(9, 0.3), (12, 0.8)]:
            plus = dense_hamiltonian(hamiltonian_blocks(n, gamma, 1.3))
            minus = dense_hamiltonian(hamiltonian_blocks(n, gamma, -1.3))
            np.testing.assert_allclose(
                np.linalg.eigvalsh(plus), np.linalg.eigvalsh(minus), atol=1e-12
            )

    def test_parity_blocks_decouple(self):
        # The Pauli oracle's J = N/2 projection couples no even k to an odd k.
        n, gamma, h = 9, 0.4, 0.9
        basis = dicke_basis(n)
        projected = basis.T @ pauli_hamiltonian(n, gamma, h) @ basis
        assert np.abs(projected[0::2, 1::2]).max() <= 1e-12
        union = np.sort(np.concatenate(
            [np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
             for d, e in hamiltonian_blocks(n, gamma, h)]
        ))
        np.testing.assert_allclose(union, np.linalg.eigvalsh(projected), atol=1e-12)

    @pytest.mark.parametrize("n, gamma, h", [(10, 0.2, 1.1), (11, 0.0, 0.4), (2, 0.5, 2.0)])
    def test_block_residual_agrees_with_dense(self, n, gamma, h):
        # On each parity block: the ground state at its energy, whose residual
        # is roundoff, and a fixed, seedless probe vector at a made-up energy.
        blocks = hamiltonian_blocks(n, gamma, h)
        dense = dense_hamiltonian(blocks)
        state = ground_state(ModelParams(n, gamma, h))
        probe = np.sin(np.arange(n + 1.0))
        for start in (0, 1):
            vector = np.zeros(n + 1)
            vector[start::2] = probe[start::2]
            cases = [(vector, -0.3)]
            if state.sector == start:
                cases.append((state.coefficients, state.energy))
            for v, energy in cases:
                ours = _block_residual(*blocks[start], v[start::2], energy)
                reference = np.linalg.norm(dense @ v - energy * v)
                assert ours == pytest.approx(reference, rel=1e-12, abs=1e-14)


class TestGroundState:
    def test_two_spin_energy_matches_direct_eigensolve(self):
        state = ground_state(ModelParams(2, 0.0, 2.0))
        dense = dense_hamiltonian(hamiltonian_blocks(2, 0.0, 2.0))
        assert state.energy == pytest.approx(np.linalg.eigvalsh(dense)[0], abs=1e-12)

    def test_polarized_limit(self):
        for gamma in (0.0, 0.5, 1.0):
            state = ground_state(ModelParams(40, gamma, 100.0))
            assert state.coefficients[-1] == pytest.approx(1.0, abs=1e-4)
            assert np.all(np.abs(state.coefficients[:-1]) < 0.02)

    def test_normalized_and_gauge_fixed(self):
        # No gauge pass fixes the sign: dstein makes the largest entry
        # positive, and with non-positive couplings the lowest eigenvector
        # has one sign.  Only tail round-off far below 1e-12 may be negative.
        for n in (2, 3, 33, 64, 65, 1024):
            for gamma in (0.0, 0.25, 0.5, 0.99, 1.0):
                for h in (0.0, 0.3, 0.5, 0.97, 1.0, 1.5, 2.5, 10.0):
                    c = ground_state(ModelParams(n, gamma, h)).coefficients
                    assert abs(np.sum(c**2) - 1.0) < 1e-12, (n, gamma, h)
                    assert np.all(c[np.abs(c) > 1e-12] > 0.0), (n, gamma, h)

    def test_single_parity_support(self):
        for n in (10, 11, 64):
            for gamma in (0.0, 0.5, 1.0):
                for h in (0.0, 0.4, 1.0, 1.6):
                    c = ground_state(ModelParams(n, gamma, h)).coefficients
                    even = np.abs(c[0::2]).max()
                    odd = np.abs(c[1::2]).max()
                    assert min(even, odd) == 0.0, (n, gamma, h)

    def test_deterministic(self):
        a = ground_state(ModelParams(200, 0.5, 0.6))
        b = ground_state(ModelParams(200, 0.5, 0.6))
        assert a.energy == b.energy
        assert np.array_equal(a.coefficients, b.coefficients)

    def test_broken_phase_large_n_definite_parity(self):
        # Here the parity doublet is degenerate to machine precision; the
        # blocked solve must still return a definite-parity vector.
        c = ground_state(ModelParams(600, 0.5, 0.5)).coefficients
        assert np.abs(c[1::2]).max() == 0.0

    def test_energy_matches_dense_reference(self):
        for n, gamma, h in [(7, 0.0, 0.2), (16, 0.9, 1.4), (25, 0.5, 1.0)]:
            state = ground_state(ModelParams(n, gamma, h))
            dense = dense_hamiltonian(hamiltonian_blocks(n, gamma, h))
            assert state.energy == pytest.approx(
                np.linalg.eigvalsh(dense)[0], abs=1e-11
            )

    def test_error_carries_params(self):
        err = EigensolverError("boom", ModelParams(4, 0.1, 0.2))
        assert err.params.n == 4
        assert "h=0.2" in str(err)


class TestEnergyDensity:
    # For N -> infinity the ground energy per spin approaches the classical
    # minimum (m^2 - 1 - 2hm)/4 with m = min(h, 1): -(1 + h^2)/4 for h <= 1
    # and -h/2 above.

    def test_symmetric_phase_limit(self):
        # h=2, m=1: (1 - 1 - 4)/4 = -1
        state = ground_state(ModelParams(512, 0.5, 2.0))
        assert state.energy / state.params.n == pytest.approx(-1.0, abs=2e-3)

    def test_broken_phase_limit(self):
        # h=0.5, m=h: (m^2 - 1 - 2hm)/4 = -(1 + 0.25)/4 = -0.3125
        state = ground_state(ModelParams(512, 0.5, 0.5))
        assert state.energy / state.params.n == pytest.approx(-0.3125, abs=2e-3)

    def test_deviation_shrinks_with_n(self):
        devs = [
            abs(ground_state(ModelParams(n, 0.5, 2.0)).energy / n + 1.0)
            for n in (128, 256, 512)
        ]
        assert devs[0] > devs[1] > devs[2]


def _full_block_reference(diag, off):
    """Lowest pair of a symmetric tridiagonal, bisected over all its rows."""
    if diag.size == 1:
        return float(diag[0]), np.ones(1)
    w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    return float(w[0]), v[:, 0]


def _assert_same_pair(pair, reference, scale):
    (energy, vec), (ref_energy, ref_vec) = pair, reference
    assert abs(energy - ref_energy) <= 1e-14 * scale
    sign = 1.0 if vec @ ref_vec >= 0.0 else -1.0
    assert np.abs(vec - sign * ref_vec).max() <= 1e-13


class TestWindowedBlockSolve:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("n", [8, 9, 64, 65, 512, 1024, 4096])
    def test_matches_full_block(self, n, gamma):
        for h in (0.0, 0.1, 0.5, 0.8, 0.97, 1.0, 1.03, 1.3, 2.0, 10.0):
            blocks = hamiltonian_blocks(n, gamma, h)
            scale = band_norm_inf(*full_bands(blocks))
            for block in blocks:
                _assert_same_pair(
                    _lowest_block_eigenpair(*block, _row_sum_max(*block)),
                    _full_block_reference(*block),
                    scale,
                )

    def test_ground_state_outside_the_starting_well(self):
        # The Gershgorin lower edge d_i - |e_{i-1}| - |e_i| is lowest (-2.2)
        # at row 300, whose strong couplings hold a state near -0.2 only;
        # the ground state (near -1) sits in the shallow well at row 1700,
        # outside any window the solve starts from.
        size = 2000
        diag = np.full(size, 10.0)
        off = np.full(size - 1, 0.1)
        diag[300], off[299], off[300] = 0.0, 1.0, 1.0
        diag[1700] = -1.0
        radius = np.zeros(size)
        radius[:-1] += np.abs(off)
        radius[1:] += np.abs(off)
        assert np.argmin(diag - radius) == 300
        reference = _full_block_reference(diag, off)
        assert reference[0] < -0.9 and abs(reference[1][1700]) > 0.9
        _assert_same_pair(
            _lowest_block_eigenpair(diag, off, _row_sum_max(diag, off)),
            reference,
            float(np.max(np.abs(diag) + radius)),
        )

    def test_ground_state_wider_than_the_starting_window(self):
        # A harmonic well with unit hopping: its Gaussian ground state still
        # holds ~1e-10 at the ends of the starting window (186 rows either
        # side of the centre), which moves the energy far less than the
        # certificate resolves, so only the edge floor widens the window.
        size = 2000
        diag = 1.43e-6 * (np.arange(size) - 1000.0) ** 2
        off = np.full(size - 1, -1.0)
        _assert_same_pair(
            _lowest_block_eigenpair(diag, off, _row_sum_max(diag, off)),
            _full_block_reference(diag, off),
            float(np.max(diag + 2.0)),
        )

    @pytest.mark.parametrize("routine", ["dstebz", "dstein"])
    def test_lapack_failure_raises(self, monkeypatch, routine):
        real = getattr(model, routine)

        def failing(*args, **kwargs):
            return (*real(*args, **kwargs)[:-1], 1)

        monkeypatch.setattr(model, routine, failing)
        params = ModelParams(64, 0.5, 0.97)
        with pytest.raises(EigensolverError) as info:
            ground_state(params)
        assert info.value.params == params

    def test_inexact_vector_fails_the_residual_check(self, monkeypatch):
        # A 0.1 % error in the largest component leaves a residual near
        # 1.7e-4, far above the 1e-10 * ||H||_inf bound (3.2e-9 here).
        real = model.dstein

        def perturbed(*args, **kwargs):
            vectors, info = real(*args, **kwargs)
            vectors[np.argmax(np.abs(vectors[:, 0])), 0] *= 1.001
            return vectors, info

        monkeypatch.setattr(model, "dstein", perturbed)
        params = ModelParams(64, 0.5, 0.97)
        with pytest.raises(EigensolverError, match="residual") as info:
            ground_state(params)
        assert info.value.params == params

    def test_nan_vector_fails_the_residual_check(self, monkeypatch):
        # A NaN residual compares False with the bound either way round, so
        # the check must be written to fail it.
        real = model.dstein

        def nan_vector(*args, **kwargs):
            vectors, info = real(*args, **kwargs)
            return np.full_like(vectors, np.nan), 0

        monkeypatch.setattr(model, "dstein", nan_vector)
        params = ModelParams(64, 0.5, 0.97)
        with pytest.raises(EigensolverError, match="residual nan") as info:
            ground_state(params)
        assert info.value.params == params


# N = 2..40 and the pairs 2^k - 1, 2^k up to 1024; h on [0, 1.5] and deep in
# the polarized phase.
TIE_BREAK_SIZES = list(range(2, 41)) + [x for k in range(6, 11) for x in (2**k - 1, 2**k)]
TIE_BREAK_FIELDS = [float(h) for h in np.linspace(0.0, 1.5, 151)] + [10.0]


def _assert_same_state(params):
    ours, reference = ground_state(params), two_block_ground_state(params)
    assert np.array_equal(ours.coefficients, reference.coefficients), params
    assert ours.energy == reference.energy, params
    assert ours.sector == reference.sector, params


class TestOneBlockSolve:
    """ground_state solves the other parity block only when it may hold the state."""

    @pytest.mark.parametrize("n", TIE_BREAK_SIZES)
    def test_matches_two_block_solve(self, n):
        for gamma in (0.0, 0.5, 0.99, 1.0):
            for h in TIE_BREAK_FIELDS:
                _assert_same_state(ModelParams(n, gamma, h))

    def test_matches_two_block_solve_at_the_crossing(self):
        # At N = 40, gamma = 0.5 the splitting changes sign at h = 0.65407 and
        # the returned sector switches at h = 0.65503, where the odd state
        # leads by the tie-break tolerance.
        sectors = set()
        for h in np.linspace(0.6540, 0.6551, 45):
            params = ModelParams(40, 0.5, float(h))
            _assert_same_state(params)
            sectors.add(ground_state(params).sector)
        assert sectors == {0, 1}

    @pytest.mark.parametrize("n", [3, 9, 15, 33, 63])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_matches_two_block_solve_at_zero_field(self, n, gamma):
        # An exact level crossing of the two sectors at odd N.
        _assert_same_state(ModelParams(n, gamma, 0.0))

    @pytest.mark.parametrize("gamma, h", [(0.0, 0.3), (0.5, 2.0), (1.0, 0.0)])
    def test_two_spins(self, gamma, h):
        # The odd block is the single row k = 1.
        _assert_same_state(ModelParams(2, gamma, h))

    @pytest.fixture
    def block_solves(self, monkeypatch):
        sizes = []
        real = model._lowest_block_eigenpair

        def counting(diag, off, norm):
            sizes.append(diag.size)
            return real(diag, off, norm)

        monkeypatch.setattr(model, "_lowest_block_eigenpair", counting)
        return sizes

    @pytest.mark.parametrize("h", [0.3, 1.0, 1.5])
    def test_one_block_when_the_other_is_certified_higher(self, block_solves, h):
        ground_state(ModelParams(64, 0.5, h))
        assert block_solves == [33]

    def test_both_blocks_when_the_odd_one_leads(self, block_solves):
        # N = 40, gamma = 0.5, h = 0.656: the odd state lies below the even
        # one by more than the tie-break, so the even block's certificate
        # fails and the odd block is solved and returned.
        state = ground_state(ModelParams(40, 0.5, 0.656))
        assert block_solves == [21, 20]
        assert state.sector == 1


def _in_fresh_interpreter(code, env=None):
    """Run code in a new python with lmglab importable; its stdout as JSON.

    env is the child's environment (default: this process's), before the
    PYTHONPATH entry is added.
    """
    src = Path(model.__file__).resolve().parents[1]
    env = os.environ if env is None else env
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**env, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# Modules a fresh `import lmglab.cli` must not load: scipy itself (its
# __init__ imports subprocess through scipy._lib._testutils), scipy.linalg and
# what its import drags in (scipy's array-API layer clones numpy, loading
# numpy.f2py and numpy.testing), other heavy scipy subpackages, and the
# process pool.
STARTUP_EXCLUDED = (
    "scipy",
    "subprocess",
    "scipy.linalg",
    "scipy.optimize",
    "scipy._lib._array_api",
    "numpy.f2py",
    "numpy.testing",
    "concurrent.futures.process",
)


def test_cli_import_leaves_heavy_modules_unloaded():
    loaded = _in_fresh_interpreter(
        "import json, sys, lmglab.cli; "
        f"print(json.dumps(sorted(set({STARTUP_EXCLUDED!r}) & set(sys.modules))))"
    )
    assert loaded == []


def _without_thread_vars() -> dict:
    return {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}


THREAD_REPORT = """
import json, os
print(json.dumps({"threads": len(os.listdir("/proc/self/task")),
                  "vars": {k: os.environ.get(k) for k in BLAS_THREAD_VARS}}))
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
class TestBlasThreads:
    """The CLI module runs BLAS on one thread unless the user chose a count."""

    def test_cli_import_pins_one_thread(self):
        result = _in_fresh_interpreter(
            "from lmglab.cli import BLAS_THREAD_VARS" + THREAD_REPORT,
            env=_without_thread_vars(),
        )
        assert result["threads"] == 1
        pinned = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        assert result["vars"] == {k: "1" if k in pinned else None for k in BLAS_THREAD_VARS}

    def test_user_count_is_kept(self):
        result = _in_fresh_interpreter(
            "from lmglab.cli import BLAS_THREAD_VARS" + THREAD_REPORT,
            env={**_without_thread_vars(), "OPENBLAS_NUM_THREADS": "2"},
        )
        assert result["vars"] == {k: "2" if k == "OPENBLAS_NUM_THREADS" else None
                                  for k in BLAS_THREAD_VARS}

    def test_pool_worker_runs_one_thread(self):
        # At N = 1024 an unpinned OpenBLAS starts a thread in the worker.
        result = _in_fresh_interpreter("""
import json, os
from concurrent.futures import ProcessPoolExecutor
import lmglab.cli as cli
with ProcessPoolExecutor(1) as pool:
    pool.submit(cli._evaluate_task, (1024, 0.5, 0.9, (512,), None, ("spectral",))).result()
    print(json.dumps(len(pool.submit(os.listdir, "/proc/self/task").result())))
""", env=_without_thread_vars())
        assert result == 1


def test_package_import_is_lazy():
    result = _in_fresh_interpreter("""
import json, os, sys
before = dict(os.environ)
import lmglab
state = {"numpy": "numpy" in sys.modules, "environ": dict(os.environ) == before}
missing = [name for name in lmglab.__all__ if name not in dir(lmglab)]
for name in lmglab.__all__:
    getattr(lmglab, name)
print(json.dumps({**state, "missing": missing}))
""", env=_without_thread_vars())
    assert result == {"numpy": False, "environ": True, "missing": []}


class TestLapackDrivers:
    """model's drivers are the very objects scipy.linalg.lapack exports."""

    # Appended to each script: `lapack` is scipy.linalg.lapack and `loaded`
    # the _flapack module first registered in sys.modules.
    CHECK = """
names = ("dpttrf", "dstebz", "dstein")
same = [getattr(model, name) is getattr(lapack, name) for name in names]
module = model._flapack is sys.modules["scipy.linalg._flapack"] is loaded
print(json.dumps({"same": same, "module": module}))
"""

    def test_lmglab_imported_first(self):
        result = _in_fresh_interpreter("""
import json, sys
from lmglab import model
loaded = sys.modules["scipy.linalg._flapack"]
import scipy.linalg.lapack as lapack
""" + self.CHECK)
        assert result == {"same": [True] * 3, "module": True}

    def test_scipy_imported_first(self):
        # Importing lmglab must load no extension module again.
        result = _in_fresh_interpreter("""
import json, sys
from importlib.machinery import ExtensionFileLoader
import scipy.linalg.lapack as lapack
loaded = sys.modules["scipy.linalg._flapack"]

def refuse(self, spec):
    raise AssertionError(f"{spec.name} loaded a second time")

create, ExtensionFileLoader.create_module = ExtensionFileLoader.create_module, refuse
from lmglab import model
ExtensionFileLoader.create_module = create
""" + self.CHECK)
        assert result == {"same": [True] * 3, "module": True}


def _reference_ground_energy(params):
    # The full-block energy with ground_state's tie-break.
    blocks = hamiltonian_blocks(params.n, params.gamma, params.h)
    scale = band_norm_inf(*full_bands(blocks))
    even = _full_block_reference(*blocks[0])[0]
    odd = _full_block_reference(*blocks[1])[0]
    return even if even <= odd + RESIDUAL_TOL * scale else odd


class TestLargeN:
    @pytest.mark.parametrize("h,limit", [(0.5, -0.3125), (1.0, -0.5), (1.5, -0.75)])
    def test_hundred_thousand_spins(self, h, limit):
        # The ground energy per spin tends to -(1 + h^2)/4 for h <= 1 and
        # to -h/2 above.  ground_state itself raises if the residual check fails.
        params = ModelParams(100_000, 0.5, h)
        state = ground_state(params)
        assert state.sector is not None
        reference = _reference_ground_energy(params)
        assert abs(state.energy - reference) <= 1e-14 * abs(reference)
        assert state.energy / state.params.n == pytest.approx(limit, abs=2e-3)

import copy

import check

REFERENCE = [
    {"h": 0.9, "N": 64, "tau": 0.5, "chi_g": 120.0, "chi_r": 40.0, "eta": 1 / 3,
     "entropy": 0.7, "method": "finite-difference", "delta": 1e-3, "status": "ok"},
    {"h": 1.0, "N": 64, "tau": 0.5, "chi_g": 300.0, "chi_r": 90.0, "eta": 0.3,
     "entropy": 0.9, "method": "finite-difference", "delta": 1e-3, "status": "ok"},
    {"h": 1.0, "N": 64, "tau": 0.5, "chi_g": float("nan"), "chi_r": float("nan"),
     "eta": float("nan"), "entropy": float("nan"), "method": "analytic",
     "delta": float("nan"), "status": "singular: h = 1.0 is within 1e-06 of the critical point"},
]


def rows():
    return copy.deepcopy(REFERENCE)


def test_reference_matches_itself():
    assert check.check_rows(rows(), 3, REFERENCE, compare_values=True) == ([], [])


def test_perturbed_row_is_caught():
    current = rows()
    current[1]["chi_r"] *= 1.0 + 2e-3
    errors, _ = check.check_rows(current, 3, REFERENCE, compare_values=True)
    assert len(errors) == 1 and "differs from the reference" in errors[0]


def test_perturbation_within_tolerance_passes():
    current = rows()
    current[1]["chi_r"] *= 1.0 + 1e-11  # what a BLAS thread count moves
    assert check.check_rows(current, 3, REFERENCE, compare_values=True) == ([], [])


def test_other_seeds_skip_the_value_comparison():
    current = rows()
    current[1]["chi_r"] *= 1.1
    assert check.check_rows(current, 3, REFERENCE, compare_values=False) == ([], [])


def test_row_no_longer_ok_is_an_error():
    current = rows()
    current[0].update(chi_r=float("nan"), status="failed: eta = 1.1 outside [0, 1 + 1e-06]")
    errors, _ = check.check_rows(current, 3, REFERENCE, compare_values=True)
    assert any("was ok in the reference" in e for e in errors)


def test_reference_failure_that_now_passes_is_a_note():
    current = rows()
    current[2].update(chi_g=310.0, chi_r=95.0, eta=95.0 / 310.0, entropy=0.9, status="ok")
    errors, notes = check.check_rows(current, 0, REFERENCE, compare_values=True)
    assert errors == []
    assert len(notes) == 1 and "now passes" in notes[0]


def test_failure_counter_and_exit_code():
    assert check.count_failures(REFERENCE) == 1
    failed = rows()
    failed[0]["status"] = "failed: chi_g is not finite"
    assert check.count_failures(failed) == 2
    errors, _ = check.check_rows(rows(), 0, REFERENCE, compare_values=False)
    assert errors == ["exit code 0 with 1 failed rows"]
    errors, _ = check.check_rows(rows(), 1, REFERENCE, compare_values=False)
    assert errors == ["exit code 1"]


def test_invariants_hold_on_every_seed():
    current = rows()
    current[0]["eta"] = 1.0 + 1e-4  # a numeric eta above 1 + 1e-6
    errors, _ = check.check_rows(current, 3, REFERENCE, compare_values=False)
    assert len(errors) == 1 and "breaks an invariant" in errors[0]


def test_missing_row_breaks_the_layout():
    errors, _ = check.check_rows(rows()[1:], 3, REFERENCE, compare_values=False)
    assert any("layout" in e for e in errors)


def test_reads_cli_csv(tmp_path):
    path = tmp_path / "sweep_h.csv"
    path.write_text(
        "# lmglab 0.1.0 sweep-h\n"
        "h,N,tau,chi_g,chi_r,eta,entropy,method,delta,status\n"
        "1.0e+00,64,5.0e-01,nan,nan,nan,nan,analytic,nan,"
        "\"singular: h = 1.0, within 1e-06\"\n"
    )
    (row,) = check.read_rows(path)
    assert row["N"] == 64 and row["h"] == 1.0 and check.is_failure(row)

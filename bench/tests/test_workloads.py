import numpy as np

from workloads import WORKLOADS


def grid(argv):
    if "--h-list" in argv:
        return [float(h) for h in argv[argv.index("--h-list") + 1].split(",")]
    start, stop, count = (argv[argv.index(flag) + 1]
                          for flag in ("--h-start", "--h-stop", "--h-count"))
    return list(np.linspace(float(start), float(stop), int(count)))


def test_seed_zero_is_the_grid_as_listed():
    argv = WORKLOADS["fig1-default"].argv(0)
    assert argv[argv.index("--h-start") + 1 :] == ["0.8", "--h-stop", "1.2", "--h-count", "41"]
    argv = WORKLOADS["large-n"].argv(0)
    assert argv[argv.index("--h-list") + 1] == "0.9,0.99,1.1"
    assert argv[-2:] == ["--jobs", "1"]


def test_other_seeds_shift_the_h_grid_by_less_than_a_quarter_step():
    for workload in WORKLOADS.values():
        base = np.array(grid(workload.argv(0)))
        shifts = set()
        for seed in range(1, 20):
            shifted = np.array(grid(workload.argv(seed)))
            assert shifted.shape == base.shape
            offset = shifted - base
            assert np.allclose(offset, offset[0], atol=1e-12)  # same span
            assert 0.0 < abs(offset[0]) < 0.25 * workload.h_step()
            shifts.add(round(offset[0], 12))
        assert len(shifts) == 19
        assert workload.argv(7) == workload.argv(7)


def test_only_fig1_default_leaves_jobs_at_the_default():
    assert [w.name for w in WORKLOADS.values() if w.jobs is None] == ["fig1-default"]

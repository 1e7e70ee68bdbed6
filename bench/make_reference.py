"""Write the reference outputs that run.py compares seed-0 runs with.

Usage (from the repository root): python3 bench/make_reference.py [WORKLOAD...]

Run this only on the commit whose outputs are to be the reference; the
references in bench/reference/ were made on the benchmark's parent commit.
"""

import shutil
import sys
import tempfile
from pathlib import Path

from run import REFERENCE_DIR, TMP_ROOT, run_child
from workloads import WORKLOADS


def main() -> int:
    names = sys.argv[1:] or sorted(WORKLOADS)
    REFERENCE_DIR.mkdir(exist_ok=True)
    TMP_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
        for name in names:
            out = Path(tmp) / name
            argv = WORKLOADS[name].argv(0) + ["--out", str(out)]
            _, _, code = run_child([sys.executable, "-m", "lmglab", *argv], timeout=600.0)
            if code not in (0, 3):
                print(f"{name}: lmglab exited with {code}", file=sys.stderr)
                return 1
            (csv,) = out.glob("*.csv")
            shutil.copyfile(csv, REFERENCE_DIR / f"{name}.csv")
            print(f"wrote {REFERENCE_DIR / f'{name}.csv'}")
    TMP_ROOT.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())

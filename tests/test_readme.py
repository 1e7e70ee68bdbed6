"""README's examples run as written, so they name no deleted API or flag,
and every public name is read in the package or named in README."""

import ast
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import lmglab
from lmglab.cli import _OPTIONS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    src = Path(lmglab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 4


def test_library_use_section_names_every_sweep_point_parameter():
    # A renamed or added keyword cannot leave the section describing the old one.
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    # In inline code, so that neither prose nor the example counts.
    missing = [name for name in inspect.signature(lmglab.sweep_point).parameters
               if not re.search(rf"`[^`\n]*(?<!\w){name}(?!\w)[^`\n]*`", section)]
    assert missing == []


def test_command_line_examples_run(tmp_path):
    section = README.read_text().split("## Command line", 1)[1]
    script = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line) for line in script.replace("\\\n", " ").splitlines()
                if line.startswith("lmglab ")]
    assert [argv[1] for argv in commands] == ["sweep-h", "sweep-tau", "compare", "peak-scan"]
    src = Path(lmglab.__file__).resolve().parents[1]
    procs = {}
    for argv in commands:
        out = argv.index("--out") + 1
        argv[out] = str(tmp_path / argv[out])
        procs[argv[1]] = subprocess.run([sys.executable, "-m", *argv], capture_output=True,
                                        text=True, env={**os.environ, "PYTHONPATH": str(src)},
                                        timeout=300)
    # The closed forms are singular at h = 1, the only failures of figure 1.
    assert procs.pop("sweep-h").returncode == 3
    rows = json.loads((tmp_path / "runs" / "fig1" / "sweep_h.json").read_text())["rows"]
    assert sorted((r["N"], r["h"], r["method"], r["status"].split(":")[0])
                  for r in rows if r["status"] != "ok") == \
        [(n, 1.0, "analytic", "singular") for n in (64, 128, 256, 512)]
    for proc in procs.values():
        assert proc.returncode == 0, proc.stderr
    assert "peak checks passed" in procs["peak-scan"].stdout


def test_command_line_section_names_every_flag():
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    # As a whole word: --m inside --methods, or --tau inside --tau-list, does not count.
    missing = [flag for _, flag, _ in _OPTIONS
               if not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", section)]
    assert missing == []


def test_every_public_name_is_used_or_documented():
    # A public name that no module reads and README does not name is
    # surface that only the tests keep alive.
    package = Path(lmglab.__file__).resolve().parent
    loaded = set()
    for path in package.rglob("*.py"):
        if path == package / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    readme = README.read_text()
    unused = [name for name in lmglab.__all__ if name != "__version__"
              and name not in loaded
              and not re.search(rf"(?<!\w){re.escape(name)}(?!\w)", readme)]
    assert unused == []

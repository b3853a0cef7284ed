"""Every script in demos/ runs to the end, as a user runs it, against the
corrpca this suite imports, with a RuntimeWarning an error."""

import os
import subprocess
import sys
from pathlib import Path

import corrpca


def test_demos_run(tmp_path):
    demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    assert demos, "no demo in demos/"
    src = str(Path(corrpca.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for demo in demos:
        run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                             cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, f"{demo.name}: {run.stderr}"

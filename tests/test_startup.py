"""Start-up loads no scipy.

The package imports scipy at the first mesh or solve, not at import time,
so the commands that never mesh or solve, and a run rejected before any
work, finish without it.  Each case runs in a fresh interpreter, since
this one has long loaded scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

import neckfield

SRC = Path(neckfield.__file__).resolve().parents[1]
GUARDED = ("scipy.sparse", "scipy.spatial", "scipy.linalg")
FAST_CONFIG = "[sweep]\nepsilons = 1e-2 2.15e-3 4.64e-4 1e-4\n[mesh]\nlayers = 4\nh_far = 0.3\n"
SWEEP_CSV = (
    "# neckfield-sweep-v1\n"
    "eps,rate,energy_v1,c1,c2,b_factor,max_grad_u_neck,max_grad_v1_neck\n"
    "0.01,0.1,3.0,0.6,0.4,9.0,4.0,30.0\n"
    "0.001,0.03,9.0,0.6,0.4,9.5,12.0,95.0\n"
)


def _fresh(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def _loaded_after(body: str, cwd: Path) -> list[str]:
    code = f"import json, sys\n{body}\nprint(json.dumps([m for m in {GUARDED!r} if m in sys.modules]))\n"
    done = _fresh(code, cwd)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


CASES = {
    "import-and-parse": (
        "import neckfield.cli\n"
        "from neckfield.config import default_config_text, parse_config\n"
        "parse_config(default_config_text())"
    ),
    "constants": "from neckfield.cli import main\nassert main(['constants']) == 0",
    "init-config": "from neckfield.cli import main\nassert main(['init-config', '--out', 'lab.cfg']) == 0",
    "short-sweep-config": "from neckfield.cli import main\nassert main(['sweep', '--config', 'short.cfg']) == 2",
    "report": "from neckfield.cli import main\nassert main(['report', '--dir', 'stored']) == 0",
    "help": (
        "from neckfield.cli import main\n"
        "try:\n    main(['--help'])\nexcept SystemExit as exc:\n    assert exc.code == 0"
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_no_scipy_at_start_up(tmp_path, case):
    (tmp_path / "short.cfg").write_text("[sweep]\ncount = 3\n[output]\ndirectory = out\n")
    (tmp_path / "fast.cfg").write_text(FAST_CONFIG + "[output]\ndirectory = out\n")
    (tmp_path / "stored").mkdir()
    (tmp_path / "stored" / "sweep.csv").write_text(SWEEP_CSV)
    assert _loaded_after(CASES[case], tmp_path) == []
    assert not (tmp_path / "out").exists()


def test_no_process_pool_at_import(tmp_path):
    # Only the gate's worker needs multiprocessing, so it is imported there.
    pool_modules = ("multiprocessing", "concurrent.futures.process")
    done = _fresh(f"import sys\nimport neckfield.cli\nprint([m for m in {pool_modules!r} if m in sys.modules])", tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_solve_manifest_records_scipy(tmp_path):
    (tmp_path / "fast.cfg").write_text(FAST_CONFIG + f"[output]\ndirectory = {tmp_path / 'out'}\n")
    done = _fresh(
        "import sys\nfrom neckfield.cli import main\n"
        "sys.exit(main(['solve', '--config', 'fast.cfg', '--epsilon', '1e-3']))",
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["scipy"] == scipy.__version__

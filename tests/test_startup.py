"""Start-up loads neither numpy nor scipy.

The package imports numpy and scipy at their first use, not at import
time, so the commands that never mesh or solve, and a run rejected before
any work, finish without them.  Once loaded, no stand-in is left in the
package, and ``main`` gives a process that has not loaded numpy one BLAS
thread.  Each case runs in a fresh interpreter, since this one has long
loaded both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

import neckfield
from neckfield.cli import THREAD_VARS, main

SRC = Path(neckfield.__file__).resolve().parents[1]
GUARDED = ("numpy", "scipy.sparse", "scipy.spatial", "scipy.linalg")
FAST_CONFIG = "[sweep]\nepsilons = 1e-2 2.15e-3 4.64e-4 1e-4\n[mesh]\nlayers = 4\nh_far = 0.3\n"
SWEEP_CSV = (
    "# neckfield-sweep-v1\n"
    "eps,rate,energy_v1,c1,c2,b_factor,max_grad_u_neck,max_grad_v1_neck\n"
    "0.01,0.1,3.0,0.6,0.4,9.0,4.0,30.0\n"
    "0.001,0.03,9.0,0.6,0.4,9.5,12.0,95.0\n"
)


def _fresh(code: str, cwd: Path, **env_vars: str) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
    env.update(env_vars, PYTHONPATH=str(SRC))
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


SOLVE_CODE = """
import json, sys
import neckfield.cli
from neckfield import fem
from neckfield.config import parse_config
from neckfield.conductivity import solve_bundle
from neckfield.mesh import generate


class Log:
    def __init__(self, module):
        self.module, self.names = module, []

    def __getattr__(self, name):
        self.names.append(name)
        return getattr(self.module, name)


log = fem.sp = Log(fem.sp)
cfg = parse_config(open("fast.cfg").read())
solve_bundle(generate(cfg.geometry.pair(1e-3), cfg.mesh), cfg.boundary.data())
deferred = ("np", "sp", "spla", "csgraph", "linalg", "spatial")
print(json.dumps({
    "kinds": {name[10:]: {key: type(value).__name__ for key, value in vars(mod).items() if key in deferred}
              for name, mod in sys.modules.items() if name.startswith("neckfield.")},
    "wrapper_bound": fem.sp is log,
    "wrapper_saw": sorted(set(log.names)),
}))
"""


def test_no_stand_in_left_after_a_solve(tmp_path):
    # Each numpy and scipy name of the package is the module itself after
    # one solve, so no stand-in sits on a hot path; a wrapper set on a
    # deferred name before its first use stays bound and sees the calls.
    (tmp_path / "fast.cfg").write_text(FAST_CONFIG)
    done = _fresh(SOLVE_CODE, tmp_path)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.splitlines()[-1])
    kinds = doc["kinds"]
    assert {name for name, names in kinds.items() if "np" in names} == {
        "acceptance", "closed_forms", "conductivity", "experiments", "fem", "geometry", "mesh"
    }
    assert set(kinds["fem"]) == {"np", "sp", "spla", "csgraph", "linalg"}
    assert set(kinds["mesh"]) == {"np", "sp", "spla", "csgraph", "spatial"}
    assert kinds["fem"].pop("sp") == "Log"
    assert all(kind == "module" for names in kinds.values() for kind in names.values()), kinds
    assert doc["wrapper_bound"]
    assert "csr_matrix" in doc["wrapper_saw"] or "coo_matrix" in doc["wrapper_saw"], doc["wrapper_saw"]


PIN_CODE = "import json, os\nfrom neckfield.cli import main\nassert main(['init-config', '--out', 'lab.cfg']) == 0\n"


def test_one_blas_thread_unless_set(tmp_path, monkeypatch):
    show = f"print(json.dumps({{v: os.environ.get(v) for v in {THREAD_VARS!r}}}))"
    done = _fresh(PIN_CODE + show, tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == dict.fromkeys(THREAD_VARS, "1")
    # A value the user set wins.
    done = _fresh(PIN_CODE + show, tmp_path, OPENBLAS_NUM_THREADS="3")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {**dict.fromkeys(THREAD_VARS, "1"), "OPENBLAS_NUM_THREADS": "3"}
    # This process has loaded numpy, so its pools are sized already.
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    before = dict(os.environ)
    assert main(["init-config", "--out", str(tmp_path / "lab2.cfg")]) == 0
    assert dict(os.environ) == before

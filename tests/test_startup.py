"""Each command loads only the modules it runs.

Without a bytecode cache every process compiles the source of each module it
imports, so a module-level import of a module that a command does not use is
paid on every invocation.  ``import edgedrop.cli`` loads ``errors`` and
``network``; each handler imports the rest where it runs them.  Every case
runs in a fresh interpreter, imports ``edgedrop.cli``, runs ``main`` on one
command and compares the ``edgedrop`` modules loaded with the expected set.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import CORPUS, GOLDEN_DIR

ROOT = Path(__file__).parent.parent
AT_IMPORT = {"edgedrop", "edgedrop.cli", "edgedrop.errors", "edgedrop.network"}
CODES = AT_IMPORT | {"edgedrop.codes"}
REMOVAL = CODES | {"edgedrop.removal"}
CWL = REMOVAL | {"edgedrop.groups", "edgedrop.cwl"}
GROUPCODES = REMOVAL | {"edgedrop.groups", "edgedrop.groupcodes"}

GOLDEN = {name: (argv, status) for name, argv, status in CORPUS}

# One command per family, by golden report name or argv and exit status,
# with the modules it loads.
FAMILIES = {
    "validate": (*GOLDEN["validate"], AT_IMPORT),
    "verify": (*GOLDEN["verify"], CODES),
    "remove-labels": (*GOLDEN["remove-labels"], REMOVAL),
    "remove-edge-value": (*GOLDEN["remove-edge-value"], REMOVAL),
    "remove-cwl": (*GOLDEN["remove-cwl"], CWL),
    "cwl-check-groups": (*GOLDEN["cwl-check-groups"], CWL),
    "cwl-search": (*GOLDEN["cwl-search"], CWL),
    "pwl-remove": (*GOLDEN["pwl-remove"], CWL),
    "group-remove-klein": (*GOLDEN["group-remove-klein"], GROUPCODES),
    "group-zero-error-klein": (*GOLDEN["group-zero-error-klein"], GROUPCODES),
    "case-study-butterfly": (*GOLDEN["case-study-butterfly"], CWL | {"edgedrop.library"}),
    "case-study-n2": (["case-study", "n2"], 0, CWL | {"edgedrop.library"}),
    "case-study-n3": (["case-study", "n3-injectivity"], 0, CODES | {"edgedrop.library"}),
    "case-study-dougherty": (
        ["case-study", "dougherty", "--t", "0,1,2,3"], 1, CODES | {"edgedrop.library"}
    ),
    "help": (["--help"], 0, AT_IMPORT),
}

PROBE = """
import json, os, sys
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "edgedrop")
from edgedrop.cli import main
at_import = loaded()
status = main(json.loads(sys.argv[1]) + ["--out", os.devnull])
print(json.dumps([at_import, status, loaded()]))
"""


def _loaded_by(argv: list[str]) -> tuple[set, int, set]:
    """Modules loaded by ``import edgedrop.cli``, the exit status of
    ``main(argv)`` in the same fresh interpreter, and the modules then."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        cwd=GOLDEN_DIR, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    at_import, status, after = json.loads(run.stdout.splitlines()[-1])
    return set(at_import), status, set(after)


@pytest.mark.parametrize("argv, status, expected", FAMILIES.values(), ids=FAMILIES)
def test_a_command_loads_only_the_modules_it_runs(argv, status, expected):
    at_import, got_status, loaded = _loaded_by(argv)
    assert at_import == AT_IMPORT
    assert got_status == status
    assert loaded == expected


# Records the OpenBLAS thread setting at the moment numpy starts to load.
BLAS_PROBE = """
import os, sys

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Spy())
import edgedrop.cli
"""


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")], ids=["unset", "set"])
def test_numpy_loads_with_one_blas_thread_unless_the_user_chose(preset, expected):
    """No command uses BLAS threads, so ``edgedrop.cli`` sets
    ``OPENBLAS_NUM_THREADS`` to 1 before numpy loads; a value already in
    the environment stays."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    run = subprocess.run(
        [sys.executable, "-c", BLAS_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [expected]

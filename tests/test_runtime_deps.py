"""The package runs on numpy alone: scipy is a test dependency only."""

import json
import os
import subprocess
import sys
from pathlib import Path

import growthfit as gf
from growthfit.cli import build_parser

SRC = str(Path(gf.__file__).resolve().parents[1])

COMMANDS = [
    ["generate", "--model", "0.5*BA + 0.5*RAND", "--increments", "200",
     "--new-targets", "2", "--seed", "1", "--format", "edges", "--out", "edges.tsv"],
    ["ingest", "--data", "edges.tsv", "--out", "stars.txt"],
    ["score", "--data", "stars.txt", "--model", "0.5*BA + 0.5*RAND"],
    ["fit", "--data", "stars.txt", "--components", "BA,RAND", "--step", "0.1"],
    ["fit-intervals", "--data", "stars.txt", "--components", "BA,RAND",
     "--intervals", "2", "--step", "0.1"],
    ["fit-changepoint", "--data", "stars.txt", "--model-pre", "RAND", "--model-post", "BA"],
    ["scan-j", "--data", "stars.txt", "--components", "BA,RAND",
     "--jmin", "1", "--jmax", "3", "--step", "0.1"],
    ["wilks", "--data", "stars.txt", "--components", "BA,RAND", "--step", "0.1"],
    ["stats", "--data", "stars.txt"],
    ["similarity", "--data", "stars.txt", "--model", "BA", "--model2", "RAND"],
]

BLOCKED_RUN = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from growthfit.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps(codes))
"""


def run_python(code, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy_module():
    out = run_python(
        "import sys, json, growthfit; "
        "print(json.dumps([m for m in sys.modules if m.startswith('scipy')]))"
    )
    assert json.loads(out) == []


def test_every_subcommand_runs_with_scipy_blocked(tmp_path):
    (subparsers,) = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
    assert set(subparsers.choices) == {c[0] for c in COMMANDS}
    out = run_python(BLOCKED_RUN, json.dumps(COMMANDS), cwd=tmp_path)
    codes = json.loads(out.strip().splitlines()[-1])
    assert dict(zip((c[0] for c in COMMANDS), codes)) == {c[0]: 0 for c in COMMANDS}

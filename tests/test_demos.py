"""Golden demo outputs: every `demos/*.py` prints exactly its recorded stdout.

Each demo runs in a fresh interpreter with `src` on its path, as a reader
would run it. `data/demo_stdout.json` maps each demo's file name to its
stdout, so a refactor that keeps the library's answers keeps every byte the
demos print.

Re-record (only when an output change is intended) with
`PYTHONPATH=src python tests/test_demos.py`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DATA = Path(__file__).parent / "data" / "demo_stdout.json"


def _run(demo: Path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    return done.returncode, done.stdout


def test_every_demo_is_recorded():
    assert sorted(json.loads(DATA.read_text(encoding="utf-8"))) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_is_unchanged(demo):
    expected = json.loads(DATA.read_text(encoding="utf-8"))[demo.name]
    assert _run(demo) == (0, expected)


if __name__ == "__main__":
    outputs = {}
    for demo in DEMOS:
        code, out = _run(demo)
        if code != 0:
            sys.exit(f"{demo.name} exited with {code}")
        outputs[demo.name] = out
    DATA.write_text(json.dumps(outputs, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(outputs)} demos in {DATA}")

"""Rewrite the golden outputs that tests/test_golden.py compares against.

    PYTHONPATH=src python tests/golden/regenerate.py [CASE ...]

runs each case (all of them by default) with the decoq on sys.path and
replaces its directory here.  Regenerating a golden file is an output
change: list each file, and why, in CHANGES.md.
"""

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import CASES, GOLDEN, run_case  # noqa: E402


def main(names: list[str]) -> None:
    for name in names or CASES:
        with tempfile.TemporaryDirectory() as tmp:
            outputs = run_case(name, Path(tmp))
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir()
        for file, text in outputs.items():
            (target / file).write_text(text)
        print(f"{name}: exit {outputs['exit_code'].strip()}, {len(outputs)} files")


if __name__ == "__main__":
    main(sys.argv[1:])

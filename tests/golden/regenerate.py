"""Rewrite tests/golden/<case>/ for each case of cases.py named, or for all of them:

    PYTHONPATH=src python tests/golden/regenerate.py [CASE ...]

Regenerating a golden file is an output change: list each, and why, in CHANGES.md.
"""

import sys

from cases import CASES, GOLDEN, write_cases

if __name__ == "__main__":
    write_cases(sys.argv[1:] or CASES, GOLDEN)

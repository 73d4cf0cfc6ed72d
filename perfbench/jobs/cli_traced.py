"""Run one decoq CLI command with spans recorded at decoq's module boundaries.

    python -X importtime perfbench/jobs/cli_traced.py SPANS.json <decoq args...>

Behaves like `python -m decoq.cli <decoq args...>` (same exit code and
files) and writes the spans to SPANS.json when the command ends.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import decoq.cli

    recorder = tracing.Recorder()
    tracing.install(recorder, sys.modules)
    try:
        return recorder.span("cli.main", decoq.cli.main, (argv,), {})
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())

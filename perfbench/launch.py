"""Run one middleman CLI call with the benchmark's span wrappers installed.

Usage: python3 perfbench/launch.py SPANS_JSON ARG...

Equivalent to ``python -m middleman ARG...``; the span aggregates are
written to SPANS_JSON when the call ends.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import middleman.cli  # noqa: E402
import spans  # noqa: E402

tracer = spans.Tracer()
tracer.install()
try:
    code = middleman.cli.main(sys.argv[2:])
finally:
    Path(sys.argv[1]).write_text(json.dumps(tracer.dump()))
sys.exit(code)

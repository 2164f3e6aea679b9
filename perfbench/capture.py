"""Record the reference digests in ``expected.json``.

Usage (from the root of a checkout): python3 perfbench/capture.py

Runs every ``maps`` operation and every ``cli_shipped`` call once and writes
the SHA-256 of each map output, and the exit code and SHA-256 of the stdout
and output file of each CLI call. Map outputs must pass the closed-form
checks before they are recorded. Run it only at the commit whose outputs
are the reference.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads as w

sys.path.insert(0, str(run.SRC))
import middleman.cli  # noqa: E402


def main():
    scratch = run.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        maps = {}
        for kind in w.MAP_OPS:
            argv = w.map_argv(kind, tmp)
            if middleman.cli.main(argv) != 0:
                raise SystemExit(f"{kind}: nonzero exit")
            data = Path(argv[-1]).read_bytes()
            error = w.check_map_output(kind, data, w.sha256(data))
            if error:
                raise SystemExit(error)
            maps[kind] = w.sha256(data)
        cli = {}
        for kind in w.CLI_CALLS:
            out = tmp / f"{kind}.out"
            _, _, code, _ = run.run_child(
                [sys.executable, "-m", "middleman", *w.cli_argv(kind, out)],
                tmp / "stdout", tmp / "stderr")
            cli[kind] = w.cli_result(code, (tmp / "stdout").read_bytes(), out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    w.EXPECTED_FILE.write_text(json.dumps({"maps": maps, "cli": cli}, indent=2) + "\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""middleman benchmark: one workload per run, with correctness checks.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: oracles_equilibrium, oracles_refuted, maps, cli_shipped (see
``workloads.py`` and ``README.md``). Load is closed-loop with one client:
one operation at a time, and at most one child process at a time. BLAS and
OpenMP threads are pinned to 1.

With ``--trace 0`` the run measures whole rounds of the workload's
operation mix for at least ``--seconds`` seconds and reports the end-to-end
metrics. With ``--trace 1`` it runs a fixed amount of work twice, untraced
and then with span wrappers installed, and reports the per-layer metrics
and the tracing overhead. Every run checks every output; the last line of
standard output is one JSON object, and any wrong output makes the exit
code 1. The program under test is imported from ``src/`` of the checkout
and never configured: no backend is selected and ``MIDDLEMAN_KERNELS`` is
left alone.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("oracles_equilibrium", "oracles_refuted", "maps", "cli_shipped")
SETUP_PROBES = 7
TRACE_ROUNDS = {"oracles": 54, "maps": 1, "cli_shipped": 1}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, stdout_path, stderr_path):
    """Run one child to completion; returns (monotonic start, seconds, exit code, peak RSS KiB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        started = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=ROOT, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return started, seconds, proc.returncode, usage.ru_maxrss


class Calibration:
    """A fixed reference computation, timed between the workload's operations.

    The speed of a shared sandbox drifts by tens of percent over tens of
    seconds, and the drift moves every operation alike. Each timed operation
    is therefore scaled by ``NOMINAL_S`` over the median of the reference
    times taken just before and just after it: the gated latency and
    throughput metrics read as if the machine ran at the speed it had when
    ``NOMINAL_S`` was measured. The reference is a fixed set of numpy passes
    over preallocated arrays small enough to stay in L2, so its own time does
    not depend on the allocator or on where its memory lands (an interpreted
    loop was tried and varied by 12% from one process to the next); it never
    calls the program.
    """

    NOMINAL_S = 0.0024  # median reference time on a 2-vCPU Intel Xeon sandbox

    def __init__(self):
        import numpy as np

        self.np = np
        self.a = np.linspace(0.0, 1.0, 61 * 61 * 10).reshape(61, 61, 10)  # ~0.3 MB
        self.b = self.a[::-1].copy()
        self.x = np.empty_like(self.a)
        self.m1 = np.empty(self.a.shape, dtype=bool)
        self.m2 = np.empty(self.a.shape, dtype=bool)
        self.samples = []

    def tick(self, reps=1):
        np = self.np
        a, b, x, m1, m2 = self.a, self.b, self.x, self.m1, self.m2
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(40):
                np.multiply(a, 1.25, out=x)
                np.add(x, b, out=x)
                np.less_equal(a, b, out=m1)
                np.greater_equal(x, 0.5, out=m2)
                np.logical_and(m1, m2, out=m1)
                m1.any()
            self.samples.append(time.perf_counter() - t0)

    def factor(self, at=None, window=None):
        """Multiply a duration by this to read it at nominal machine speed,
        judged from the ``window`` reference times either side of sample
        index ``at`` (default: all of them)."""
        near = self.samples[max(0, at - window):at + window] if window else self.samples
        return self.NOMINAL_S / statistics.median(near)


class Record:
    """Latency samples and failures of one measured stretch."""

    def __init__(self, calib=None, window=None):
        self.samples = {}  # kind -> [seconds]
        self.marks = []  # (kind, seconds, calibration samples so far), when calibrating
        self.attempted = 0
        self.failures = []
        self.rounds = 0
        self.child_rss_kib = 0
        self.calib = calib
        self.window = window

    def tick(self, reps):
        """Time the calibration reference between operations, when calibrating."""
        if self.calib is not None:
            self.calib.tick(reps)

    def add(self, kind, seconds, error):
        self.samples.setdefault(kind, []).append(seconds)
        if self.calib is not None:
            self.marks.append((kind, seconds, len(self.calib.samples)))
        self.attempted += 1
        if error:
            self.failures.append(error)

    def busy_s(self):
        return sum(sum(v) for v in self.samples.values())

    def scaled(self):
        """kind -> [seconds at nominal machine speed]."""
        out = {}
        for kind, seconds, at in self.marks:
            out.setdefault(kind, []).append(seconds * self.calib.factor(at, self.window))
        return out


def measure(run_round, seconds, min_rounds, round_len=1, calib=None, window=None):
    """Run whole rounds until both ``min_rounds`` and ``seconds`` are reached."""
    rec = Record(calib, window)
    start = time.perf_counter()
    while True:
        run_round(rec.rounds, rec)
        rec.rounds += 1
        if (rec.rounds >= min_rounds and rec.rounds % round_len == 0
                and time.perf_counter() - start >= seconds):
            rec.tick(window)  # reference times after the last operation
            return rec


# ---------------------------------------------------------------- workloads


class OracleWorkload:
    WINDOW = 9  # calibration ticks (one per game) either side of an operation

    def __init__(self, seed, refuted):
        import workloads as w

        self.w = w
        self.cases = w.oracle_cases(seed, refuted)

    def warm_up(self):
        rec = Record()
        for i in range(3):
            self.run_round(i, rec)
        return rec

    def run_round(self, i, rec):
        case = self.cases[i % len(self.cases)]
        rec.tick(1)
        for kind in self.w.ORACLE_KINDS:
            op = case.ops[kind]
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception as exc:  # a raised check is a wrong output
                out = exc
            dt = time.perf_counter() - t0
            want = case.expected[kind]
            rec.add(kind, dt, None if out == want else
                    f"{kind} on game {i} ({case.label}, {case.depth}): got {out!r}, want {want!r}")

    def timed(self, seconds, calib):
        return measure(self.run_round, seconds, self.w.MIN_GAMES, self.w.CYCLE,
                       calib, self.WINDOW)

    def fixed(self):
        return measure(self.run_round, 0, TRACE_ROUNDS["oracles"], self.w.CYCLE)

    def metrics(self, rec):
        out = {}
        for kind in self.w.ORACLE_KINDS:
            xs = sorted(rec.samples[kind])
            out[f"{kind}_p50_ms"] = (statistics.median(xs) * 1e3, "ms", len(xs))
            out[f"{kind}_p90_ms"] = (xs[math.ceil(0.9 * len(xs)) - 1] * 1e3, "ms", len(xs))
        return out


class MapsWorkload:
    WINDOW = 15  # calibration ticks between operations

    def __init__(self, tmp):
        import workloads as w
        from middleman.cli import main  # noqa: F401  (import is part of set-up)

        self.w = w
        self.tmp = Path(tmp)
        self.argv = {kind: w.map_argv(kind, self.tmp) for kind in w.MAP_OPS}
        self.expected = w.load_expected()["maps"]
        self.verified = set()

    def warm_up(self):
        import middleman.cli

        for argv in (["region", "--resolution", "20", "--out", str(self.tmp / "warm.csv")],
                     ["region", "--resolution", "20", "--format", "svg",
                      "--out", str(self.tmp / "warm.svg")],
                     ["sweep", "--scenario", self.w.SIGMA05, "--sweep", "gamma=0:0.9:10",
                      "--format", "machine", "--out", str(self.tmp / "warm.json")]):
            middleman.cli.main(argv)
        return Record()

    def run_round(self, i, rec):
        import middleman.cli

        for kind, argv in self.argv.items():
            out = Path(argv[-1])
            out.unlink(missing_ok=True)
            rec.tick(self.WINDOW)
            t0 = time.perf_counter()
            try:
                code = middleman.cli.main(argv)
            except Exception as exc:
                code = exc
            dt = time.perf_counter() - t0
            if code != 0:
                rec.add(kind, dt, f"{kind}: exit {code!r}")
                continue
            data = out.read_bytes()
            if kind in self.verified:
                error = (None if self.w.sha256(data) == self.expected[kind]
                         else f"{kind}: SHA-256 differs from the seed commit")
            else:
                error = self.w.check_map_output(kind, data, self.expected[kind])
                self.verified.add(kind)
            rec.add(kind, dt, error)

    def timed(self, seconds, calib):
        return measure(self.run_round, seconds, 1, calib=calib, window=self.WINDOW)

    def fixed(self):
        return measure(self.run_round, 0, TRACE_ROUNDS["maps"])

    def metrics(self, rec):
        out = {}
        for prefix, name, unit in (("region", "region_points_per_s", "points/s"),
                                   ("sweep", "sweep_rows_per_s", "rows/s")):
            kinds = [k for k in rec.samples if k.startswith(prefix)]
            rows = sum(self.w.MAP_OPS[k][1] * len(rec.samples[k]) for k in kinds)
            busy = sum(sum(rec.samples[k]) for k in kinds)
            out[name] = (rows / busy, unit, sum(len(rec.samples[k]) for k in kinds))
        return out


class CliWorkload:
    WINDOW = 6  # calibration ticks (two per call) either side of a call

    def __init__(self, tmp):
        import middleman  # noqa: F401  (import is part of set-up)
        import workloads as w

        self.w = w
        self.tmp = Path(tmp)
        self.calls = {kind: w.cli_argv(kind, self.tmp / f"{kind}.out") for kind in w.CLI_CALLS}
        self.expected = w.load_expected()["cli"]
        self.trace_dir = None  # set for the traced pass: calls go through the launcher
        self.traced_calls = 0

    def command(self, argv):
        if self.trace_dir is None:
            return [sys.executable, "-m", "middleman", *argv]
        self.traced_calls += 1
        dump = self.trace_dir / f"spans{self.traced_calls}.json"
        return [sys.executable, str(HERE / "launch.py"), str(dump), *argv]

    def call(self, kind, rec):
        out = self.tmp / f"{kind}.out"
        out.unlink(missing_ok=True)
        rec.tick(2)
        _, dt, code, rss = run_child(self.command(self.calls[kind]),
                                     self.tmp / "stdout", self.tmp / "stderr")
        got = self.w.cli_result(code, (self.tmp / "stdout").read_bytes(), out)
        rec.child_rss_kib = max(rec.child_rss_kib, rss)
        want = self.expected[kind]
        rec.add(kind, dt, None if got == want else f"{kind}: got {got}, want {want}")

    def warm_up(self):
        rec = Record()
        self.call("threshold", rec)
        return rec

    def run_round(self, i, rec):
        for kind in self.calls:
            self.call(kind, rec)

    def timed(self, seconds, calib):
        return measure(self.run_round, seconds, 1, calib=calib, window=self.WINDOW)

    def fixed(self):
        return measure(self.run_round, 0, TRACE_ROUNDS["cli_shipped"])

    def metrics(self, rec):
        xs = [x for v in rec.samples.values() for x in v]
        return {
            "cli_call_p50_ms": (statistics.median(xs) * 1e3, "ms", len(xs)),
            "cli_calls_per_s": (len(xs) / rec.busy_s(), "1/s", len(xs)),
        }


def setup(workload, seed, tmp):
    """Import the program and build the workload's inputs."""
    sys.path.insert(0, str(SRC))
    import middleman  # noqa: F401

    if workload.startswith("oracles"):
        return OracleWorkload(seed, refuted=workload == "oracles_refuted")
    if workload == "maps":
        return MapsWorkload(tmp)
    return CliWorkload(tmp)


# ---------------------------------------------------------------- reporting


def provenance():
    import numpy
    import yaml

    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "blas_threads": 1,
        "scan_cy_importable": importlib.util.find_spec("middleman._scan_cy") is not None,
        "src_lines": sum(
            len(p.read_bytes().splitlines())
            for p in sorted((SRC / "middleman").rglob("*"))
            if p.suffix in (".py", ".pyx") and "__pycache__" not in p.parts
        ),
        "src_lines_note": "src/middleman *.py and *.pyx; the generated _scan_cy.c is excluded",
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        info["cpu_model"] = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[name] = size
    info["caches_per_core"] = caches
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        in_repo = top.returncode == 0 and Path(lines[0]).resolve() == ROOT
        info["git_head"] = lines[1] if in_repo else "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        info["git_head"] = "unknown (git unavailable)"
    return info


def geomean(values):
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


def import_times(tmp):
    """Cumulative import seconds from ``-X importtime`` in a fresh interpreter."""
    run_child([sys.executable, "-X", "importtime", "-c", "import middleman"],
              tmp / "stdout", tmp / "importtime")
    cumulative = {}
    for line in (tmp / "importtime").read_text().splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return {name: cumulative.get(name) for name in ("middleman", "numpy", "yaml")}


def timed_run(args, tmp):
    calib = Calibration()
    probes = []
    marks = []
    for _ in range(SETUP_PROBES):
        calib.tick(3)
        started, _, code, _ = run_child(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"],
            tmp / "probe", tmp / "probe_err")
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {(tmp / 'probe_err').read_text()}")
        probes.append(float((tmp / "probe").read_text()) - started)
        marks.append(len(calib.samples))
    calib.tick(3)
    setup_raw = statistics.median(probes)
    setup_s = statistics.median(p * calib.factor(at, 3) for p, at in zip(probes, marks))

    wl = setup(args.workload, args.seed, tmp)
    warm = wl.warm_up()
    rec = wl.timed(args.seconds, calib)
    rec.failures[:0] = warm.failures
    rec.attempted += warm.attempted

    if args.workload == "cli_shipped":
        rss_mb = rec.child_rss_kib / 1024
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    medians = {k: statistics.median(v) for k, v in rec.samples.items()}
    named = {
        "setup_s": (setup_raw, "s", SETUP_PROBES),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "error_rate": (len(rec.failures) / rec.attempted, "1", rec.attempted),
        **wl.metrics(rec),
    }
    scaled = rec.scaled()
    scaled_busy = sum(sum(v) for v in scaled.values())
    gated = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "kind_p50_gmean_ms": (
            geomean(statistics.median(v) for v in scaled.values()) * 1e3, "ms"),
        "rounds_per_s": (rec.rounds / scaled_busy, "1/s"),
    }
    report = {
        "kind_medians_ms": {k: round(v * 1e3, 4) for k, v in medians.items()},
        "kind_samples": {k: len(v) for k, v in rec.samples.items()},
        "rounds": rec.rounds,
        "busy_s": rec.busy_s(),
        "setup_probes_s": probes,
        "calibration": {"nominal_s": Calibration.NOMINAL_S,
                        "median_s": statistics.median(calib.samples),
                        "samples": len(calib.samples), "run_factor": calib.factor()},
        "raw_kind_p50_gmean_ms": geomean(medians.values()) * 1e3,
        "raw_rounds_per_s": rec.rounds / rec.busy_s(),
    }
    return rec, named, gated, report


def traced_run(args, tmp):
    import spans

    wl = setup(args.workload, args.seed, tmp)
    warm = wl.warm_up()
    plain = wl.fixed()
    tracer = spans.Tracer()
    if isinstance(wl, CliWorkload):
        wl.trace_dir = tmp
        traced = wl.fixed()
        for dump in sorted(tmp.glob("spans*.json")):
            tracer.merge(json.loads(dump.read_text()))
    else:
        tracer.install()
        traced = wl.fixed()
    rec = Record()
    rec.attempted = warm.attempted + plain.attempted + traced.attempted
    rec.failures = warm.failures + plain.failures + traced.failures
    # Overhead from per-kind medians, so a burst of load on the machine during
    # one pass does not read as tracing cost.
    untraced_s = sum(statistics.median(v) * len(v) for v in plain.samples.values())
    traced_s = sum(statistics.median(traced.samples[k]) * len(v)
                   for k, v in plain.samples.items())
    layers = spans.layer_metrics(tracer, import_times(tmp), untraced_s, traced_s)
    report = {
        "trace_rounds": plain.rounds,
        "untraced_busy_s": plain.busy_s(),
        "traced_busy_s": traced.busy_s(),
        "absent": {k: v[2] for k, v in layers.items() if v[2]},
        "aggregates": tracer.dump()["agg"],
    }
    return rec, layers, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "middleman" / "__init__.py").is_file():
        print(f"error: no middleman sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and its children: the calibration reference
    # then runs where the measured work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, tmp)
            print(repr(time.monotonic()))
            return 0
        if args.trace:
            rec, metrics, report = traced_run(args, tmp)
            result = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
        else:
            rec, named, metrics, report = timed_run(args, tmp)
            report["metrics"] = {k: {"value": v, "unit": u, "samples": n}
                                 for k, (v, u, n) in named.items()}
            for name, (value, unit, n) in named.items():
                print(f"{args.workload:>20} {name:<18} {value:14.4f} {unit:<9} n={n}")
            result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                      attempted=rec.attempted, failed=len(rec.failures),
                      failures=rec.failures[:20], provenance=provenance())
        print("report " + json.dumps(report, sort_keys=True))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": not rec.failures, "attempted": rec.attempted,
                      "failed": len(rec.failures), "metrics": result}))
    return 1 if rec.failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""d4check benchmark harness.

    python3 d4bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding ``src/d4check``. Workloads:

* ``certify``: a fresh worker imports d4check, then times
  ``theorem_pipeline()`` at window 20 and rendering the report as text and JSON.
* ``wide-window``: the same operation at window 200.
* ``cli``: a fresh ``python -m d4check.cli`` process timed from spawn to
  exit; each pass runs ``verify-all`` (text and JSON) and ``verify ID`` for
  every check id, in an order shuffled by the seed.

The load is closed-loop: one client, one operation in flight, so one busy
process at a time (``spawn.py`` waits idle between this harness and the
operation's process). Every operation runs in a fresh process because users
pay the first-call cost on every run. Every output
goes through ``gate``; a failed operation is counted, kept in the timings and
never retried. Before the timed loop a self-test feeds the gate real reports
it must reject.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` traced and untraced operations alternate, and the last line
holds the per-layer metrics named in BENCHMARK.json; the spans of the first
traced operation are written to ``d4bench/out`` when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import gate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "d4check"
OUT_DIR = BENCH_DIR / "out"
WORKER = BENCH_DIR / "worker.py"
SPAWN = BENCH_DIR / "spawn.py"

WORKLOADS = ("certify", "wide-window", "cli")
WINDOWS = {"certify": 20, "wide-window": 200}
SETUP_PROBES = 9
IMPORTTIME_REPS = 5
OP_TIMEOUT_S = 60.0
KEEP_SPANS = 30000
TAIL_BEYOND = 10

# Machine-speed calibration. On a shared host the same operation runs up to
# 1.7x slower for minutes at a time, while other tenants load the cores and
# caches; that drift is larger than the changes the benchmark must resolve.
# So this process times a fixed reference computation just before and just
# after every measured operation, and each timing is reported rescaled to the
# machine speed at which one reference run takes REFERENCE_MS (its typical
# time between operations on a 2-vCPU 2.1 GHz Xeon VM under CPython 3.11).
# Raw wall times are kept in the summary and the per-run record.
REFERENCE_MS = 25.0


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_ms() -> float:
    """Time one run of the fixed reference: exact-fraction and dict work, like d4check's."""
    start = time.perf_counter()
    acc: dict[tuple[int, int, int], Fraction] = {}
    for i in range(1, 60):
        for j in range(1, 40):
            f = Fraction(i, j) * Fraction(j + 1, i + 2) - Fraction(1, j)
            key = (i % 7, j % 5, f.numerator % 3)
            acc[key] = acc.get(key, Fraction(0)) + f
    return (time.perf_counter() - start) * 1e3


def calibrated(measure):
    """Run measure() between two reference runs; return its result and the time scale."""
    before = reference_ms()
    result = measure()
    return result, 2 * REFERENCE_MS / (before + reference_ms())


# ---------------------------------------------------------------------------
# Processes


@dataclass
class Proc:
    code: int
    stdout: bytes
    stderr: bytes
    result: bytes
    spawned: float
    wall_s: float
    rss_mb: float
    timed_out: bool


def _drain(buffers: dict[int, bytearray], deadline: float) -> bool:
    """Read every fd to end of file; False if the deadline passed first."""
    with selectors.DefaultSelector() as sel:
        for fd in buffers:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - clock()
            if left <= 0:
                return False
            for key, _ in sel.select(left):
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    buffers[key.fd] += chunk
                else:
                    sel.unregister(key.fd)
    return True


def run_process(cmd: list[str], env: dict[str, str], result_pipe: tuple[int, int] | None = None) -> Proc:
    """Run cmd to exit through spawn.py; return its output, wall time and peak RSS."""
    meta_read, meta_write = os.pipe()
    pass_fds = (meta_write, result_pipe[1]) if result_pipe else (meta_write,)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-S", str(SPAWN), str(meta_write), str(int(OP_TIMEOUT_S)), *cmd],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, pass_fds=pass_fds, start_new_session=True)
    finally:
        for fd in pass_fds:
            os.close(fd)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    buffers = {out_fd: bytearray(), err_fd: bytearray(), meta_read: bytearray()}
    if result_pipe:
        buffers[result_pipe[0]] = bytearray()
    with proc:
        if not _drain(buffers, clock() + OP_TIMEOUT_S + 10):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    for fd in (meta_read, result_pipe[0]) if result_pipe else (meta_read,):
        os.close(fd)
    try:
        status, maxrss_kb, spawned, ended = buffers[meta_read].split()
        code = os.waitstatus_to_exitcode(int(status))
    except ValueError:  # spawn.py did not report: the harness killed it
        code, maxrss_kb, spawned, ended = -signal.SIGKILL, 0, clock(), clock()
    return Proc(
        code=code,
        stdout=bytes(buffers[out_fd]),
        stderr=bytes(buffers[err_fd]),
        result=bytes(buffers[result_pipe[0]]) if result_pipe else b"",
        spawned=float(spawned),
        wall_s=float(ended) - float(spawned),
        rss_mb=int(maxrss_kb) / 1024,  # ru_maxrss is in kilobytes on Linux
        timed_out=code == -signal.SIGKILL,
    )


def run_worker(env: dict[str, str], mode: str, op_id: int, trace_spec: str, args: list[str]) -> tuple[Proc, dict]:
    read_fd, write_fd = os.pipe()
    cmd = [sys.executable, str(WORKER), mode, str(write_fd), str(op_id), trace_spec, *args]
    proc = run_process(cmd, env, (read_fd, write_fd))
    try:
        result = json.loads(proc.result) if proc.result else {}
    except ValueError:
        result = {}
    return proc, result


def cli_cmd(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "d4check.cli", *args]


# ---------------------------------------------------------------------------
# Operations


@dataclass(frozen=True)
class Op:
    variant: str  # outputs of one variant must be byte-identical within a run
    args: tuple[str, ...]  # d4check command line, or (window,) for the pipeline
    check_id: str | None = None
    fmt: str = "text"


def schedule(workload: str, rng: random.Random):
    """Endless sequence of operations; the seed only shuffles their order."""
    if workload in WINDOWS:
        op = Op(f"pipeline-{WINDOWS[workload]}", (str(WINDOWS[workload]),))
        while True:
            yield op
    passes = 0
    while True:
        ops = [Op("verify-all-text", ("verify-all",)),
               Op("verify-all-json", ("verify-all", "--format", "json"), fmt="json")]
        for i, cid in enumerate(gate.CHECK_IDS):
            if (i + passes) % 2:
                ops.append(Op(f"verify-{cid}-json", ("verify", cid, "--format", "json"), cid, "json"))
            else:
                ops.append(Op(f"verify-{cid}-text", ("verify", cid), cid))
        rng.shuffle(ops)
        yield from ops
        passes += 1


@dataclass
class Sample:
    op_id: int
    variant: str
    traced: bool
    latency_ms: float  # raw
    rss_mb: float
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None
    scale: float = 1.0  # calibration factor for this operation's times

    @property
    def calibrated_ms(self) -> float:
        return self.latency_ms * self.scale


@dataclass
class Runner:
    workload: str
    env: dict[str, str]
    distinct: list[str] | None  # functions whose distinct arguments a traced run counts; None when not tracing
    first_output: dict[str, bytes] = field(default_factory=dict)

    def run(self, op_id: int, op: Op, traced: bool) -> Sample:
        measure = self._pipeline if self.workload in WINDOWS else self._cli
        sample, scale = calibrated(lambda: measure(op_id, op, traced))
        sample.scale = scale
        return sample

    def _spec(self, op_id: int, traced: bool) -> str:
        if not traced:
            return "0"
        keep = KEEP_SPANS if op_id == 0 else 0
        return json.dumps({"distinct": self.distinct, "keep_spans": keep})

    def _pipeline(self, op_id: int, op: Op, traced: bool) -> Sample:
        proc, result = run_worker(self.env, "pipeline", op_id, self._spec(op_id, traced), list(op.args))
        problems = _process_problems(proc)
        if "text" in result and "json" in result:
            window = WINDOWS[self.workload] if self.workload == "wide-window" else None
            problems += gate.check_full(result["text"], "text")
            problems += gate.check_full(result["json"], "json", window)
            output = (result["text"] + "\0" + result["json"]).encode()
            problems += self._identical(op.variant, output)
        elif not problems:
            problems.append("worker returned no report")
        return self._sample(op_id, op, traced, proc, result, problems)

    def _cli(self, op_id: int, op: Op, traced: bool) -> Sample:
        if self.distinct is None:
            proc, result = run_process(cli_cmd(list(op.args)), self.env), {}
        else:
            proc, result = run_worker(self.env, "cli", op_id, self._spec(op_id, traced), list(op.args))
        problems = _process_problems(proc)
        report = proc.stdout.decode(errors="replace")
        if op.check_id is None:
            problems += gate.check_full(report, op.fmt)
        else:
            problems += gate.check_single(report, op.fmt, op.check_id)
        problems += self._identical(op.variant, proc.stdout)
        return self._sample(op_id, op, traced, proc, result, problems)

    def _identical(self, variant: str, output: bytes) -> list[str]:
        first = self.first_output.setdefault(variant, output)
        return [] if output == first else [f"report bytes differ from the first {variant} report of this run"]

    def _sample(self, op_id, op, traced, proc, result, problems) -> Sample:
        # In-worker region time when the worker measured one, else spawn to exit.
        latency = result["region_ns"] / 1e6 if "region_ns" in result else proc.wall_s * 1e3
        return Sample(op_id, op.variant, traced, latency, proc.rss_mb, problems, result.get("trace"))


def _process_problems(proc: Proc) -> list[str]:
    if proc.timed_out:
        return [f"timed out after {OP_TIMEOUT_S:.0f} s"]
    if proc.code != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return [f"exit code {proc.code}: {' '.join(tail)}"]
    return []


# ---------------------------------------------------------------------------
# Set-up: gate self-test, import probes, import times, source size


def gate_self_test(env: dict[str, str]) -> list[str]:
    """Real reports the gate must reject; returns those it did not reject."""
    failures = []
    for switch in ("--no-symmetry-constraint", "--skip-window-checks"):
        for fmt in ("text", "json"):
            proc = run_process(cli_cmd(["verify-all", switch, "--format", fmt]), env)
            report = proc.stdout.decode(errors="replace")
            if not report.strip():
                failures.append(f"verify-all {switch} --format {fmt}: no report (exit {proc.code})")
            elif not gate.check_full(report, fmt):
                failures.append(f"gate accepted verify-all {switch} --format {fmt}")
    return failures


def setup_probes(env: dict[str, str], workload: str) -> list[tuple[float, float]]:
    """Spawn-to-imported seconds, and time scale, of fresh workers that import what the workload uses."""
    mode = "import-cli" if workload == "cli" else "import-pipeline"
    out = []
    for i in range(SETUP_PROBES):
        (proc, result), scale = calibrated(lambda: run_worker(env, mode, i, "0", []))
        if proc.code != 0 or "imported" not in result:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')[-500:]}")
        out.append((result["imported"] - proc.spawned, scale))
    return out


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)\s*$")


def import_times(env: dict[str, str]) -> dict[str, float]:
    """Median ``-X importtime`` self time of each layer, and the cumulative total."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_REPS):
        proc = run_process([sys.executable, "-X", "importtime", "-c", "import d4check.cli"], env)
        for line in proc.stderr.decode().splitlines():
            m = _IMPORTTIME.match(line)
            if not m or not m.group(3).startswith("d4check"):
                continue
            name = m.group(3)
            if name.startswith("d4check."):
                samples.setdefault(f"{name[len('d4check.'):]}.import_ms", []).append(int(m.group(1)) / 1e3)
            if name == "d4check.cli":
                samples.setdefault("import.total_ms", []).append(int(m.group(2)) / 1e3)
    return {k: statistics.median(v) for k, v in samples.items()}


def source_lines() -> dict[str, float]:
    out = {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        out[f"src.{path.stem}.lines"] = path.read_bytes().count(b"\n")
    out["src.total_lines"] = sum(out.values())
    return out


def environment(args, env: dict[str, str]) -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = run_process(["git", "rev-parse", "HEAD"], env)
        commit = proc.stdout.decode().strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# Metrics


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least TAIL_BEYOND samples above it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100, ordered[-1]
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = -(-pct * n // 100)
    return pct, ordered[rank - 1]


def end_to_end(samples: list[Sample], setup: list[tuple[float, float]]) -> tuple[dict[str, float], dict]:
    """Calibrated end-to-end metrics, and the raw wall-clock figures beside them."""
    pct, tail = tail_percentile([s.calibrated_ms for s in samples])
    values = {
        "latency_p50_ms": statistics.median(s.calibrated_ms for s in samples),
        "latency_tail_ms": tail,
        "setup_s": statistics.median(raw * scale for raw, scale in setup),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
    }
    raw_pct, raw_tail = tail_percentile([s.latency_ms for s in samples])
    info = {
        "tail_percentile": pct,
        "samples": len(samples),
        "time_scale_median": statistics.median(s.scale for s in samples),
        "wall_latency_p50_ms": statistics.median(s.latency_ms for s in samples),
        f"wall_latency_p{raw_pct}_ms": raw_tail,
        "wall_setup_s": statistics.median(raw for raw, _ in setup),
    }
    return values, info


def per_layer(traced: list[Sample], untraced: list[Sample], distinct: list[str]) -> dict[str, float]:
    """Per-layer metrics: medians over traced operations, times calibrated like latency."""
    traces = [s.trace for s in traced]
    ms_per_ns = [s.scale / 1e6 for s in traced]
    values: dict[str, float] = {}

    def med(per_op) -> float:
        return statistics.median(per_op) if per_op else 0.0

    functions = sorted({fn for t in traces for fn in t["functions"]})
    for fn in functions:
        stats = [t["functions"].get(fn, {"calls": 0, "self_ns": 0}) for t in traces]
        values[f"{fn}.calls"] = med([s["calls"] for s in stats])
        values[f"{fn}.self_ms"] = med([s["self_ns"] * k for s, k in zip(stats, ms_per_ns)])
    for fn in distinct:
        ratios = []
        for t in traces:
            calls = t["functions"].get(fn, {"calls": 0})["calls"]
            ratios.append(t["distinct"].get(fn, 0) / calls if calls else 0.0)
        values[f"{fn}.distinct_ratio"] = med(ratios)
    layers = sorted({layer for t in traces for layer in t["layers_self_ns"]})
    for layer in layers:
        values[f"{layer}.self_ms"] = med([t["layers_self_ns"].get(layer, 0) * k for t, k in zip(traces, ms_per_ns)])
    values["trace.unattributed_ms"] = med(
        [(t["region_ns"] - sum(t["layers_self_ns"].values())) * k for t, k in zip(traces, ms_per_ns)])
    values["trace.spans_per_op"] = med([t["span_count"] for t in traces])
    values["trace.overhead_ratio"] = (
        med([s.calibrated_ms for s in traced]) / med([s.calibrated_ms for s in untraced]))
    values["obstruct.checks_computed"] = med([t["checks_computed"] for t in traces])
    computed = sum(t["checks_computed"] for t in traces)
    values["obstruct.reported_ratio"] = sum(t["checks_reported"] for t in traces) / computed if computed else 0.0
    return values


def load_metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def select(specs: list[dict], values: dict[str, float]) -> dict[str, dict]:
    # A listed per-layer metric with no value belongs to a function or module
    # that no longer runs: it reads 0.
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in specs}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"d4bench: no d4check package under {SRC}; run from a checkout root", file=sys.stderr)
        return 2

    specs = load_metric_specs()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    distinct = sorted(m["name"][: -len(".distinct_ratio")] for m in specs["per_layer"]
                      if m["name"].endswith(".distinct_ratio"))
    traced_run = args.trace == 1

    # Set-up. The self-test also compiles the bytecode caches, so the probes
    # and the timed loop start from the state an installed package is in.
    self_test_failures = gate_self_test(env)
    setup = setup_probes(env, args.workload)
    layer_values: dict[str, float] = {}
    if traced_run:
        layer_values.update(import_times(env))
        layer_values.update(source_lines())

    runner = Runner(args.workload, env, distinct if traced_run else None)
    rng = random.Random(args.seed)
    samples: list[Sample] = []
    deadline = clock() + args.seconds
    for op_id, op in enumerate(schedule(args.workload, rng)):
        if clock() >= deadline:
            break
        order = [True, False] if traced_run else [False]
        rng.shuffle(order)
        for traced in order:
            samples.append(runner.run(op_id, op, traced))

    failed = [s for s in samples if s.problems]
    untraced = [s for s in samples if not s.traced]
    e2e, e2e_info = end_to_end(untraced, setup)
    summary = {
        "attempted": len(samples),
        "failed": len(failed),
        "failed_ratio": len(failed) / len(samples),
        "gate_self_test": self_test_failures or "rejected every planted report",
        "end_to_end": e2e,
        **e2e_info,
        "first_failures": [{"op_id": s.op_id, "variant": s.variant, "problems": s.problems} for s in failed[:5]],
    }
    if traced_run:
        traced = [s for s in samples if s.traced and s.trace]
        layer_values.update(per_layer(traced, untraced, distinct))
        summary["tracing_overhead_ratio"] = layer_values["trace.overhead_ratio"]
        metrics = select(specs["per_layer"], layer_values)
    else:
        metrics = select(specs["end_to_end"], e2e)
    correct = not failed and not self_test_failures

    record = {"env": environment(args, env), "summary": summary, "metrics": metrics,
              "setup_probes": [{"wall_s": raw, "scale": scale} for raw, scale in setup],
              "ops": [{k: v for k, v in vars(s).items() if k != "trace"} for s in samples]}
    if traced_run:
        record["layers"] = layer_values
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if traced_run:
        spans = [span for s in samples if s.trace for span in s.trace.get("spans", [])]
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(
            {"columns": ["span_id", "parent_id", "op_id", "function", "start_ns", "duration_ns"],
             "spans": spans}))

    print(json.dumps({"env": record["env"]}))
    print(json.dumps({"summary": summary}))
    if traced_run:
        print(json.dumps({"layers": layer_values}))
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

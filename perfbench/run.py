"""fsig benchmark: run a workload's cases through the CLI and report metrics.

    python3 perfbench/run.py --workload ratio-colon --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository; `fsig` is imported from its `src/`.
The loop is closed with one client: one benchmark process starts one `fsig`
subprocess at a time (`--json`, per-case timeout) and the next case only once
the previous one has ended.  Every timed wall is rescaled to a reference
speed (see REF_NOMINAL_S); the raw walls are printed too.

--trace 0 (end-to-end, tracing off):
  setup_s      median wall of fresh interpreters that import fsig and parse
               every problem file of the workload, with no solving
  solve_s      median over the batches that fit in --seconds of the summed
               per-case subprocess walls (interpreter start included)
  peak_rss_mb  largest child max-RSS over all batches (os.wait4 rusage)
--trace 1 (per layer): the same cases in-process, each once untraced and
  once with spans around each layer's public functions (see tracer.py); the
  spans are written to .perfbench_out/ when the run ends.

A case fails when it times out (it is killed), exits with an unexpected code
(3 = resource cap or partial report), prints no JSON, or misses a pin.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs every workload in turn (keys "<workload>/<metric>").
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from cases import WORKLOADS, Case, check, seeded_batch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units
CASE_TIMEOUT_S = 60.0
DEADLINE_S = 160.0  # stop starting cases so the process ends within 180 s
SETUP_REPEATS = 7
SETUP_CODE = (
    "import sys, fsig, fsig.cli\n"
    "for path in sys.argv[1:]:\n"
    "    with open(path, encoding='utf-8') as handle:\n"
    "        fsig.cli.parse_problem_file(handle.read())\n"
)
START = time.perf_counter()
# On a shared 2-vCPU host the same case's wall varies by ~25% (quartile
# distance over median) as the host's load changes over seconds to minutes.
# Every timed wall is therefore rescaled by the speed of a fixed
# interpreter-bound reference loop, timed (median of REF_REPEATS) right before
# and right after it, which about halves that spread.  Reported seconds are
# seconds at the speed where one reference loop takes REF_NOMINAL_S, about the
# median speed of that host.
REF_ITERATIONS = 40_000
REF_REPEATS = 15
REF_NOMINAL_S = 0.006


def _remaining() -> float:
    return DEADLINE_S - (time.perf_counter() - START)


def _reference_loop() -> int:
    acc, table = 0, {}
    for i in range(REF_ITERATIONS):
        acc = (acc * 31 + i) % 1000003
        table[i & 1023] = acc
    return acc


class Speedometer:
    """Rescales walls to the nominal reference speed (see REF_NOMINAL_S)."""

    def __init__(self):
        self.last = self._measure()

    @staticmethod
    def _measure() -> float:
        times = []
        for _ in range(REF_REPEATS):
            start = time.perf_counter()
            _reference_loop()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def rescale(self, wall: float) -> float:
        before, self.last = self.last, self._measure()
        return wall * REF_NOMINAL_S / ((before + self.last) / 2)


# -- one subprocess -------------------------------------------------------

@dataclass
class Proc:
    wall: float
    code: Optional[int]  # None: killed at the timeout
    maxrss_kb: int
    stdout: str
    stderr: str


def spawn(argv: List[str], workdir: Path, timeout: float) -> Proc:
    """Run argv to completion (or kill it at `timeout`) and reap it with rusage."""
    out, err = workdir / "stdout", workdir / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    ready = []
    try:
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
        finally:
            os.close(pidfd)
    finally:
        if not ready:  # timed out or interrupted: never leave the child running
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status) if ready else None
    return Proc(wall, code, usage.ru_maxrss, out.read_text(errors="replace"),
                err.read_text(errors="replace"))


@dataclass
class Outcome:
    wall: float
    maxrss_kb: int
    failure: Optional[str]  # None when every check passed
    doc: Optional[dict]


def judge(case: Case, code: Optional[int], stdout: str, stderr: str) -> Tuple[Optional[str], Optional[dict]]:
    if code is None:
        return "timed out", None
    if code != 0:
        return f"exit {code}: {stderr.strip()[-200:]}", None
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "no JSON report on stdout", None
    bad = check(case, doc)
    return ("; ".join(bad) if bad else None), doc


def run_case(case: Case, problem: Path, workdir: Path, timeout: float) -> Outcome:
    argv = [sys.executable, "-m", "fsig.cli", str(problem), "--json", *case.args]
    proc = spawn(argv, workdir, timeout)
    failure, doc = judge(case, proc.code, proc.stdout, proc.stderr)
    return Outcome(proc.wall, proc.maxrss_kb, failure, doc)


def _diagnostics(doc: Optional[dict]) -> str:
    if not doc or doc.get("estimate_num") is None:
        return ""
    return (f"  [unpinned: estimate {doc['estimate_num']}/{doc['estimate_den']}, "
            f"error_envelope {doc['error_envelope']}]")


# -- workloads ----------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    incomplete: bool = False

    def record(self, name: str, failure: Optional[str]):
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            print(f"case failed: {name}: {failure}")


def write_problems(workload: str, seed: int, workdir: Path) -> List[Tuple[Case, Path]]:
    batch = []
    for i, (case, text) in enumerate(seeded_batch(workload, seed)):
        path = workdir / f"{i:02d}-{case.name}.fsig"
        path.write_text(text, encoding="utf-8")
        batch.append((case, path))
    return batch


def measure_setup(batch, workdir: Path, speed: Speedometer, tally: Tally) -> float:
    argv = [sys.executable, "-c", SETUP_CODE, *(str(path) for _, path in batch)]
    walls = []
    for i in range(SETUP_REPEATS + 1):  # the first run only warms the bytecode cache
        proc = spawn(argv, workdir, min(CASE_TIMEOUT_S, _remaining()))
        wall = speed.rescale(proc.wall)
        if proc.code != 0:
            tally.record("setup", f"exit {proc.code}: {proc.stderr.strip()[-200:]}")
            return wall
        if i:
            walls.append(wall)
    return statistics.median(walls)


def run_untraced(workload: str, batch, workdir: Path, seconds: float, tally: Tally) -> Dict[str, float]:
    speed = Speedometer()
    setup_s = measure_setup(batch, workdir, speed, tally)
    walls: List[float] = []
    raw_walls: List[float] = []
    peak_kb = 0
    began = time.perf_counter()
    while True:
        total = raw = 0.0
        for case, path in batch:
            if _remaining() <= 1.0:
                tally.incomplete = True
                break
            got = run_case(case, path, workdir, min(CASE_TIMEOUT_S, _remaining()))
            tally.record(case.name, got.failure)
            total += speed.rescale(got.wall)
            raw += got.wall
            peak_kb = max(peak_kb, got.maxrss_kb)
            if not walls:
                print(f"{workload:12s} {case.name:18s} {got.wall:8.3f} s "
                      f"{got.maxrss_kb / 1024:7.1f} MB{_diagnostics(got.doc)}")
        if tally.incomplete:
            break
        walls.append(total)
        raw_walls.append(raw)
        elapsed = time.perf_counter() - began
        per_batch = elapsed / len(walls)
        if elapsed + per_batch > seconds or _remaining() < 2 * per_batch:
            break
    print(f"{workload}: {len(walls)} batches, rescaled " + " ".join(f"{w:.3f}" for w in walls)
          + " s, raw walls " + " ".join(f"{w:.3f}" for w in raw_walls) + " s")
    return {
        "solve_s": statistics.median(walls or [total]),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024,
    }


class CaseTimeout(Exception):
    pass


@contextlib.contextmanager
def alarm(seconds: float):
    def fire(signum, frame):
        raise CaseTimeout()

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.01))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_inprocess(case: Case, path: Path, tally: Tally) -> float:
    from fsig import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with alarm(min(CASE_TIMEOUT_S, _remaining())), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code: Optional[int] = cli.main([str(path), "--json", *case.args])
    except CaseTimeout:
        code = None
    except Exception as exc:  # a crash inside fsig is this case's failure
        code, stderr = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    failure, _ = judge(case, code, stdout.getvalue(), stderr.getvalue())
    tally.record(case.name, failure)
    return wall


def run_traced(workload: str, seed: int, batch, names: List[str], tally: Tally) -> Dict[str, float]:
    from tracer import Tracer

    sys.path.insert(0, str(SRC))
    import fsig.cli  # noqa: F401  (imports are not part of either timed pass)

    # Each case runs untraced and traced back to back, alternating which goes
    # first, so both passes see the same host speed; every second reported
    # here is rescaled like solve_s.
    speed = Speedometer()
    tracer = Tracer()
    untraced = traced = 0.0
    factor: Dict[int, float] = {}
    for i, (case, path) in enumerate(batch):
        for traced_pass in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_pass:
                tracer.begin_case(i)
                with tracer:
                    wall = run_inprocess(case, path, tally)
                scaled = speed.rescale(wall)
                factor[i] = scaled / wall
                traced += scaled
            else:
                untraced += speed.rescale(run_inprocess(case, path, tally))
    OUT.mkdir(exist_ok=True)
    tracer.dump(str(OUT / f"trace-{workload}-seed{seed}.json"), [c.name for c, _ in batch])

    metrics: Dict[str, float] = {name: 0.0 if name.endswith("_s") else 0 for name in names}
    metrics.update(tracer.counters)
    attributed = 0.0
    for (i, span), secs in tracer.self_times().items():
        metrics[span + "_s"] += secs * factor[i]
        attributed += secs * factor[i]
    metrics["trace.solve_s"] = traced
    metrics["trace.untraced_solve_s"] = untraced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.unattributed_s"] = traced - attributed
    for case_index, diag in sorted(tracer.diagnostics.items()):
        print(f"{workload:12s} {batch[case_index][0].name:18s} [unpinned fit diagnostics: {diag}]")
    for name in names:
        if name.endswith("_s") and not name.startswith("trace."):
            print(f"{workload:12s} {name:32s} {metrics[name]:9.4f} s "
                  f"{100 * metrics[name] / traced:5.1f}% of traced wall")
    return {name: metrics[name] for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fsig" / "cli.py").is_file():
        print(f"perfbench: no fsig sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tally = Tally()
    metrics: Dict[str, dict] = {}
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        for workload in workloads:
            batch = write_problems(workload, args.seed, workdir)
            if args.trace:
                values = run_traced(workload, args.seed, batch, names, tally)
            else:
                values = run_untraced(workload, batch, workdir, args.seconds, tally)
            for name, value in values.items():
                key = name if len(workloads) == 1 else f"{workload}/{name}"
                metrics[key] = {"value": value, "unit": units[name]}
                print(f"{key} = {value:.6g} {units[name]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = max(tally.attempted, 1)
    print(f"failed_frac = {tally.failed / attempted:.6g} ({tally.failed}/{attempted} cases)")
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.incomplete and tally.attempted > 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

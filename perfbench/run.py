"""flaglab benchmark: CLI time to verdict, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs the workload's commands (workloads.py) through flaglab.cli.main, one
fresh process per command, again and again until S seconds have passed,
and checks every output. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the workload runs);
--trace 1 instead runs the workload with spans recorded around each
layer's functions (spans.py), at least twice, plus once untraced for the
tracing overhead, and reports the per-layer metrics.

The program is imported from src/ next to this directory; nothing is
installed. Work files go to perfbench/_work/ and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COMMAND_TIMEOUT_S = 170.0
SETUP_PROBES = 3  # extra set-up-only processes per command in an untraced run
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Process:
    """What the parent saw of one command process."""

    setup_s: float | None
    main_s: float
    cpu_s: float
    rss_mb: float
    rc: object
    spans: list = field(default_factory=list)
    env: dict | None = None
    error: str = ""
    cal_s: list = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Factor from this process's seconds to reference seconds."""
        return calibrate.REFERENCE_S / statistics.mean(self.cal_s)


@dataclass
class Iteration:
    """One run of a workload's command list. Times in reference seconds."""

    wall_s: float
    cpu_s: float
    raw_wall_s: float
    raw_cpu_s: float
    peak_rss_mb: float
    setup: list  # per command
    problems: list
    layers: dict | None = None


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FLAGLAB_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


class Calibrator:
    """The calibrate.py helper process, which times the kernel on request."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "calibrate.py")], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        return float(line)

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def spawn(cmd: workloads.Command, work: str, env: dict, cal: Calibrator, *,
          setup_only=False, trace=False, record_env=False) -> Process:
    """Run child.py for one command and reap it with its resource usage; the
    calibration kernel is timed right before and right after."""
    os.makedirs(work, exist_ok=True)
    result_path = os.path.join(work, "result.json")
    spans_path = os.path.join(work, "spans.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--result", result_path]
    if cmd.rep:
        argv += ["--rep", cmd.rep]
    if setup_only:
        argv.append("--setup-only")
    if record_env:
        argv.append("--env")
    if trace:
        argv += ["--spans", spans_path]
    argv += ["--", *cmd.argv, "--out", os.path.join(work, "out")]
    cal_s = [cal.measure()]
    with open(os.path.join(work, "stdout.txt"), "wb") as out, \
            open(os.path.join(work, "stderr.txt"), "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        try:
            status, usage = _reap(proc, start + COMMAND_TIMEOUT_S)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    cal_s.append(cal.measure())
    cpu = usage.ru_utime + usage.ru_stime
    rss = usage.ru_maxrss / 1024.0
    try:
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
    except (OSError, ValueError):
        tail = _tail(os.path.join(work, "stderr.txt"))
        return Process(None, 0.0, cpu, rss, None, cal_s=cal_s,
                       error=f"process exited with status {status}: {tail}")
    got = Process(res["ready"] - start, res.get("main_s", 0.0), cpu, rss,
                  res.get("rc"), env=res.get("env"), cal_s=cal_s)
    if "raised" in res:
        got.error = res["raised"]
    if res.get("missing_targets"):
        print(f"note: not traced, missing: {res['missing_targets']}", file=sys.stderr)
    if trace and os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as fh:
            got.spans = json.load(fh)
    return got


def _reap(proc: subprocess.Popen, deadline: float):
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return status, usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return status, usage
        time.sleep(0.005)


def _tail(path: str, lines: int = 5) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return " | ".join(fh.read().strip().splitlines()[-lines:])
    except OSError:
        return ""


def run_workload(wl: workloads.Workload, seed: int, work: str, env: dict, cal: Calibrator,
                 trace: bool) -> Iteration:
    os.makedirs(work)
    if wl.uses_cache:
        env = dict(env, FLAGLAB_CACHE_DIR=os.path.join(work, "cache"))
    procs, problems = [], []
    for i, cmd in enumerate(wl.commands(seed)):
        cdir = os.path.join(work, f"cmd{i}")
        p = spawn(cmd, cdir, env, cal, trace=trace)
        procs.append(p)
        found = [p.error] if p.error else workloads.check(cmd, p.rc, os.path.join(cdir, "out"))
        problems += [f"{' '.join(cmd.argv)}: {msg}" for msg in found]
    layers = None
    if trace:
        layers = spans.layer_metrics(
            [(c.tag, p.spans, p.scale) for c, p in zip(wl.commands(seed), procs)]
        )
    return Iteration(
        wall_s=sum(p.main_s * p.scale for p in procs),
        cpu_s=sum(p.cpu_s * p.scale for p in procs),
        raw_wall_s=sum(p.main_s for p in procs),
        raw_cpu_s=sum(p.cpu_s for p in procs),
        peak_rss_mb=max(p.rss_mb for p in procs),
        setup=[None if p.setup_s is None else p.setup_s * p.scale for p in procs],
        problems=problems,
        layers=layers,
    )


def environment(record: dict | None) -> dict:
    lines = 0
    pkg = os.path.join(SRC, "flaglab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": nproc(),
        "thread_cap": nproc(),
        "thread_vars": list(THREAD_VARS),
        **(record or {}),
        "commit": commit,
        "src_flaglab_lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "flaglab", "cli.py")):
        print(f"error: no flaglab sources at {SRC}", file=sys.stderr)
        return 2

    # a terminated benchmark still kills and reaps its command process (spawn's finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    wl = workloads.WORKLOADS[args.workload]
    env = child_env()
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=os.path.join(HERE, "_work"))
    cal = Calibrator(env)
    try:
        report = measure(wl, args, env, cal, work)
    finally:
        cal.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0


def measure(wl: workloads.Workload, args, env: dict, cal: Calibrator, work: str) -> dict:
    commands = wl.commands(args.seed)
    setup = [[] for _ in commands]
    attempted = failed = 0
    record = None
    for k in range(1 if args.trace else SETUP_PROBES):
        for i, cmd in enumerate(commands):
            p = spawn(cmd, os.path.join(work, f"probe{k}-{i}"), env, cal, setup_only=True,
                      record_env=record is None)
            record = record or p.env
            if p.setup_s is None:
                attempted += 1
                failed += 1
                print(f"FAIL set-up of {' '.join(cmd.argv)}: {p.error}")
            else:
                setup[i].append(p.setup_s * p.scale)
    print("env " + json.dumps(environment(record), sort_keys=True))

    runs: list[Iteration] = []
    start = time.monotonic()
    while len(runs) < (2 if args.trace else 1) or time.monotonic() - start < args.seconds:
        runs.append(run_workload(wl, args.seed, os.path.join(work, f"run{len(runs)}"), env, cal,
                                 trace=bool(args.trace)))
    plain = None
    if args.trace:
        plain = run_workload(wl, args.seed, os.path.join(work, "plain"), env, cal, trace=False)
    for it in runs + ([plain] if plain else []):
        attempted += 1
        failed += bool(it.problems)
        for i, s in enumerate(it.setup):
            if s is not None:
                setup[i].append(s)
        print(f"run wall_s={it.wall_s:.4f} cpu_s={it.cpu_s:.4f} "
              f"(raw {it.raw_wall_s:.4f} / {it.raw_cpu_s:.4f}) "
              f"peak_rss_mb={it.peak_rss_mb:.1f} {'FAIL' if it.problems else 'ok'}")
        for msg in it.problems:
            print(f"FAIL {msg}")

    if args.trace:
        traced_wall = statistics.median(r.wall_s for r in runs)
        layers, unstable = spans.combine_runs([r.layers for r in runs], traced_wall, plain.wall_s)
        for msg in unstable:
            print(f"unstable count {msg}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in spans.PER_LAYER.items()}
    else:
        values = {
            "wall_s": statistics.median(r.wall_s for r in runs),
            "setup_s": sum(statistics.median(s) for s in setup if s),
            "cpu_s": statistics.median(r.cpu_s for r in runs),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(f"failed_frac={failed / attempted:.4f} ({failed} of {attempted} workload runs)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the cpd command line, end to end and per layer.

    python3 perfbench/run.py --workload synth-ppf --seed 1 --seconds 40 --trace 0

Every sample runs ``cpd.cli.main(argv)`` once in a fresh interpreter
(``child.py``), one sample at a time: a closed loop with one client.  Each
sample's output is checked against the workload's reference.  Samples repeat
while the next one is expected to end within ``--seconds``; at least one
runs.  With ``--trace 0`` every sample is followed by one run of the fixed
reference computation (``reference.py``) and one interpreter set-up, and the
run prints the end-to-end metrics: sample times as multiples of the
reference time measured next to them, peak RSS and set-up time.  With
``--trace 1`` it alternates untraced and traced samples and prints the
per-layer metrics.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in turn and prints a table.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import dense  # noqa: E402
from shims import layer_metrics  # noqa: E402

MEM_CAP_MB = 2048        # RLIMIT_AS of every sample
SAMPLE_LIMIT_S = 150     # wall and CPU limit of one sample
RUN_CAP_S = 170          # no sample may run past this point of the run

WORKLOADS = ("synth-ppf", "explore-ppf", "synth-dense")

# `cpd synth` on PPF(1,[2]) at the seed commit
PPF_GUARDS = {
    "SchOper_1": "PC_1 = 3 \\/ TPM = 1 /\\ PC_1 != 1",
    "OpStart_1_1": "CPM = 1 /\\ MS_1 = 3",
    "OpStart_1_2": "CPM = 1 /\\ MS_1 = 3",
    "Stb2Run": "TPM = 2 /\\ MS_1 != 3 /\\ MO_1_1 = 1 /\\ MO_1_2 = 1",
    "Run2Stb": "TPM = 1 \\/ MS_1 = 3",
}
EXPLORE_PPF_COUNTS = "states 576 transitions 5280 marked 1"

END_TO_END_UNITS = {"verdict_vs_ref": "x", "cpu_vs_ref": "x", "setup_s": "s", "peak_rss_mb": "MB"}


class OutputError(Exception):
    """The CLI's output differs from the workload's reference."""


def _synth_payload(stdout: str, explored: int) -> dict:
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise OutputError(f"synth output is not JSON: {exc}") from None
    verdicts = payload.get("verification", {})
    if not verdicts or not all(verdicts.values()):
        raise OutputError(f"verification failed: {verdicts}")
    got = payload.get("report", {}).get("explored_states")
    if got != explored:
        raise OutputError(f"explored_states {got}, expected {explored}")
    return payload


def _literals(guards: dict[str, str]) -> int:
    return sum(dense.parse_guard(text)[1] for text in guards.values())


@dataclass
class Workload:
    """The CLI arguments of one workload and the check of its output.

    ``check`` raises OutputError on a wrong output and returns the number of
    guard literals (0 where no guard is emitted)."""

    argv: list[str]
    check: Callable[[str], int]


def prepare(name: str, seed: int, workdir: Path) -> Workload:
    if name == "synth-ppf":
        def check(stdout: str) -> int:
            payload = _synth_payload(stdout, 288)
            if payload.get("supervised_states") != 96:
                raise OutputError(f"supervised_states {payload.get('supervised_states')}, expected 96")
            guards = payload["report"]["guards"]
            if guards != PPF_GUARDS:
                raise OutputError(f"guards differ from the reference: {guards}")
            return _literals(guards)

        return Workload(["synth", "--format", "json", str(HERE / "inputs" / "ppf_1_2.cpd")], check)

    if name == "explore-ppf":
        def check(stdout: str) -> int:
            if stdout.strip() != EXPLORE_PPF_COUNTS:
                raise OutputError(f"explore printed {stdout.strip()!r}")
            return 0

        return Workload(["explore", str(HERE / "inputs" / "ppf_1_3.cpd")], check)

    if name == "synth-dense":
        cubes = dense.dense_cubes(seed)
        spec = workdir / f"dense_{seed}.cpd"
        spec.write_text(dense.dense_text(cubes), encoding="utf-8")

        def check(stdout: str) -> int:
            payload = _synth_payload(stdout, 81)
            guards = payload["report"]["guards"]
            if sorted(guards) != sorted(dense.COMMANDS):
                raise OutputError(f"guards for {sorted(guards)}, expected {list(dense.COMMANDS)}")
            for command, f in zip(dense.COMMANDS, cubes):
                if not dense.guard_matches(guards[command], f):
                    raise OutputError(f"guard of {command} {guards[command]!r} differs from {f}")
            return _literals(guards)

        return Workload(["synth", "--format", "json", str(spec)], check)

    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Sample:
    traced: bool
    error: str | None = None
    record: dict = field(default_factory=dict)
    literals: int = 0


def child_env(seed: int) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # hash order is part of the input: fixed per seed, different across seeds
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    return env


def run_limited(cmd: list[str], env: dict, cwd: Path, limit_s: float,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) -> tuple[int, bool]:
    """Run cmd to its end or kill it after limit_s; return the exit code and
    whether it was killed.  A blocking wait with a killer thread, rather than
    a polling wait with a timeout, so that the parent sees the exit at once."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env, cwd=cwd)
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        proc.kill()

    timer = threading.Timer(limit_s, kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
        timer.join()
        if proc.poll() is None:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
    return code, killed.is_set()


def run_sample(work: Workload, workdir: Path, env: dict, traced: bool, limit_s: float) -> Sample:
    result = workdir / "result.json"
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(result), str(MEM_CAP_MB),
           str(SAMPLE_LIMIT_S), "1" if traced else "0", "--", *work.argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        code, killed = run_limited(cmd, env, workdir, limit_s, out, err)
    sample = Sample(traced)
    if killed:
        sample.error = f"time limit of {limit_s:.0f} s"
    elif code != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
        sample.error = f"exit code {code}: {' '.join(tail)}"
    elif not result.exists():
        sample.error = "no measurement written"
    else:
        sample.record = json.loads(result.read_text(encoding="utf-8"))
        try:
            sample.literals = work.check(out_path.read_text(encoding="utf-8"))
        except (OutputError, ValueError) as exc:  # ValueError: a guard the bench cannot read
            sample.error = str(exc)
    return sample


def setup_seconds(env: dict, workdir: Path) -> float:
    """Wall time of a fresh interpreter that only imports cpd.cli."""
    start = time.perf_counter()
    code, killed = run_limited([sys.executable, "-c", "import cpd.cli"], env, workdir, 60)
    elapsed = time.perf_counter() - start
    if code != 0 or killed:
        raise SystemExit(f"perfbench: 'import cpd.cli' failed (exit code {code})")
    return elapsed


def reference_seconds(workdir: Path) -> dict:
    """Wall and CPU time of one run of the reference computation."""
    result = workdir / "reference.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0")  # the same work in every run
    code, killed = run_limited([sys.executable, str(HERE / "reference.py"), str(result)],
                               env, workdir, 60)
    if code != 0 or killed or not result.exists():
        raise SystemExit(f"perfbench: the reference computation failed (exit code {code})")
    return json.loads(result.read_text(encoding="utf-8"))


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "loadavg_at_start": os.getloadavg(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    workdir = HERE / ".work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env_info = environment()
    work = prepare(name, seed, workdir)
    env = child_env(seed)
    references: list[dict] = []
    setups: list[float] = []
    if not trace:
        setup_seconds(env, workdir)  # untimed: writes the byte code
        references.append(reference_seconds(workdir))

    samples: list[Sample] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            limit = min(SAMPLE_LIMIT_S, deadline - time.perf_counter())
            if limit < 1:
                break
            samples.append(run_sample(work, workdir, env, traced, limit))
        else:  # the round ran all its samples
            if not trace:
                references.append(reference_seconds(workdir))
                setups.append(setup_seconds(env, workdir))
        now = time.perf_counter()
        if now + (now - round_start) - start > seconds or deadline - now < 1:
            break

    failures = [s.error for s in samples if s.error]
    measured = [s for s in samples if s.record]
    metrics: dict[str, float] = {}
    if trace:
        traced = [s for s in measured if s.traced]
        plain = [s for s in measured if not s.traced]
        per_sample = [layer_metrics(s.record["spans"], s.record["verdict_s"]) for s in traced]
        for key in (per_sample[0] if per_sample else {}):
            metrics[key] = statistics.median(m[key] for m in per_sample)
        if traced and plain:
            metrics["trace_overhead_s"] = (statistics.median(s.record["verdict_s"] for s in traced)
                                           - statistics.median(s.record["verdict_s"] for s in plain))
        if measured:
            metrics["synthesis.guard_literals"] = statistics.median(s.literals for s in measured)
        units = {k: _layer_unit(k) for k in metrics}
        raw = {}
    else:
        # sample i ran between reference runs i and i + 1: its time is read
        # against their mean, and the run reports the median of those ratios
        ratios: dict[str, list[float]] = {"verdict_vs_ref": [], "cpu_vs_ref": []}
        for s, before, after in zip(samples, references, references[1:]):
            if s.record:
                ratios["verdict_vs_ref"].append(2 * s.record["verdict_s"] / (before["wall_s"] + after["wall_s"]))
                ratios["cpu_vs_ref"].append(2 * s.record["cpu_s"] / (before["cpu_s"] + after["cpu_s"]))
        for key, values in ratios.items():
            if values:
                metrics[key] = statistics.median(values)
        if measured:
            metrics["peak_rss_mb"] = statistics.median(s.record["peak_rss_mb"] for s in measured)
        if setups:
            metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
        raw = {
            "verdict_s": statistics.median(s.record["verdict_s"] for s in measured) if measured else None,
            "cpu_s": statistics.median(s.record["cpu_s"] for s in measured) if measured else None,
            "reference_s": statistics.median(r["wall_s"] for r in references),
        }

    if trace and per_sample:
        (workdir / "trace.json").write_text(json.dumps(traced[-1].record["spans"], indent=1))
    return {
        "workload": name,
        "seed": seed,
        "samples": len(samples),
        "sample_verdict_s": [s.record.get("verdict_s") for s in samples],
        "median_seconds": raw,
        "failures": failures,
        "env": env_info,
        "correct": not failures and bool(measured),
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so run_sample stops its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "cpd" / "cli.py").is_file():
        print(f"perfbench: no cpd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        deadline = time.perf_counter() + RUN_CAP_S
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        results.append(result)
        print(json.dumps({k: result[k] for k in ("workload", "seed", "samples", "sample_verdict_s",
                                                 "median_seconds", "failures", "env")}))
        for key, m in result["metrics"].items():
            print(f"  {name:12} {key:34} {m['value']:>14.6g} {m['unit']}")
        print(f"  {name:12} failed {result['failed']} of {result['attempted']} attempted")

    if len(results) == 1:
        final = {k: results[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

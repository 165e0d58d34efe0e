"""Benchmark for the euvq command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check [--seconds S]

Run from the repository root; the program is imported from ``src``. Each
workload (see ``workloads.py``) is a list of ``euvq`` commands, run as
sequential child processes, never concurrently. ``--trace 0`` measures the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
run. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a run counts as
failed when it exits non-zero, misses its correctness gate, or differs by a
byte from the first run of the same command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
NPROC = len(os.sched_getaffinity(0))
PINNED = {"OPENBLAS_NUM_THREADS": str(NPROC), "OMP_NUM_THREADS": str(NPROC),
          "PYTHONHASHSEED": "0", "EUVQ_LOG": "warning"}
# What the installed ``euvq`` console script runs.
ENTRY = "import sys; from euvq.cli import main; sys.exit(main())"
CHILD_LIMIT_S = 150.0
MIN_ROUNDS = 3
WARM_SHARE = 0.25   # warm seconds per round, as a share of the round's cold pass


class Tally:
    """Runs attempted and failed; the first output of each command is the reference."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self._first: dict[int, str] = {}

    def record(self, index: int, code: int, output: bytes | None = None,
               digest: str | None = None) -> None:
        """Count one run of command ``index``; ``output`` is required on its first run."""
        import workloads

        self.attempted += 1
        digest = digest or hashlib.sha256(output).hexdigest()
        problem = None
        if code != 0:
            problem = f"exit code {code}"
        elif index not in self._first:
            self._first[index] = digest
            try:
                self.workload.gates[index](output)
            except (workloads.GateFailure, ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"gate: {exc!r}"  # a malformed output misses its gate too
        elif digest != self._first[index]:
            problem = "output differs from the first run"
        if problem:
            argv = " ".join(self.workload.commands[index])
            self.failures.append(f"euvq {argv}: {problem}")

    def record_first(self, first: dict) -> None:
        """Count the untimed first pass of an in-process child."""
        for index, (code, text) in enumerate(zip(first["codes"], first["outputs"])):
            self.record(index, code, text.encode())

    def record_passes(self, reply: dict) -> None:
        """Count the timed passes of an in-process child, known by output digest."""
        for codes, digests in reply["passes"]:
            for index, (code, digest) in enumerate(zip(codes, digests)):
                self.record(index, code, digest=digest)


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), **PINNED)


def run_cold(argv: list[str], env: dict, cwd: Path) -> tuple[float, int, bytes, int]:
    """One command in a fresh interpreter: (wall s, exit code, stdout, ru_maxrss KiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], cwd=cwd, env=env,
                            stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    return time.perf_counter() - start, proc.returncode, out, usage.ru_maxrss


def run_child(args: list[str], env: dict, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=CHILD_LIMIT_S)


class InProcess:
    """A child running ``inproc.py``: one untimed pass at start, timed passes on request."""

    def __init__(self, mode: str, workload, env: dict, cwd: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "inproc.py"), mode, json.dumps(workload.commands)],
            cwd=cwd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(CHILD_LIMIT_S, self.proc.kill)
        self.timer.start()
        self.first = self._reply()

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"inproc.py exited with {self.proc.returncode}")
        return json.loads(line)

    def passes(self, seconds: float, min_passes: int = 1, traced: bool = True) -> dict:
        request = {"seconds": seconds, "min_passes": min_passes, "traced": traced}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.timer.cancel()
        self.proc.stdout.close()


def time_import(env: dict, cwd: Path) -> float:
    start = time.perf_counter()
    proc = run_child(["-c", "import euvq.cli"], env, cwd)
    if proc.returncode != 0:
        raise RuntimeError(f"importing euvq.cli failed:\n{proc.stderr}")
    return time.perf_counter() - start


def measure(workload, seconds: float, env: dict, cwd: Path) -> tuple[dict, dict, Tally]:
    """End-to-end metrics: (metrics, sample counts, tally).

    Rounds of one timed import, one cold pass and warm passes repeat for
    ``seconds``, so each metric samples the whole run rather than one phase
    of it; a slow spell on the machine then moves fewer samples of each.
    """
    tally = Tally(workload)
    # Starting the warm process fills the bytecode and file caches before the
    # first timed import; users do not pay that on every run.
    warm = InProcess("warm", workload, env, cwd)
    tally.record_first(warm.first)
    samples = {"setup_s": [], "cold_s_p50": [], "warm_s_p50": []}
    rss = []
    start = time.perf_counter()
    try:
        while True:
            round_start = time.perf_counter()
            samples["setup_s"].append(time_import(env, cwd))
            total = 0.0
            for index, argv in enumerate(workload.commands):
                elapsed, code, out, maxrss = run_cold(argv, env, cwd)
                total += elapsed
                rss.append(maxrss)
                tally.record(index, code, out)
            samples["cold_s_p50"].append(total)
            reply = warm.passes(total * WARM_SHARE)
            samples["warm_s_p50"] += reply["times"]
            tally.record_passes(reply)
            now = time.perf_counter()
            if (len(samples["cold_s_p50"]) >= MIN_ROUNDS
                    and now - start + (now - round_start) > seconds):
                break
    finally:
        warm.close()
    metrics = {key: (statistics.median(values), "s") for key, values in samples.items()}
    metrics["peak_rss_mb"] = (max(rss) / 1024.0, "MB")
    counts = {key: len(values) for key, values in samples.items()}
    counts["peak_rss_mb"] = len(rss)
    return metrics, counts, tally


def import_times(report: str) -> dict[str, float]:
    """numpy and scipy cumulative and euvq self import time from ``-X importtime``.

    A package's time sums its entries not nested in an entry of the same
    package; the report lists each module after the modules it imported.
    """
    totals = {"numpy": 0.0, "scipy": 0.0}
    euvq_self = 0.0
    entries = []
    for line in report.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3 or "self" in fields[0]:
            continue
        raw = fields[2]
        level = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((level, raw.strip(), int(fields[0].split(":")[1]), int(fields[1])))
    stack: list[tuple[int, str]] = []
    for level, name, self_us, cumulative_us in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        package = name.split(".")[0]
        if package in totals and (not stack or stack[-1][1] != package):
            totals[package] += cumulative_us / 1e6
        if package == "euvq":
            euvq_self += self_us / 1e6
        stack.append((level, package))
    return {"import.numpy_s": totals["numpy"], "import.scipy_s": totals["scipy"],
            "import.euvq_s": euvq_self}


def trace(workload, seconds: float, env: dict, cwd: Path) -> tuple[dict, Tally]:
    """Per-layer metrics from one traced run in a fresh process."""
    tally = Tally(workload)
    time_import(env, cwd)  # fills the bytecode and file caches first
    proc = run_child(["-X", "importtime", "-c", "import euvq.cli"], env, cwd)
    metrics = import_times(proc.stderr)
    child = InProcess("trace", workload, env, cwd)
    try:
        tally.record_first(child.first)
        traced = child.passes(seconds / 4, min_passes=2)
        untraced = child.passes(seconds / 4, min_passes=2, traced=False)
    finally:
        child.close()
    for reply in (traced, untraced):
        tally.record_passes(reply)
    metrics.update(child.first["metrics"])
    metrics["trace.overhead_s"] = (statistics.median(traced["times"])
                                   - statistics.median(untraced["times"]))
    sys.stderr.write("span                                      calls   incl_s    self_s\n")
    for name, calls, inclusive, own in child.first["self_times"]:
        sys.stderr.write(f"{name:<40} {calls:>7} {inclusive:8.4f} {own:9.4f}\n")
    return metrics, tally


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("success_p", "edge_density")) else "count"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": NPROC, "commit": commit(), **PINNED}


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, traced: bool, work: Path):
    import workloads

    env = child_env()
    workload = workloads.prepare(name, seed, work)
    if traced:
        metrics, tally = trace(workload, seconds, env, work)
        return {key: (value, layer_unit(key)) for key, value in metrics.items()}, {}, tally
    return measure(workload, seconds, env, work)


def self_check(seconds: float, work: Path) -> int:
    """Every workload once on a second seed with no failed run, and identical
    counters from two traced runs."""
    import workloads

    ok = True
    for name in workloads.WORKLOADS:
        _, _, tally = run_workload(name, 2, seconds, False, work)
        counters = []
        for _ in range(2):
            metrics, _, traced = run_workload(name, 1, seconds, True, work)
            counters.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
            tally.failures += traced.failures
        same = counters[0] == counters[1]
        ok &= same and not tally.failures
        print(f"{name}: failed runs {len(tally.failures)}, traced counters "
              f"{'identical' if same else 'DIFFER'}: {json.dumps(counters[0], sort_keys=True)}")
        for failure in tally.failures:
            print(f"  {failure}")
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="cli-light")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "euvq" / "cli.py").is_file():
        print(f"error: no euvq sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED)  # before numpy loads in this process
    sys.path.insert(0, str(SRC))
    import workloads

    if not args.self_check and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        if args.self_check:
            return self_check(args.seconds, work)
        # numpy generators and the CLI's --seed take non-negative seeds
        metrics, counts, tally = run_workload(args.workload, args.seed % 2**32, args.seconds,
                                               bool(args.trace), work)
    failed = len(tally.failures)
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("env " + json.dumps(environment(), sort_keys=True))
    for key, (value, unit) in metrics.items():
        count = f"  (n={counts[key]})" if key in counts else ""
        print(f"{key:<36} {value:14.6g} {unit}{count}")
    print(f"{'failed_ratio':<36} {failed / tally.attempted:14.6g} (of {tally.attempted} runs)")
    print(json.dumps({
        "correct": failed == 0, "attempted": tally.attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

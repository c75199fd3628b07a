"""switchcert benchmark: one workload, measured through ``switchcert.cli.main``.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

The inputs are generated from ``--seed`` (see ``workloads``) into a scratch
directory inside the checkout, then one closed-loop client runs the
workload's CLI command again and again until ``--seconds`` have passed.
Every command runs in a fresh interpreter (``worker.py``) and starts only
after the previous one finished, which is how the tool's single user drives
it.  Every output directory is checked for correctness and compared byte for
byte with the first one, ``duration_seconds`` masked.

With ``--trace 0`` the end-to-end metrics are medians over the commands:

* ``wall_s``: the ``main`` call inside the process, after import;
* ``setup_s``: interpreter start to ``switchcert.cli`` imported;
* ``peak_rss_mb``: the command process's peak resident set size.

With ``--trace 1`` untraced and traced commands alternate and the per-layer
metrics come from the traced ones (span self times, call counts and
counters, see ``tracing``), plus ``trace.overhead_s`` (traced minus
untraced median ``wall_s``) and import times from a ``-X importtime`` child.

The last line of standard output is the JSON result; the lines before it
give the error rate, each metric's median, quartiles and sample count (and
``cpu_s``, the CPU time of ``main``: wall minus CPU shows time the machine
took away) and the environment.
``--results FILE`` also appends the result, the samples and the environment
as one JSON line for ``compare.py``.  ``--size smoke`` shrinks every
workload for the benchmark's own tests.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402
from compare import quartiles  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"
WORK_ROOT = ROOT / ".perfbench_work"

# A run must end well inside the three minutes it is allowed.
DEADLINE_S = 170.0
MIN_REPEATS = 2  # the determinism check needs two commands
# Single-threaded BLAS and OpenMP keep timings steady on a shared machine.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = "1"
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
IMPORT_MODULES = {"import.switchcert_s": "switchcert", "import.walker_s": "switchcert.walker"}
MASKED = re.compile(rb'("duration_seconds":\s*)[^,\n}]+')


def per_layer_names() -> list[str]:
    return [*tracing.METRIC_NAMES, *IMPORT_MODULES, "trace.overhead_s"]


def unit_of(name: str) -> str:
    if name.endswith("_ns_per_episode_step"):
        return "ns"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


class Failure(Exception):
    """The benchmark cannot run here; it prints no result."""


def child_env() -> dict:
    # The program sees only the generated inputs: no SWITCHCERT_* defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SWITCHCERT_")}
    env.update({name: THREADS for name in THREAD_VARIABLES})
    return env


def snapshot(out: Path) -> dict[str, bytes]:
    """Every output file's bytes, the manifest's wall-clock field masked."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "run_manifest.json":
                data = MASKED.sub(rb"\1null", data)
            files[str(path.relative_to(out))] = data
    return files


class Client:
    """The closed-loop client: runs commands one after another and checks them."""

    def __init__(self, workload: str, prepared, work: Path, deadline: float):
        self.check = workloads.WORKLOADS[workload].check
        self.prepared = prepared
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: dict[str, bytes] | None = None

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"command {self.attempted}: {message}")

    def invoke(self, trace: bool) -> dict | None:
        """Run the workload's command once; return the worker's report."""
        index = self.attempted
        self.attempted += 1
        out = Path("out") / str(index)
        command = [sys.executable, str(WORKER), str(SRC), "1" if trace else "0",
                   *self.prepared.argv, "--out-dir", str(out)]
        started = time.monotonic()
        try:
            proc = subprocess.run(command, cwd=self.work, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            self._fail("timed out")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self._fail(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return None
        report = json.loads(lines[-1])
        report["setup_s"] = report["imported"] - started
        out_dir = self.work / out
        try:
            self._verify(report["exit_code"], out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return report

    def _verify(self, exit_code: int, out_dir: Path) -> None:
        if exit_code != 0:
            self._fail(f"switchcert exited {exit_code}")
            return
        try:
            problems = self.check(out_dir, self.prepared.expect)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        files = snapshot(out_dir)
        if self.reference is None:
            self.reference = files
        elif files != self.reference:
            differing = sorted(k for k in files.keys() | self.reference.keys()
                               if files.get(k) != self.reference.get(k))
            problems.append(f"outputs differ from the first command's: {differing}")
        if problems:
            self._fail("; ".join(problems))


def import_times(env: dict, deadline: float) -> dict[str, float]:
    """Cumulative import times from a ``python -X importtime`` child."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import switchcert.cli"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()), check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    return {name: cumulative.get(module, 0.0) for name, module in IMPORT_MODULES.items()}


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.TimeoutExpired):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": THREADS,
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def measure(args, work: Path, deadline: float) -> tuple[Client, dict[str, list[float]]]:
    # Compile the bytecode and warm the file cache once: users pay neither per command.
    subprocess.run([sys.executable, str(WORKER), str(SRC), "0", "--help"], cwd=work,
                   env=child_env(), capture_output=True, timeout=120, check=True)
    prepared = workloads.prepare(args.workload, args.seed, work, args.size, ROOT)
    client = Client(args.workload, prepared, work, deadline)
    samples: dict[str, list[float]] = {}

    def record(name, value):
        samples.setdefault(name, []).append(value)

    started = time.monotonic()
    while time.monotonic() - started < args.seconds or client.attempted < MIN_REPEATS:
        if time.monotonic() >= deadline:
            break
        plain = client.invoke(trace=False)
        if plain is not None:
            for name in (*END_TO_END, "cpu_s"):
                record(name, plain[name])
        if args.trace:
            traced = client.invoke(trace=True)
            if traced is not None:
                record("traced_wall_s", traced["wall_s"])
                for name, value in traced["layers"].items():
                    record(name, value)
            for name, value in import_times(client.env, deadline).items():
                record(name, value)
    return client, samples


def summarize(args, samples: dict[str, list[float]]) -> dict[str, dict]:
    if args.trace:
        if "traced_wall_s" not in samples or "wall_s" not in samples:
            raise Failure("no traced command completed")
        overhead = statistics.median(samples["traced_wall_s"]) - statistics.median(samples["wall_s"])
        medians = {name: statistics.median(samples[name])
                   for name in per_layer_names() if name != "trace.overhead_s"}
        medians["trace.overhead_s"] = overhead
    else:
        if "wall_s" not in samples:
            raise Failure("no command completed")
        medians = {name: statistics.median(samples[name]) for name in END_TO_END}
    return {name: {"value": value, "unit": unit_of(name) if args.trace else END_TO_END[name]}
            for name, value in medians.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--results", type=Path, default=None,
                        help="append the result as one JSON line to this file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    begun = time.monotonic()
    args = parse_args(argv)
    if not (SRC / "switchcert" / "cli.py").is_file():
        raise Failure(f"no switchcert sources under {SRC}")
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        client, samples = measure(args, work, begun + DEADLINE_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    metrics = summarize(args, samples)
    for error in client.errors:
        print(f"error: {error}")
    print(f"error_rate: {client.failed / client.attempted!r} "
          f"({client.failed} of {client.attempted} commands)")
    for name in sorted(samples):
        q1, median, q3 = quartiles(samples[name])
        print(f"{name}: median {median!r} quartiles [{q1!r}, {q3!r}] n={len(samples[name])}")
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    result = {"correct": client.failed == 0, "attempted": client.attempted,
              "failed": client.failed, "metrics": metrics}
    if args.results is not None:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "size": args.size, "seconds": args.seconds, "env": env,
                  "samples": samples, "result": result}
        with open(args.results, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (Failure, subprocess.SubprocessError, OSError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        sys.exit(2)

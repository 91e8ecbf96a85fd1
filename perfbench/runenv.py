"""Where the benchmark runs: paths, child environment and a record of the host."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS/OpenMP thread in every child, so timings do not depend on how a
# numpy build picks its pool size.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}


def source_present() -> bool:
    return (SRC / "gmsim" / "__init__.py").is_file()


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts: thread pins and
    the checkout's own `src/` first on the import path."""
    env = dict(os.environ)
    env.update(THREAD_PINS)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def pin_to_one_cpu() -> int | None:
    """Keep this process and every child it starts on one CPU, so the
    reference loop (workloads.HostClock) runs where the timed work runs."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def run_command(argv: list[str], cwd: Path, timeout: float = 120.0):
    """Run a child to completion; returns (wall seconds, CompletedProcess)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=cwd, env=child_env(), capture_output=True, text=True,
        timeout=timeout,
    )
    return time.perf_counter() - t0, proc


def gmsim_argv(*args: str) -> list[str]:
    """The `gmsim` console command, run from the checkout's source."""
    return [sys.executable, "-m", "gmsim.cli", *args]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _source_digest() -> str:
    """sha256 over src/gmsim, which identifies the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "gmsim").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def describe() -> dict:
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "child_thread_pins": {k: child_env().get(k) for k in THREAD_PINS},
        "executable": Path(sys.executable).name,
    }

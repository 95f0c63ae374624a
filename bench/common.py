"""Shared measurement helpers for the benchmark (no ``repro`` imports).

Everything here is plain bookkeeping: sample summaries, the
failed/attempted ledger, the bench's own span recorder, CPU and memory
accounting over the process tree, and the host fingerprint that every
result file repeats so a number is never read without its context.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: ``stage.*`` / ``service.stage_wall_s.*`` buckets, by span category.
STAGE_CATEGORIES = ("witness", "commit", "permutation", "quotient", "open", "fri", "sumcheck")


def stage_bucket(category: str) -> str:
    """The bucket a prover span's category is summed under; one this
    bench has never seen lands in ``other`` (a later PR may add a stage)."""
    return category if category in STAGE_CATEGORIES else "other"


def add_src_to_path() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``.

    The benchmark measures the tree it sits in and nothing else: without
    ``src/repro`` next to it there is no program to run, so it exits
    non-zero instead of picking up some other installed ``repro``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'repro'} not found -- nothing to benchmark")
    sys.path.insert(0, str(SRC))


# -- sample summaries ------------------------------------------------------


def metric(value: float, unit: str, samples: Optional[List[float]] = None) -> Dict[str, Any]:
    """One result-file metric; ``samples`` adds the count and IQR."""
    out: Dict[str, Any] = {"value": float(value), "unit": unit}
    if samples is not None:
        out["n"] = len(samples)
        out["iqr"] = iqr(samples)
    return out


def iqr(samples: List[float]) -> float:
    """Distance between the first and third quartile (0 below 2 samples)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return float(q3 - q1)


def median_metric(samples: List[float], unit: str, scale: float = 1.0) -> Dict[str, Any]:
    """Median of ``samples`` (times ``scale``) with its count and IQR."""
    scaled = [s * scale for s in samples]
    return metric(statistics.median(scaled), unit, scaled)


def timed_metric(samples: List["Timed"], unit: str, scale: float = 1.0) -> Dict[str, Any]:
    """Median calibrated time, with the raw wall-clock median beside it."""
    out = median_metric([s.cal for s in samples], unit, scale)
    out["raw"] = statistics.median(s.raw for s in samples) * scale
    return out


def rate_metric(samples: List["Timed"], unit: str) -> Dict[str, Any]:
    """Operations per calibrated second over ``samples`` (one entry an
    operation).  The count and IQR beside it are of the per-operation
    rates, so the IQR carries the metric's own unit."""
    out = metric(len(samples) / sum(s.cal for s in samples), unit, [1.0 / s.cal for s in samples])
    out["raw"] = len(samples) / sum(s.raw for s in samples)
    return out


def best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Minimum wall seconds of ``fn`` over ``repeats`` calls after one
    warm-up call (layer probes: the floor is the kernel, the rest noise)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# -- host speed ----------------------------------------------------------------


class Timed(NamedTuple):
    """One timed operation: wall seconds as read, and calibrated."""

    raw: float
    cal: float


class HostSpeed:
    """Calibrated seconds: wall time scaled by how fast the host is *now*.

    On the shared 2-vCPU sandboxes this runs in, the same instructions
    take 20-40 % longer from one second to the next and for minutes at a
    time (which vCPU the thread woke on and what the neighbours on its
    core are doing; CPU time stretches with wall time, so it is not
    steal).  Ten runs a few minutes apart then spread 5-25 % on raw
    medians, single metrics 27-47 % -- wider than the largest bound a
    benchmark may set, and nothing inside a 30 s run averages it out;
    ``spreads/`` holds the runs, raw and calibrated side by side.  So
    one rule, on every workload: each timed sample is its raw wall time
    x ``REF_S`` / the time of a fixed kernel run right next to it (one
    factor per run was tried: no better than raw).  The kernel is NumPy
    ``uint64`` multiply / shift / add / mask over 2^20 elements: code
    this repo does not own, doing the kind of work ``gl64`` does.  A slower
    *program* still reads slower; a slower *host* does not.  (ROADMAP
    aim 1: "ratios to an in-run calibration kernel, never absolute
    wall-clock".)  Raw medians stay in the result files under ``raw``.
    """

    #: Kernel time on a quiet host of this class, so that calibrated
    #: seconds are seconds there.  Never re-tune: it would rescale every
    #: recorded number.
    REF_S = 0.0022
    ELEMENTS = 1 << 20
    _CHUNK = 1 << 16

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        # Operands streamed from memory, results into two cache-sized
        # buffers: forking a worker marks this process's pages
        # copy-on-write, and a kernel that rewrote big arrays would pay
        # that copy in its next sample.
        self._a = np.arange(1, self.ELEMENTS + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        self._b = self._a[::-1].copy()
        self._out = np.empty(self._CHUNK, dtype=np.uint64)
        self._tmp = np.empty(self._CHUNK, dtype=np.uint64)
        self._lock = threading.Lock()  # service_mix samples from two client threads
        self._last = (0.0, float("-inf"))  # (sample, perf_counter when it ended)
        self.sample()

    def sample(self, max_age_s: float = 0.0) -> float:
        """Thread-CPU seconds of the fastest of three kernel passes; a
        sample that ended under ``max_age_s`` ago is returned again.

        CPU time, so waiting for a busy core does not read as a slow
        host; the fastest pass, because the first one after this thread
        slept runs on cold caches while a slow host slows all three.
        """
        np, out, tmp = self._np, self._out, self._tmp
        shift, mask = np.uint64(32), np.uint64(0xFFFFFFFF)
        with self._lock:
            value, ended = self._last
            if time.perf_counter() - ended < max_age_s:
                return value
            value = float("inf")
            for _ in range(3):
                t0 = time.thread_time()
                for lo in range(0, self.ELEMENTS, self._CHUNK):
                    np.multiply(self._a[lo : lo + self._CHUNK], self._b[lo : lo + self._CHUNK], out=out)
                    np.right_shift(out, shift, out=tmp)
                    np.add(out, tmp, out=out)
                    np.bitwise_and(out, mask, out=tmp)
                value = min(value, time.thread_time() - t0)
            self._last = (value, time.perf_counter())
        return value

    def timed(self, raw: float, kernel_s: float) -> Timed:
        """``raw`` wall seconds taken next to a kernel sample."""
        return Timed(raw, raw * self.REF_S / kernel_s)

    def measure(self, fn: Callable[[], Any]) -> Tuple[Any, Timed]:
        """Run ``fn`` bracketed by kernel samples (the one before is the
        previous operation's when that ended under 2 ms ago)."""
        before = self.sample(max_age_s=0.002)
        t0 = time.perf_counter()
        value = fn()
        raw = time.perf_counter() - t0
        return value, self.timed(raw, (before + self.sample()) / 2.0)


# -- failures ----------------------------------------------------------------


class Ledger:
    """Counts attempted and failed operations (thread-safe).

    An operation is one prove, verify, service job, blob round-trip or
    cross-check; it fails when it raises or when its check is false.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._lock = threading.Lock()

    def check(self, ok: bool, what: str) -> bool:
        """Record one operation whose outcome is already known."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(what)
        return ok

    @contextmanager
    def guard(self, what: str) -> Iterator[None]:
        """Record the enclosed operation; an exception is a failure, not
        a crash -- the run goes on and reports ``failed > 0``."""
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - benchmark boundary: count, report, go on
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")
        else:
            self.check(True, what)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# -- the bench's own spans ---------------------------------------------------


class Recorder:
    """In-memory spans of the benchmark itself, one id per workload run.

    Spans nest by time on one track per thread (workload -> phase ->
    iteration / probe) and are kept as Chrome Trace Event dicts, written
    out once at exit through ``repro.tracing.write_trace_payload``.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.origin = time.perf_counter()
        self.events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._tids: Dict[int, int] = {}

    @contextmanager
    def span(self, name: str, cat: str = "phase", **args: Any) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            with self._lock:
                tid = self._tids.setdefault(threading.get_ident(), len(self._tids) + 1)
                self.events.append(
                    {
                        "name": name,
                        "cat": cat,
                        "ph": "X",
                        "pid": 1,
                        "tid": tid,
                        "ts": (t0 - self.origin) * 1e6,
                        "dur": max(0.001, (t1 - t0) * 1e6),
                        "args": {"id": self.run_id, **args},
                    }
                )


# -- process-tree accounting -------------------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _proc_stat(pid: str):
    """``(ppid, cpu_seconds)`` of one live process, or ``None``."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return int(fields[1]), (int(fields[11]) + int(fields[12])) / _CLK_TCK


def cpu_seconds() -> float:
    """User+system CPU of this process and its *live* descendants.

    ``RUSAGE_CHILDREN`` only covers children already waited for, and the
    shard and service workers live as long as the timed loop, so their
    CPU is read from ``/proc``.  Differences of this number over a loop
    are what ``cpu_s_per_proof`` reports.
    """
    stats = {pid: s for pid in os.listdir("/proc") if pid.isdigit() and (s := _proc_stat(pid))}
    total = time.process_time()
    family = {str(os.getpid())}
    grew = True
    while grew:
        grew = False
        for pid, (ppid, cpu) in stats.items():
            if pid not in family and str(ppid) in family:
                family.add(pid)
                total += cpu
                grew = True
    return total


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any waited-for child, MiB."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def host_metrics(import_s: float, speed: HostSpeed) -> Dict[str, Any]:
    """The ``host.*`` per-layer metrics: context, moved by nothing."""
    return {
        "host.effective_cpus": metric(host_fingerprint()["effective_cpus"], "count"),
        "host.import_s": metric(import_s, "s"),
        # The calibration kernel's own speed: ratios of any number to it
        # flag a noisy or different host.
        "host.calib_ns": metric(min(speed.sample() for _ in range(5)) / speed.ELEMENTS * 1e9, "ns"),
    }


def host_fingerprint() -> Dict[str, Any]:
    """What the numbers were taken on (compare.py refuses a mismatch)."""
    import numpy

    try:
        effective = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        effective = os.cpu_count() or 1
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "effective_cpus": effective,
    }

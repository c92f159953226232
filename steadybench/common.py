"""Pure helpers shared by the three benchmark workloads.

Percentiles with their sample counts, span helpers over a private
``repro.obs`` tracer (wrapping, durations, self time), ``/proc/stat``
steal accounting, the host-speed reference probe, and the host
fingerprint that goes into every run record.  The spans are the
benchmark's; the program's own tracer stays off.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.context import current_span_context
from repro.obs.export import git_sha
from repro.obs.tracing import Tracer


# ------------------------------------------------------------ percentiles

def percentile(values: Sequence[float], q: float) -> Tuple[float, int, int]:
    """The ``q``-th percentile (linear interpolation), with its support.

    Returns ``(value, n, beyond)``: the sample count and how many samples
    lie strictly above the value.  A tail percentile is only worth
    reporting when ``beyond`` is at least ten; the caller states ``n``
    next to it either way.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
    beyond = sum(1 for v in ordered if v > value)
    return value, len(ordered), beyond


def median(values: Sequence[float]) -> float:
    """Median; 0.0 for no samples (a layer the workload does not call)."""
    return statistics.median(values) if values else 0.0


def quartile_spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the steadiness spread (q3 - q1) / median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


# ----------------------------------------------------------------- spans

def new_tracer() -> Tracer:
    """A private, enabled :class:`Tracer` for the benchmark's own spans.

    It is not :func:`repro.obs.get_tracer`: the program's tracer stays
    off, because when it is on, ``systolic/latency.py`` bypasses the
    mapping memo and the run would time a different code path.
    """
    tracer = Tracer()
    tracer.enable()
    return tracer


def span_opener(tracer: Optional[Tracer]) -> Callable:
    """``span(name, **args)`` on ``tracer``; a no-op when it is ``None``.

    A span opened outside any other starts a trace of its own, so every
    span carries a ``span_id`` and the spans opened inside it link to it
    (per coroutine: the context is a :class:`contextvars.ContextVar`).
    """
    if tracer is None:
        return no_span

    def span(name: str, **args):
        return tracer.span(name, category="bench",
                           new_trace=current_span_context() is None, **args)
    return span


def no_span(name: str, **args):
    """Stand-in for a span opener when tracing is off."""
    return contextlib.nullcontext()


def wrap(span: Callable, fn: Callable, name: str, **args) -> Callable:
    """``fn`` with every call recorded as a span."""
    def traced(*a, **kw):
        with span(name, **args):
            return fn(*a, **kw)
    return traced


def durations_ms(tracer: Tracer, name: str, **match) -> List[float]:
    """Durations of the spans called ``name`` whose args include ``match``."""
    return [e["dur"] / 1e3 for e in tracer.events()
            if e["name"] == name
            and all(e["args"].get(k) == v for k, v in match.items())]


def self_times(events: Iterable[dict]) -> Dict[str, float]:
    """``span_id`` → self time: a span's duration minus what its children
    cover, in the events' unit (Chrome trace events: microseconds).

    Children may overlap each other or run past their parent's end (a
    child started on another thread); only the union of their intervals
    clipped to the parent counts.
    """
    spans = [e for e in events if "span_id" in e.get("args", {})]
    children: Dict[str, List[dict]] = {}
    for e in spans:
        parent = e["args"].get("parent_span_id")
        if parent is not None:
            children.setdefault(parent, []).append(e)
    out = {}
    for e in spans:
        start, end = e["ts"], e["ts"] + e["dur"]
        covered, cursor = 0.0, start
        for c in sorted(children.get(e["args"]["span_id"], ()),
                        key=lambda c: c["ts"]):
            lo, hi = max(c["ts"], cursor), min(c["ts"] + c["dur"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[e["args"]["span_id"]] = e["dur"] - covered
    return out


def span_table(events: Sequence[dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, median duration and median self time (ms)."""
    selfs = self_times(events)
    by_name: Dict[str, List[dict]] = {}
    for e in events:
        if "span_id" in e.get("args", {}):
            by_name.setdefault(e["name"], []).append(e)
    return {
        name: {"count": len(group),
               "median_ms": median([e["dur"] / 1e3 for e in group]),
               "median_self_ms": median([selfs[e["args"]["span_id"]] / 1e3
                                         for e in group])}
        for name, group in sorted(by_name.items())
    }


@contextlib.contextmanager
def patched(owner, attr: str, replacement):
    """Temporarily rebind ``owner.attr`` (restored on exit)."""
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


# -------------------------------------------------------------- host noise

#: Field order of the aggregate ``cpu`` line of ``/proc/stat``.
CPU_FIELDS = ("user", "nice", "system", "idle", "iowait", "irq", "softirq",
              "steal")


def parse_proc_stat(text: str) -> Dict[str, int]:
    """Jiffies of the aggregate ``cpu`` line of a ``/proc/stat`` dump.

    ``guest`` and ``guest_nice`` are left out: the kernel already counts
    them inside ``user`` and ``nice``.  Missing trailing fields (old
    kernels) read as 0.
    """
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "cpu":
            values = [int(v) for v in parts[1:1 + len(CPU_FIELDS)]]
            values += [0] * (len(CPU_FIELDS) - len(values))
            return dict(zip(CPU_FIELDS, values))
    raise ValueError("no aggregate 'cpu' line in /proc/stat text")


def steal_share(before: Dict[str, int], after: Dict[str, int]) -> float:
    """Share of all CPU time between two samples that the hypervisor stole."""
    delta = {k: after[k] - before[k] for k in CPU_FIELDS}
    total = sum(delta.values())
    return delta["steal"] / total if total > 0 else 0.0


def runnable_steal_share(before: Dict[str, int],
                         after: Dict[str, int]) -> float:
    """Share of the vCPUs' runnable time the hypervisor stole between two
    samples: steal ÷ (steal + busy).

    An idle vCPU accrues no steal, so this, not :func:`steal_share`, is
    how much longer work that kept the vCPUs busy took.
    """
    delta = {k: after[k] - before[k] for k in CPU_FIELDS}
    busy = sum(delta[k] for k in ("user", "nice", "system", "irq", "softirq"))
    runnable = busy + delta["steal"]
    return delta["steal"] / runnable if runnable > 0 else 0.0


def read_cpu_times() -> Optional[Dict[str, int]]:
    """The current aggregate CPU jiffies, or ``None`` off Linux."""
    try:
        return parse_proc_stat(Path("/proc/stat").read_text())
    except OSError:
        return None


class StealMeter:
    """Steal share over the windows between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self._before: Optional[Dict[str, int]] = None
        self.share = 0.0

    def start(self) -> None:
        self._before = read_cpu_times()

    def stop(self) -> None:
        after = read_cpu_times()
        if self._before is not None and after is not None:
            self.share = steal_share(self._before, after)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads() -> Optional[int]:
    """The thread count the loaded OpenBLAS reports, if one is loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower()
                    and line.split()[-1].startswith("/")})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_state(root: Path) -> Tuple[Optional[str], Optional[bool]]:
    """HEAD's sha and whether the tree differs from it; ``None`` outside
    a git checkout (git is not asked to search the directories above)."""
    if not (root / ".git").exists():
        return None, None
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=root, capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return git_sha(), None
    return git_sha(), bool(status.stdout.strip())


def host_fingerprint(root: Path) -> Dict[str, object]:
    """Cores, affinity, CPU model, numpy/BLAS, Python and git state."""
    sha, dirty = _git_state(root)
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = None
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cores": os.cpu_count(),
        "affinity": affinity,
        "cpu_model": cpu_model,
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "git_sha": sha,
        "git_dirty": dirty,
    }


# ---------------------------------------------------------- run outcome

@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: List[float]                 #: normalized CPU seconds per set-up
    setup_wall_s: List[float]            #: wall seconds of each set-up
    ops_per_s_norm: float = 0.0          #: operations per normalized second
    p50_ms_norm: float = 0.0             #: median normalized time of the
                                         #: workload's latency unit
    wall_ops_per_s: float = 0.0          #: the same two, not normalized
    wall_p50_ms: float = 0.0
    speed_factor: float = 1.0            #: HostSpeed.factor over the window
    attempted: int = 0                   #: timed operations + output checks
    failed: int = 0                      #: operations that raised or were wrong
    checks: Dict[str, bool] = field(default_factory=dict)
    steal_share: float = 0.0             #: host steal over the measured windows
    per_layer: Dict[str, float] = field(default_factory=dict)
    record: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, passed: bool) -> None:
        """Count one output check (a failed check is a failed operation)."""
        self.checks[name] = bool(passed) and self.checks.get(name, True)
        self.attempted += 1
        if not passed:
            self.failed += 1
            print(f"check failed: {name}", file=sys.stderr)


def clocks() -> Tuple[float, float]:
    """``(wall, cpu)`` seconds now.

    The CPU clock is this process's CPU time over all its threads.  On a
    virtual machine it does not advance while the hypervisor has the
    vCPU, so it reads the same whether a run was stolen from or not.
    """
    return time.perf_counter(), time.process_time()


#: CPU seconds one reference probe takes at nominal host speed (about
#: its median on the two-vCPU Xeon host the benchmark was tuned on).
PROBE_NOMINAL_S = 0.004
#: The probe's Python part's share of that (its median share there).
PYTHON_NOMINAL_S = 0.0022


class HostSpeed:
    """A fixed reference probe interleaved with the measured work.

    On a shared host the CPU time of the same work swings by 30 % or
    more within seconds (another tenant on the core, cache and memory
    bandwidth contention), and process CPU time does not exclude that
    the way it excludes steal.  The probe — a small matmul, a few
    elementwise passes over half-megabyte arrays, and Python loops that
    allocate, hash and do arithmetic; none of it the program's code —
    slows down with the host.  Dividing the work's CPU time by the probe's
    factor over the same stretch of time rescales it to nominal host
    speed.

    ``python_only`` takes the factor from the Python part alone.  Between
    the host's slow and fast states, pure-Python work (the systolic
    models) slows like that part, while the whole probe tracks numpy-heavy
    work (compiled plans); see README.md, *Clock*.
    """

    def __init__(self, python_only: bool = False) -> None:
        rng = np.random.default_rng(2021)
        self._a = rng.standard_normal((2048, 64)).astype(np.float32)
        self._w = rng.standard_normal((64, 64)).astype(np.float32)
        self._d = rng.standard_normal((8, 64, 16, 16)).astype(np.float32)
        self._k = rng.standard_normal((64, 1, 1)).astype(np.float32)
        self._o = self._d.copy()
        self._nominal_s = PYTHON_NOMINAL_S if python_only else PROBE_NOMINAL_S
        self._python_only = python_only
        self.samples: List[float] = []

    def probe(self) -> float:
        """Run the probe once; its time over nominal (>1: a slow host)."""
        start = time.thread_time()
        for _ in range(4):
            self._a @ self._w
            np.multiply(self._d, self._k, out=self._o)
            np.add(self._o, self._d, out=self._o)
            np.maximum(self._o, 0.0, out=self._o)
        if self._python_only:
            start = time.thread_time()
        counts: Dict[Tuple[int, int], int] = {}
        for i in range(4000):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + len(str(i))
        x = 0
        for i in range(6000):
            x += i * i
        self.samples.append(time.thread_time() - start)
        return self.samples[-1] / self._nominal_s

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int = 0) -> float:
        """Mean probe time since ``mark`` over nominal (>1: a slow host)."""
        window = self.samples[since:]
        return statistics.fmean(window) / self._nominal_s

    @contextlib.contextmanager
    def measure(self, norm_s: List[float], wall_s: List[float],
                probes: int = 5):
        """Time the block between two bursts of probes.

        Appends its CPU seconds at nominal host speed to ``norm_s`` and
        its wall seconds to ``wall_s``.  A full collection first, so each
        repeat starts from the same garbage-collector state.
        """
        gc.collect()
        mark = self.mark()
        for _ in range(probes):
            self.probe()
        wall, cpu = clocks()
        yield
        wall_s.append(time.perf_counter() - wall)
        cpu = time.process_time() - cpu
        for _ in range(probes):
            self.probe()
        norm_s.append(cpu / self.factor(mark))


def repeat_setup(setup: Callable[[], object], repeats: int,
                 speed: HostSpeed):
    """Run ``setup`` ``repeats`` times under :meth:`HostSpeed.measure`.

    Returns the last result, each set-up's CPU seconds at nominal host
    speed, and each one's wall seconds.
    """
    norm_s: List[float] = []
    wall_s: List[float] = []
    for _ in range(repeats):
        with speed.measure(norm_s, wall_s):
            result = setup()
    return result, norm_s, wall_s

"""Host facts, the process tree this benchmark started, and its Ray session.

Everything here reads ``/proc`` for the benchmark's own processes; nothing
changes a machine setting.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import threading
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")
_TICK = os.sysconf("SC_CLK_TCK")

# one Ray setting for every run: fixed, recorded, never 1 (the default
# actor pool cannot make progress on one CPU) and never above the
# process's affinity CPUs
RAY_CPUS = 4
OBJECT_STORE_BYTES = 512 * 2**20
# Ray's AF_UNIX socket paths are <temp dir>/session_<date>_<pid>/sockets/...
_SOCKET_SUFFIX = 64
_SOCKET_MAX = 107


def affinity_cpus() -> int:
    return len(os.sched_getaffinity(0))


def ray_cpus() -> int:
    cpus = min(RAY_CPUS, affinity_cpus())
    if cpus < 2:
        raise RuntimeError(
            f"needs at least 2 affinity CPUs for Ray, has {affinity_cpus()}")
    return cpus


def process_age_s() -> float:
    """Seconds since this process started, interpreter start included.
    Both ends are read on the boot-relative clock: the process's start
    from /proc (1/CLK_TCK resolution) and ``CLOCK_BOOTTIME`` now."""
    with open("/proc/self/stat") as f:
        ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / _TICK


def busy_loop_s(n: int = 2_000_000) -> float:
    """Wall of a fixed pure-Python loop: a host-speed reference."""
    t = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i * i
    return time.perf_counter() - t


def steal_s() -> float:
    """CPU time the hypervisor gave to others, summed over all CPUs."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / _TICK if len(fields) > 8 else 0.0


def host_facts() -> dict:
    return {"affinity_cpus": affinity_cpus(), "ray_cpus": ray_cpus(),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "busy_loop_s": round(busy_loop_s(), 4)}


def _stat(pid) -> tuple[str, int, int] | None:
    """(state, parent pid, start ticks) of a process, None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return fields[0], int(fields[1]), int(fields[19])
    except (OSError, ValueError, IndexError):
        return None


def alive(pid: int, start: int) -> bool:
    """The process that had ``start`` ticks still runs (not a zombie, and
    not another process that reused the pid)."""
    st = _stat(pid)
    return st is not None and st[0] != "Z" and st[2] == start


def descendants(pid: int | None = None) -> dict[int, int]:
    """Live descendants of ``pid`` (default: this process): pid -> start
    ticks."""
    pid = os.getpid() if pid is None else pid
    children: dict[int, list[tuple[int, int]]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(name)
            if st is not None and st[0] != "Z":
                children.setdefault(st[1], []).append((int(name), st[2]))
    out, todo = {}, [pid]
    while todo:
        for c, start in children.get(todo.pop(), ()):
            out[c] = start
            todo.append(c)
    return out


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * _PAGE
    except (OSError, ValueError, IndexError):
        return 0


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().decode(errors="replace")
    except OSError:
        return ""


class ProcWatch:
    """Samples, every ``interval`` seconds, the summed RSS of this process
    and every process it started, and the number of live extract-actor
    processes (Ray names them ``ray::MapWorker(...Extractor)``)."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.peak_rss = 0
        self.peak_actors = 0
        self.seen: dict[int, int] = {}  # every descendant ever sampled
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def reset_actors(self) -> None:
        self.peak_actors = 0

    def sample(self) -> None:
        me = os.getpid()
        kids = descendants(me)
        self.seen.update(kids)
        self.peak_rss = max(self.peak_rss, sum(map(_rss_bytes, [me, *kids])))
        actors = 0
        for pid in kids:
            cmd = _cmdline(pid)
            actors += cmd.startswith("ray::MapWorker") and "Extractor" in cmd
        self.peak_actors = max(self.peak_actors, actors)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(self.interval)


class RaySession:
    """A Ray instance this process starts and stops itself: a fresh local
    instance (never one that was already running), with its temp dir inside
    ``temp_root`` when the socket paths fit there (else in a fresh dir of
    the system temp dir); the temp dir is removed when the session stops."""

    def __init__(self, temp_root: str, package_root: str):
        self.temp_root = temp_root
        self.package_root = package_root
        self.temp_dir = None
        self.start_s = None  # wall of the last start: import ray, ray.init

    def start(self):
        import logging

        t = time.perf_counter()
        os.environ.pop("RAY_ADDRESS", None)
        # workers import the package from the checkout, whatever the cwd
        path = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = (self.package_root + os.pathsep + path
                                    if path else self.package_root)
        temp = self.temp_root
        if len(temp) + _SOCKET_SUFFIX > _SOCKET_MAX:
            temp = tempfile.mkdtemp(prefix="xb-")
        self.temp_dir = temp
        import ray

        ray.init(address="local", num_cpus=ray_cpus(),
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, _temp_dir=temp,
                 object_store_memory=OBJECT_STORE_BYTES)
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        self.start_s = time.perf_counter() - t
        return ray

    def stop(self) -> None:
        import sys

        if "ray" in sys.modules:
            import ray

            if ray.is_initialized():
                ray.shutdown()

    def remove_temp_dir(self) -> None:
        """Once every Ray process has ended."""
        if self.temp_dir:
            shutil.rmtree(self.temp_dir, ignore_errors=True)


def stop_descendants(seen: dict[int, int], grace_s: float = 20.0) -> list:
    """Wait for every process this one started to end: its live
    descendants and every descendant in ``seen`` (pid -> start ticks),
    which covers workers re-parented away when their parent exited. After
    ``grace_s`` terminate, then kill, what is left. Returns the pids that
    had to be signalled."""

    def left() -> dict[int, int]:
        procs = {**seen, **descendants()}
        return {p: s for p, s in procs.items() if alive(p, s)}

    deadline = time.monotonic() + grace_s
    procs = left()
    while procs and time.monotonic() < deadline:
        time.sleep(0.2)
        procs = left()
    signalled = sorted(procs)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid, start in procs.items():
            if alive(pid, start):
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        end = time.monotonic() + 5
        while procs and time.monotonic() < end:
            time.sleep(0.1)
            procs = left()
    while True:  # reap ended direct children
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                break
        except ChildProcessError:
            break
    return signalled

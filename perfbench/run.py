#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the cid command-line tools.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds the tools and the
in-process tracer from source (CMake, Release, under .bench_build/), makes
the workload's inputs from --seed, and measures for about --seconds seconds.

--trace 0 repeats the workload's real tool pipeline as child processes at a
fixed CPU placement and reports the median of each end-to-end metric over
the repetitions. --trace 1 alternates one untraced repetition with one run
of the in-process tracer (perfbench/tracer.cpp), which does the same work
through the tools' entry points and records spans around the layers'
public functions, and reports the median of each per-layer metric. Every repetition's outputs are checked; the last
line of stdout is one JSON object with keys correct, attempted, failed and
metrics. Workloads, metrics and the layer table are described in
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import fcntl
import json
import os
import re
import select
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_SUBDIR = Path(".bench_build") / "cmake"
TOOLS = ["cid_gen", "cid_sim", "cid_sweep", "cid_replay", "cid_merge",
         "cid_serve"]
TRACER = "cid_perftrace"

# A hung pipeline is killed (its whole process group) at the earlier of
# these deadlines and counted as failed, so a run always ends within three
# minutes of its build.
REP_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 165.0
MIN_REPS = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "work_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics carried in the result line. Every time in this list is
# measured (nonzero) on every workload; counts and ratios are exact or
# derived from exact counts. Layer-specific times (sweep.derive_s,
# serve.lease_rtt_p50_us, ...) are printed on the "per-layer:" line.
PER_LAYER_UNITS = {
    "game.build_s": "s",
    "game.builds": "count",
    "engine.run_s": "s",
    "engine.rounds": "count",
    "engine.latency_evals": "count",
    "engine.rows_filled": "count",
    "engine.rows_pruned": "count",
    "sweep.rng_splits": "count",
    "sweep.pool_busy_frac": "ratio",
    "persist.manifest_appends": "count",
    "persist.eventlog_bytes": "bytes",
    "persist.fsyncs": "count",
    "serve.frames_per_trial": "ratio",
    "tools.residual_s": "s",
    "obs.trace_overhead_s": "s",
    "obs.traced_wall_s": "s",
}

LAYERS = ("game", "sweep", "engine", "persist", "serve")


def die(message: str, code: int = 1) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def info(tag: str, payload) -> None:
    print(f"{tag}: {json.dumps(payload, sort_keys=True)}", flush=True)


# ---- build -----------------------------------------------------------------


def build(root: Path, jobs: int) -> Path:
    """Configures and builds the tools plus the tracer; returns bin dir."""
    build_dir = root / BUILD_SUBDIR
    build_dir.mkdir(parents=True, exist_ok=True)
    # The compiler's temporary files stay inside the checkout too.
    tmp = build_dir.parent / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(build_dir.parent / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            configure = [
                "cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                "-DCMAKE_BUILD_TYPE=Release", "-DCID_BUILD_BENCHES=OFF",
                "-DCID_BUILD_EXAMPLES=OFF",
            ]
            done = subprocess.run(configure, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  env=env)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                shutil.rmtree(build_dir, ignore_errors=True)
                die("cmake configure failed")
        compile_cmd = ["cmake", "--build", str(build_dir), "-j", str(jobs),
                       "--target", *TOOLS, TRACER]
        done = subprocess.run(compile_cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            die("build failed")
    return build_dir


def build_facts(build_dir: Path) -> dict:
    facts = {}
    cache = (build_dir / "CMakeCache.txt").read_text(errors="replace")
    for key in ("CMAKE_BUILD_TYPE", "CMAKE_CXX_COMPILER"):
        match = re.search(rf"^{key}:\w+=(.*)$", cache, re.M)
        facts[key.lower()] = match.group(1) if match else ""
    try:
        version = subprocess.run([facts["cmake_cxx_compiler"], "--version"],
                                 stdout=subprocess.PIPE, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    facts["compiler"] = version
    return facts


# ---- host diagnostics ------------------------------------------------------


def steal_seconds() -> float:
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    steal = int(fields[8]) if len(fields) > 8 else 0
    return steal / os.sysconf("SC_CLK_TCK")


def calibrate(cpu: int) -> float:
    """Time of a fixed pure-Python loop on a work CPU. Taken between
    repetitions; its median over a run tracks how fast the host was."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        return time.perf_counter() - start
    finally:
        os.sched_setaffinity(0, saved)


# ---- child processes -------------------------------------------------------


class DirWatch:
    """Timestamps (time.perf_counter) the first creation of each file name
    in one directory, via inotify. Creation is watched, not writes, so the
    watched processes pay nothing per write."""

    IN_CLOSE_WRITE = 0x008
    IN_MOVED_TO = 0x080
    IN_CREATE = 0x100

    def __init__(self, directory: Path):
        libc = ctypes.CDLL(None, use_errno=True)
        self._fd = libc.inotify_init1(os.O_CLOEXEC | os.O_NONBLOCK)
        if self._fd < 0:
            raise OSError(ctypes.get_errno(), "inotify_init1")
        mask = self.IN_CREATE | self.IN_MOVED_TO | self.IN_CLOSE_WRITE
        if libc.inotify_add_watch(self._fd, str(directory).encode(),
                                  mask) < 0:
            os.close(self._fd)
            raise OSError(ctypes.get_errno(), "inotify_add_watch")
        self.created: dict[str, float] = {}
        self.closed: dict[str, float] = {}
        self._cv = threading.Condition()
        self._stop_r, self._stop_w = os.pipe()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        header = struct.Struct("iIII")
        while True:
            ready, _, _ = select.select([self._fd, self._stop_r], [], [])
            now = time.perf_counter()
            if self._stop_r in ready:
                return
            try:
                data = os.read(self._fd, 65536)
            except BlockingIOError:
                continue
            offset = 0
            with self._cv:
                while offset + header.size <= len(data):
                    _, mask, _, length = header.unpack_from(data, offset)
                    raw = data[offset + header.size:
                               offset + header.size + length]
                    name = raw.split(b"\0", 1)[0].decode(errors="replace")
                    offset += header.size + length
                    if mask & (self.IN_CREATE | self.IN_MOVED_TO):
                        self.created.setdefault(name, now)
                    if mask & (self.IN_CLOSE_WRITE | self.IN_MOVED_TO):
                        self.closed.setdefault(name, now)
                self._cv.notify_all()

    def wait_closed(self, name: str, timeout: float) -> float | None:
        deadline = time.perf_counter() + timeout
        with self._cv:
            while name not in self.closed:
                left = deadline - time.perf_counter()
                if left <= 0:
                    return None
                self._cv.wait(left)
            return self.closed[name]

    def close(self) -> None:
        os.write(self._stop_w, b"x")
        self._thread.join()
        for fd in (self._fd, self._stop_r, self._stop_w):
            os.close(fd)


class Child:
    """One pinned child process in its own process group. Its stdout and
    stderr go to a file, or to a pseudo-terminal when `watch_line` is set:
    a terminal makes stdio line-buffered, so the arrival time of the first
    line containing `watch_line` is observable."""

    def __init__(self, argv: list[str], cpus: set[int], log: Path,
                 watch_line: bytes | None = None):
        self.argv = argv
        self.log = log
        self.marker_time: float | None = None
        self._marker_done = threading.Event()
        self._reader = None
        if watch_line is None:
            out = open(log, "wb")
        else:
            master, out = os.openpty()
        # The child inherits the launching thread's CPU set; without a
        # preexec_fn, Popen can spawn without copying the harness.
        harness_cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)
        try:
            self.launch = time.perf_counter()
            self.proc = subprocess.Popen(
                argv, stdout=out, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, start_new_session=True)
        finally:
            os.sched_setaffinity(0, harness_cpus)
        if watch_line is None:
            out.close()
        else:
            os.close(out)
            self._reader = threading.Thread(
                target=self._read_pty, args=(master, watch_line), daemon=True)
            self._reader.start()
        self.exit_code: int | None = None
        self.exit_time = 0.0
        self.cpu_s = 0.0
        self.maxrss_kb = 0

    def _read_pty(self, master: int, watch_line: bytes) -> None:
        seen = b""
        with open(self.log, "wb") as log:
            while True:
                try:
                    chunk = os.read(master, 65536)
                except OSError:
                    break
                if not chunk:
                    break
                now = time.perf_counter()
                log.write(chunk)
                if self.marker_time is None:
                    seen += chunk
                    if watch_line in seen:
                        self.marker_time = now
                        self._marker_done.set()
        os.close(master)
        self._marker_done.set()

    def wait_marker(self, timeout: float) -> float | None:
        """Waits until the watched line arrives or output ends."""
        self._marker_done.wait(max(0.0, timeout))
        return self.marker_time

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def reap(self, timeout: float) -> int:
        """Waits for exit (killing the group at the deadline) and records
        the exit time, CPU time and max RSS from wait4."""
        timer = threading.Timer(max(0.0, timeout), self.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.exit_time = time.perf_counter()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.exit_code = self.proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.maxrss_kb = usage.ru_maxrss
        if self._reader is not None:
            self._reader.join(timeout=5.0)
        return self.exit_code

    def output(self) -> str:
        try:
            return self.log.read_text(errors="replace")
        except OSError:
            return ""


def run_child(argv, cpus, log, deadline) -> Child:
    child = Child(argv, cpus, log)
    child.reap(deadline - time.perf_counter())
    return child


def same_bytes(a: Path, b: Path) -> bool:
    try:
        return a.read_bytes() == b.read_bytes()
    except OSError:
        return False


class Rep:
    """One repetition: timings plus operation accounting."""

    def __init__(self):
        self.children: list[Child] = []
        self.launch = 0.0
        self.setup_mark: float | None = None
        self.work_end = 0.0
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} {what}")

    def exits(self) -> None:
        for child in self.children:
            self.check(child.exit_code == 0,
                       f"{Path(child.argv[0]).name} exited {child.exit_code}")

    def metrics(self) -> dict:
        wall = max(c.exit_time for c in self.children) - self.launch
        setup = (self.setup_mark - self.launch
                 if self.setup_mark is not None else float("nan"))
        work_time = self.work_end - (self.setup_mark or self.launch)
        return {
            "wall_s": wall,
            "setup_s": setup,
            "work_per_s": self.units / work_time if work_time > 0 else 0.0,
            "cpu_s": sum(c.cpu_s for c in self.children),
            "peak_rss_mb": max(c.maxrss_kb for c in self.children) / 1024.0,
        }


# ---- workloads -------------------------------------------------------------


def ints(text: str, pattern: str) -> list[int]:
    return [int(x) for x in re.findall(pattern, text)]


class Workload:
    """A workload is a real tool pipeline (run_rep), a reference for its
    outputs (prepare), and the matching in-process traced run (trace)."""

    name = ""

    def __init__(self, bins: Path, seed: int, tiny: bool, cpus: list[int],
                 ref: Path):
        self.bins = bins
        self.ref = ref
        self.seed = seed
        self.tiny = tiny
        self.cpus = cpus

    def tool(self, name: str) -> str:
        return str(self.bins / name)

    def child_cpus(self) -> set[int]:
        """Every CPU the workload's processes (and its tracer) run on."""
        raise NotImplementedError

    def placement(self) -> dict:
        raise NotImplementedError

    def prepare(self, deadline: float) -> Rep:
        raise NotImplementedError

    def run_rep(self, work: Path, deadline: float) -> Rep:
        raise NotImplementedError

    # A workload whose set-up is too short to time once per repetition
    # sets it up this many extra times after each repetition (setup_probe)
    # and reports the median of those set-ups as setup_s.
    probes_per_rep = 0

    def setup_probe(self, work: Path, deadline: float):
        """Returns (rep, set-up seconds or None)."""
        raise NotImplementedError

    def tracer_args(self) -> list[str]:
        raise NotImplementedError

    def check_traced(self, work: Path, rep: Rep, deadline: float) -> None:
        raise NotImplementedError


class SweepWorkload(Workload):
    """A local cid_sweep with --manifest and --out. Set-up ends when the
    manifest file is created: run_sweep creates it after building the
    instances and deriving every trial stream, just before the pool
    starts."""

    threads = 1

    def grid_args(self) -> list[str]:
        raise NotImplementedError

    def trials(self) -> int:
        raise NotImplementedError

    def child_cpus(self) -> set[int]:
        return set(self.cpus[: self.threads])

    def placement(self) -> dict:
        return {"cid_sweep": sorted(self.child_cpus())}

    def sweep_argv(self, out: Path, threads: int, manifest: Path | None):
        argv = [self.tool("cid_sweep"), *self.grid_args(), "--threads",
                str(threads), "--out", str(out)]
        if manifest is not None:
            argv += ["--manifest", str(manifest)]
        return argv

    def prepare(self, deadline: float) -> Rep:
        rep = Rep()
        child = run_child(
            self.sweep_argv(self.ref / "ref", 1, self.ref / "ref.manifest"),
            self.child_cpus(), self.ref / "ref.log", deadline)
        rep.children.append(child)
        rep.exits()
        return rep

    def run_rep(self, work: Path, deadline: float) -> Rep:
        rep = Rep()
        watch = DirWatch(work)
        try:
            child = Child(self.sweep_argv(work / "out", self.threads,
                                          work / "run.manifest"),
                          self.child_cpus(), work / "run.log")
            rep.launch = child.launch
            child.reap(deadline - time.perf_counter())
        finally:
            watch.close()
        rep.children.append(child)
        rep.setup_mark = watch.created.get("run.manifest")
        rep.work_end = child.exit_time
        rep.units = self.trials()
        rep.exits()
        rep.check(rep.setup_mark is not None, "manifest never created")
        self.check_sweep_output(child.output(), rep)
        rep.check(same_bytes(work / "out_trials.csv",
                             self.ref / "ref_trials.csv"),
                  "trials.csv differs from the --threads 1 reference")
        self.check_manifest(work / "run.manifest", rep, deadline)
        return rep

    def check_sweep_output(self, text: str, rep: Rep) -> None:
        swept = ints(text, r"swept (\d+) trials")
        rep.count(self.trials(), 0 if swept == [self.trials()]
                  else self.trials(), "trials missing from the sweep")
        failed = ints(text, r"FAILED: (\d+) trial")
        rep.count(0, sum(failed), "trials failed permanently")
        retried = ints(text, r"trial retries: (\d+)")
        rep.count(0, sum(retried), "trials retried")

    def check_manifest(self, manifest: Path, rep: Rep,
                       deadline: float) -> None:
        rep.check(same_bytes(manifest, self.ref / "ref.manifest"),
                  f"{manifest.name} differs from the --threads 1 reference")

    def tracer_args(self) -> list[str]:
        return ["sweep", *self.grid_args(), "--threads", str(self.threads)]

    def check_traced(self, work: Path, rep: Rep, deadline: float) -> None:
        rep.check(same_bytes(work / "trace_trials.csv",
                             self.ref / "ref_trials.csv"),
                  "traced trials.csv differs from the reference")
        self.check_manifest(work / "trace.manifest", rep, deadline)


class LargeNSetup(SweepWorkload):
    name = "large_n_setup"
    # 32 zero-round trials (about 10 ms each: the uniform start draws one
    # strategy per player) keep the post-set-up window long enough to time.

    def grid_args(self) -> list[str]:
        n = 20000 if self.tiny else 500000
        return ["--scenario", "singleton-uniform", "--param", "m=64",
                "--grid", f"n={n}", "--trials", str(self.trials()),
                "--seed", str(self.seed)]

    def trials(self) -> int:
        return 32


class ManyTrials(SweepWorkload):
    name = "many_trials"
    threads = 2

    def grid_args(self) -> list[str]:
        points, trials = (4, 100) if self.tiny else (24, 1500)
        return ["--scenario", "load-balancing",
                "--grid", f"n=100:400:lin:{points}",
                "--protocols", "imitation,combined",
                "--trials", str(trials), "--seed", str(self.seed)]

    def trials(self) -> int:
        return 4 * 2 * 100 if self.tiny else 24 * 2 * 1500

    def check_manifest(self, manifest: Path, rep: Rep,
                       deadline: float) -> None:
        # With threads > 1 the manifest is in completion order; compare it
        # after canonical (cell, trial) ordering, which cid_merge writes.
        canonical = manifest.with_suffix(".canonical")
        merge = run_child([self.tool("cid_merge"), "--out", str(canonical),
                           str(manifest)], self.child_cpus(),
                          manifest.with_suffix(".merge.log"), deadline)
        rep.check(merge.exit_code == 0, f"cid_merge exited {merge.exit_code}")
        super().check_manifest(canonical, rep, deadline)


class LoopbackFleet(Workload):
    """One cid_serve coordinator and one cid_sweep --connect worker over
    loopback, both pinned to one CPU. The pair runs strictly turn by turn,
    so sharing a CPU costs no parallelism; on separate CPUs every RPC waits
    for an idle CPU to wake, and trial rates spread over a factor of two.

    The fleet's set-up (coordinator start to first grant, about 10 ms) is
    mostly process start-up, so one sample per repetition is too noisy:
    setup_s is the median of many set-up probes, each a fresh coordinator
    and worker stopped at the coordinator's first completed trial, one
    trial after its first grant. work_per_s in a repetition counts from the
    worker's "leasing trials" line (the repetitions run without --verbose,
    which would log every trial)."""

    name = "loopback_fleet"
    probes_per_rep = 12

    def grid_args(self) -> list[str]:
        points, trials = (3, 100) if self.tiny else (5, 1500)
        return ["--scenario", "load-balancing",
                "--grid", f"n=100:400:lin:{points}",
                "--protocols", "imitation,combined",
                "--trials", str(trials), "--seed", str(self.seed)]

    def trials(self) -> int:
        return 3 * 2 * 100 if self.tiny else 5 * 2 * 1500

    def child_cpus(self) -> set[int]:
        return {self.cpus[0]}

    def placement(self) -> dict:
        return {"cid_serve,cid_sweep --connect": sorted(self.child_cpus())}

    def prepare(self, deadline: float) -> Rep:
        rep = Rep()
        child = run_child([self.tool("cid_sweep"), *self.grid_args(),
                           "--threads", "1", "--manifest",
                           str(self.ref / "ref.manifest")],
                          self.child_cpus(), self.ref / "ref.log", deadline)
        rep.children.append(child)
        rep.exits()
        return rep

    def serve_argv(self, work: Path, *extra: str) -> list[str]:
        return [self.tool("cid_serve"), *self.grid_args(),
                "--manifest", str(work / "live.manifest"),
                "--final-manifest", str(work / "final.manifest"),
                "--port-file", str(work / "port"), *extra]

    def start_worker(self, work: Path, watch: DirWatch, deadline: float,
                     watch_line: bytes | None = None) -> Child | None:
        """Starts the worker once the coordinator has written its port."""
        if not watch.wait_closed("port", deadline - time.perf_counter()):
            return None
        port = (work / "port").read_text().strip()
        return Child([self.tool("cid_sweep"), *self.grid_args(),
                      "--connect", f"127.0.0.1:{port}"],
                     self.child_cpus(), work / "worker.log",
                     watch_line=watch_line)

    def run_rep(self, work: Path, deadline: float) -> Rep:
        rep = Rep()
        watch = DirWatch(work)
        children = []
        try:
            serve = Child(self.serve_argv(work), self.child_cpus(),
                          work / "serve.log")
            children.append(serve)
            rep.launch = serve.launch
            worker = self.start_worker(work, watch, deadline,
                                       watch_line=b"leasing trials")
            if worker is not None:
                children.append(worker)
                worker.reap(deadline - time.perf_counter())
            serve.reap(deadline - time.perf_counter())
        finally:
            for child in children:
                if child.exit_code is None:
                    child.kill()
                    child.reap(5.0)
            watch.close()
        rep.children = children
        rep.check(len(children) == 2, "coordinator never wrote its port")
        if len(children) < 2:
            return rep
        worker = children[1]
        rep.setup_mark = worker.marker_time
        rep.work_end = max(c.exit_time for c in children)
        rep.units = self.trials()
        rep.exits()
        rep.check(rep.setup_mark is not None, "worker never started leasing")
        text = worker.output()
        done = ints(text, r"completed (\d+) trial")
        rep.count(self.trials(), 0 if done == [self.trials()]
                  else self.trials(), "trials not completed by the worker")
        requeued = ints(text, r"requeued (\d+)")
        lost = ints(text, r"(\d+) lease\(s\) lost")
        rep.count(0, sum(requeued), "trials requeued")
        granted = ints(serve.output(), r"leases: (\d+) granted")
        leases = granted[0] if granted else 0
        rep.count(max(leases, self.trials()), sum(lost)
                  + abs(leases - self.trials()), "leases lost or re-granted")
        rep.check(same_bytes(work / "final.manifest",
                             self.ref / "ref.manifest"),
                  "fleet manifest differs from the local reference")
        return rep

    def setup_probe(self, work: Path, deadline: float):
        rep = Rep()
        watch = DirWatch(work)
        children = []
        try:
            serve = Child(self.serve_argv(work, "--verbose"),
                          self.child_cpus(), work / "serve.log",
                          watch_line=b"cid_serve: 1/")
            children.append(serve)
            worker = self.start_worker(work, watch, deadline)
            if worker is not None:
                children.append(worker)
                serve.wait_marker(deadline - time.perf_counter())
        finally:
            for child in children:
                child.kill()
                child.reap(5.0)
            watch.close()
        setup = (serve.marker_time - serve.launch
                 if serve.marker_time is not None else None)
        rep.check(setup is not None, "set-up probe saw no completed trial")
        return rep, setup

    def tracer_args(self) -> list[str]:
        return ["fleet", *self.grid_args()]

    def check_traced(self, work: Path, rep: Rep, deadline: float) -> None:
        rep.check(same_bytes(work / "trace.manifest",
                             self.ref / "ref.manifest"),
                  "traced fleet manifest differs from the reference")


class LongSim(Workload):
    """cid_gen -> cid_sim (checkpoints + v2 event log) -> cid_replay. Set-up
    ends when cid_sim's round-0 checkpoint lands: it is written right
    before run_dynamics starts round 1.

    The game is pinned (cid_gen --seed 1); --seed drives the sim's start
    state and random stream. Per-round cost depends strongly on the drawn
    latency functions (up to 3x between generator seeds), so a seeded game
    would turn the benchmark's seed sweep into a sweep over workloads."""

    GAME_SEED = "1"

    name = "long_sim"

    def rounds(self) -> int:
        return 600 if self.tiny else 12000

    def every(self) -> int:
        return self.rounds() // 12

    def child_cpus(self) -> set[int]:
        return {self.cpus[0]}

    def placement(self) -> dict:
        return {"cid_gen,cid_sim,cid_replay": sorted(self.child_cpus())}

    def prepare(self, deadline: float) -> Rep:
        return Rep()

    def run_rep(self, work: Path, deadline: float) -> Rep:
        rep = Rep()
        cpus = self.child_cpus()
        players = "2000" if self.tiny else "20000"
        watch = DirWatch(work)
        try:
            gen = Child([self.tool("cid_gen"), "--family", "layered",
                         "--width", "4", "--depth", "3", "--players", players,
                         "--seed", self.GAME_SEED, "--out",
                         str(work / "g.game")], cpus, work / "gen.log")
            rep.launch = gen.launch
            gen.reap(deadline - time.perf_counter())
            rep.children.append(gen)
            sim = run_child(
                [self.tool("cid_sim"), "--game", str(work / "g.game"),
                 "--protocol", "combined", "--rounds", str(self.rounds()),
                 "--stop", "nash", "--seed", str(self.seed), "--checkpoint",
                 str(work / "ck"), "--checkpoint-every", str(self.every()),
                 "--checkpoint-keep", "100", "--event-log",
                 str(work / "events.log")], cpus, work / "sim.log", deadline)
            rep.children.append(sim)
            replay = run_child(
                [self.tool("cid_replay"), "replay", "--snapshot",
                 str(work / "ck.r0"), "--log", str(work / "events.log"),
                 "--expect", str(work / f"ck.r{self.rounds()}")],
                cpus, work / "replay.log", deadline)
            rep.children.append(replay)
        finally:
            watch.close()
        rep.setup_mark = watch.closed.get("ck.r0")
        rep.work_end = sim.exit_time
        stopped = ints(sim.output(), r"stopped after (\d+) rounds")
        rep.units = stopped[0] if stopped else 0
        rep.exits()
        rep.check(rep.setup_mark is not None, "round-0 checkpoint missing")
        rep.check(stopped == [self.rounds()], "sim stopped early")
        rep.check("matches" in replay.output(), "replay --expect failed")
        return rep

    def tracer_args(self) -> list[str]:
        return ["sim", "--players", "2000" if self.tiny else "20000",
                "--game-seed", self.GAME_SEED, "--seed", str(self.seed),
                "--rounds", str(self.rounds()), "--every", str(self.every())]

    def check_traced(self, work: Path, rep: Rep, deadline: float) -> None:
        # The tracer checks its own replay; here its artifacts must equal
        # the tools' from the same inputs.
        rep.check(same_bytes(work / "trace_events.log", work / "events.log"),
                  "traced event log differs from cid_sim's")
        final = f"ck.r{self.rounds()}"
        rep.check(same_bytes(work / f"trace_{final}", work / final),
                  "traced final snapshot differs from cid_sim's")


WORKLOADS = {w.name: w for w in (LargeNSetup, ManyTrials, LoopbackFleet,
                                 LongSim)}


# ---- traced run ------------------------------------------------------------


def traced_rep(wl: Workload, work: Path, deadline: float):
    """Runs the in-process tracer; returns (rep, tracer process, report)."""
    rep = Rep()
    report_path = work / "trace.json"
    child = Child([wl.tool(TRACER), *wl.tracer_args(), "--dir", str(work),
                   "--report", str(report_path)], wl.child_cpus(),
                  work / "trace.log")
    rep.launch = child.launch
    child.reap(deadline - time.perf_counter())
    rep.children.append(child)
    rep.exits()
    report = None
    if child.exit_code == 0:
        try:
            report = json.loads(report_path.read_text())
        except (OSError, ValueError):
            report = None
    rep.check(report is not None and report.get("ok") is True,
              "tracer: " + "; ".join(report["problems"]) if report
              else "tracer report missing")
    if report is not None:
        wl.check_traced(work, rep, deadline)
    return rep, child, report


def layer_metrics(report: dict, traced_wall: float,
                  untraced_wall: float) -> dict:
    """Per-layer metrics of one traced run and its untraced partner. A
    metric of a layer the workload bypasses reads 0."""
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    metrics.update(report["metrics"])
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = report["self_s"][layer]
    metrics["obs.covered_s"] = report["covered_s"]
    metrics["obs.traced_wall_s"] = traced_wall
    metrics["obs.untraced_wall_s"] = untraced_wall
    return metrics


def close_layers(values: dict) -> dict:
    """Adds tools.residual_s and obs.trace_overhead_s to median per-layer
    values, so that the reported layer self times plus the residual are
    exactly the reported untraced wall."""
    layer_sum = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    values["obs.layer_sum_s"] = layer_sum
    values["tools.residual_s"] = values["obs.untraced_wall_s"] - layer_sum
    values["obs.trace_overhead_s"] = (values["obs.traced_wall_s"]
                                      - values["obs.untraced_wall_s"])
    return values


# ---- main ------------------------------------------------------------------


def median_metrics(samples: list[dict]) -> dict:
    keys = samples[0].keys()
    return {k: statistics.median(s[k] for s in samples) for k in keys}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the self-test")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        die("run from the root of a cid source checkout (CMakeLists.txt and "
            "src/ not found)", 2)

    allowed = sorted(os.sched_getaffinity(0))
    build_dir = build(root, len(allowed))
    bins = build_dir / "bin"
    facts = build_facts(build_dir)

    # The harness sits on the first allowed CPU; children get the rest.
    harness_cpu = allowed[0]
    work_cpus = allowed[1:] or allowed
    os.sched_setaffinity(0, {harness_cpu})
    run_dir = (root / ".bench_build" / "runs" /
               f"{os.getpid()}-{time.time_ns()}")
    ref_dir = run_dir / "ref"
    ref_dir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](bins, args.seed, args.size == "tiny",
                                  work_cpus, ref_dir)
    if isinstance(wl, ManyTrials):
        wl.threads = min(wl.threads, len(work_cpus))

    steal_start = steal_seconds()
    calib: list[float] = []
    run_deadline = time.perf_counter() + RUN_TIMEOUT_S

    def deadline() -> float:
        return min(time.perf_counter() + REP_TIMEOUT_S, run_deadline)

    attempted = failed = 0
    problems: list[str] = []

    def account(rep: Rep) -> None:
        nonlocal attempted, failed
        attempted += rep.attempted
        failed += rep.failed
        problems.extend(rep.problems)

    e2e: list[dict] = []
    setups: list[float] = []
    layers: list[dict] = []
    try:
        account(wl.prepare(deadline()))
        start = time.perf_counter()
        rep_times: list[float] = []
        index = 0
        while not failed and time.perf_counter() < run_deadline:
            elapsed = time.perf_counter() - start
            if len(rep_times) >= MIN_REPS and (
                    elapsed + statistics.median(rep_times) > args.seconds):
                break
            calib.append(calibrate(work_cpus[0]))
            rep_start = time.perf_counter()
            work = run_dir / f"rep{index}"
            work.mkdir()
            rep = wl.run_rep(work, deadline())
            account(rep)
            if not rep.failed:
                e2e.append(rep.metrics())
            for probe in range(0 if args.trace else wl.probes_per_rep):
                probe_dir = run_dir / f"rep{index}-setup{probe}"
                probe_dir.mkdir()
                probe_rep, setup = wl.setup_probe(probe_dir, deadline())
                account(probe_rep)
                if setup is not None:
                    setups.append(setup)
                shutil.rmtree(probe_dir, ignore_errors=True)
            if args.trace:
                traced, child, report = traced_rep(wl, work, deadline())
                account(traced)
                if report is not None and not rep.failed:
                    layers.append(layer_metrics(
                        report, child.exit_time - child.launch,
                        e2e[-1]["wall_s"]))
            shutil.rmtree(work, ignore_errors=True)
            rep_times.append(time.perf_counter() - rep_start)
            index += 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    host = {"host.steal_s": steal_seconds() - steal_start,
            "host.calib_s": statistics.median(calib) if calib else 0.0}
    info("placement", {"workload": wl.name, "nproc": os.cpu_count(),
                       "allowed_cpus": allowed, "harness_cpu": harness_cpu,
                       "children": wl.placement(), **facts})
    info("host", host)
    if problems:
        info("failures", problems[:20])

    metrics = {}
    if args.trace:
        measured = bool(layers)
    else:
        measured = bool(setups) or wl.probes_per_rep == 0
    correct = failed == 0 and len(e2e) >= MIN_REPS and measured
    if e2e:
        values = median_metrics(e2e)
        if setups:
            values["setup_s"] = statistics.median(setups)
        info("end-to-end", {"reps": len(e2e), "setup_probes": len(setups),
                            **values,
                            "failed_frac": failed / max(1, attempted),
                            "rep_wall_s": [r["wall_s"] for r in e2e],
                            "probe_setup_s": setups})
        unit = "rounds_per_s" if isinstance(wl, LongSim) else "trials_per_s"
        info("throughput", {unit: values["work_per_s"]})
        if not args.trace:
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in END_TO_END_UNITS.items()}
    if args.trace and layers:
        values = close_layers(median_metrics(layers))
        # Per traced run: the ledger's covered wall, the sum of its layer
        # self times (equal by construction of the tiling) and the
        # tracer's process wall seen from outside.
        closure = [{"covered_s": r["obs.covered_s"],
                    "self_sum_s": sum(r[f"{l}.self_s"] for l in LAYERS),
                    "traced_wall_s": r["obs.traced_wall_s"]} for r in layers]
        info("per-layer", {"traced_runs": len(layers), "closure": closure,
                           **values})
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: seeded inputs, a timed run, and output checks.

Each workload drives the public API the way its users do, checks every
output against a reference that does not come from the code path being
timed, and fills the end-to-end slots of :mod:`metrics`.  ``setup()``
builds the inputs (and may return seconds of it that were only waiting,
which the runner leaves out of ``setup_s``), ``close()`` releases them
(set-up may run again after it); ``run(seconds, tracer)`` measures for
about ``seconds`` and returns a :class:`RunResult`.  The tracer is a
:class:`tracer.NullTracer` in untraced runs.

Times are scaled by speed probes (:mod:`calibrate`), and the unscaled
headline is kept in ``detail``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import random
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field

from calibrate import SpeedProbe
from metrics import STAGES

#: most problems a run keeps verbatim (the count is always exact)
MAX_PROBLEMS = 20

#: report fields that vary run to run (timings, cache state)
RUNTIME_FIELDS = (
    "stages", "peak_memory", "functions_total", "functions_reanalyzed",
    "sites_total", "sites_reexecuted",
)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def dir_bytes(path: str) -> int:
    total = 0
    for parent, __, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(parent, name))
            except OSError:
                continue
    return total


def stable_doc(doc: dict) -> str:
    """A report document without its run-dependent fields, canonically."""
    return json.dumps(
        {k: v for k, v in doc.items() if k not in RUNTIME_FIELDS},
        sort_keys=True,
    )


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: checked outputs keyed by input, compared between traced and
    #: untraced runs of the same inputs
    outputs: dict[str, str] = field(default_factory=dict)
    #: end-to-end slot values (``setup_s`` is measured by the runner)
    slots: dict[str, float] = field(default_factory=dict)
    #: facts about the run: name -> (value, unit)
    detail: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: units of work done; per-layer totals are divided by it
    units: int = 0
    #: per-layer values the workload measures itself (already per unit)
    layer: dict[str, float] = field(default_factory=dict)
    #: median probe scale factor of the run
    speed: float = 1.0

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)


def _add_stages(totals: dict[str, float], stages: dict, scale: float) -> None:
    """Fold one report's ``stages`` (objects or documents) into totals."""
    for stage in STAGES:
        entry = stages.get(stage)
        if entry is not None:
            seconds = entry["seconds"] if isinstance(entry, dict) else entry.seconds
            totals[stage] = totals.get(stage, 0.0) + seconds * scale


def _layer(units: int, stages: dict[str, float], **values: float) -> dict:
    """Workload-owned per-layer values; unset ones read 0."""
    out = {
        "fleet.twins": 0.0,
        "store.bytes_written": 0.0,
        "service.submit_ms": 0.0,
        "service.queue_wait_ms": 0.0,
        "service.run_ms": 0.0,
        "service.poll_overshoot_ms": 0.0,
        "service.batch_jobs": 0.0,
    }
    out.update(values)
    for stage in STAGES:
        out[f"pass.{stage}_s"] = stages.get(stage, 0.0) / units
    return out


def _check_policy(binary, report_doc: dict, result: RunResult) -> bool:
    """Check one analysis outcome (an ``AnalysisReport`` document)
    against the generator's plan.

    A successful report must allow every syscall the generator planted
    (``planned_syscalls``).  A budget failure is a legitimate outcome and
    is counted, never dropped; a load failure is an error.  Returns
    whether the outcome was a budget failure.
    """
    if report_doc["success"]:
        missing = binary.planned_syscalls - set(report_doc["syscalls"])
        if missing:
            result.fail(
                f"{binary.name}: policy misses planned syscalls "
                f"{sorted(missing)}"
            )
        return False
    if report_doc["failure_stage"] == "load":
        result.fail(
            f"{binary.name}: load failure: {report_doc['failure_reason']}"
        )
        return False
    return True


# ----------------------------------------------------------------------
# fleet-cold
# ----------------------------------------------------------------------

class FleetCold:
    """The paper's Table-2 sweep: the whole generated Debian corpus
    through ``FleetAnalyzer(workers=1)`` with no artifact store."""

    name = "fleet-cold"
    unit = "fleet pass"

    def __init__(self, seed: int, workdir: str, *, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.corpus = None

    def setup(self) -> None:
        from repro.corpus.debian import make_debian_corpus

        make_debian_corpus.cache_clear()  # every set-up generates afresh
        self.corpus = make_debian_corpus(scale=self.scale, seed=self.seed)

    def close(self) -> None:
        self.corpus = None

    def run(self, seconds: float, tracer) -> RunResult:
        from repro.core.fleet import FleetAnalyzer
        from repro.loader.image import LoadedImage

        binaries = self.corpus.binaries
        result = RunResult()
        probe = SpeedProbe()
        walls: list[float] = []
        raw_walls: list[float] = []
        fills: list[float] = []
        bin_ms: list[float] = []
        #: each pass's p95: a stall of the host inflates one pass's tail,
        #: and the median over passes leaves it out
        tails: list[float] = []
        stages: dict[str, float] = {}
        twins = budget_failed = 0
        first_stable = None
        policy_mean = 0.0
        deadline = time.perf_counter() + seconds
        before = probe.probe()
        while not walls or time.perf_counter() < deadline:
            with tracer.span("bench.fleet_pass"):
                started = time.perf_counter()
                resolver = self.corpus.make_resolver()
                images = [
                    LoadedImage.from_bytes(b.name, b.program.elf_bytes)
                    for b in binaries
                ]
                fleet = FleetAnalyzer(resolver, workers=1)
                fill_started = time.perf_counter()
                fleet.warm_interfaces(images)
                fill = time.perf_counter() - fill_started
                report = fleet.analyze_images(images)
                wall = time.perf_counter() - started
            after = probe.probe()
            scale = probe.factor(before, after)
            before = after
            raw_walls.append(wall)
            walls.append(wall * scale)
            fills.append(fill * scale)
            with tracer.paused():
                pass_ms: list[float] = []
                for binary, entry in zip(binaries, report.entries):
                    result.attempted += 1
                    if entry.from_cache:
                        twins += 1  # no store: only intra-run dedup serves
                    else:
                        pass_ms.append(entry.seconds * 1e3 * scale)
                        _add_stages(stages, entry.report.stages, scale)
                    doc = entry.report.to_doc(include_runtime=False)
                    budget_failed += _check_policy(binary, doc, result)
                bin_ms += pass_ms
                tails.append(percentile(pass_ms, 0.95))
                stable = report.to_json(include_runtime=False)
                if first_stable is None:
                    first_stable = stable
                    policy_mean = report.average_syscalls()
                    result.outputs = {
                        e.name: stable_doc(e.to_doc(include_runtime=False))
                        for e in report.entries
                    }
                elif stable != first_stable:
                    result.fail("fleet report differs between passes")

        passes = len(walls)
        n = len(binaries)
        result.units = passes
        result.speed = probe.median_factor()
        result.slots = {
            "throughput_per_s": n / statistics.median(walls),
            "typical_ms": percentile(bin_ms, 0.50),
            "tail_ms": statistics.median(tails),
            "cold_ms": statistics.fmean(bin_ms),
            "fill_ms": statistics.median(fills) * 1e3,
            "policy_syscalls_mean": policy_mean,
        }
        result.detail = {
            "raw_binaries_per_s": (n / statistics.median(raw_walls), "1/s"),
            "passes": (passes, "count"),
            "bin_samples": (len(bin_ms), "count"),
            "twin_frac": (twins / result.attempted, "ratio"),
            "failed_frac": (budget_failed / result.attempted, "ratio"),
            "budget_failures_per_pass": (budget_failed / passes, "count"),
        }
        result.layer = _layer(passes, stages, **{"fleet.twins": twins / passes})
        return result


# ----------------------------------------------------------------------
# incremental-chain
# ----------------------------------------------------------------------

class IncrementalChain:
    """A 1 600-function binary analyzed incrementally into an empty
    store, then a chain of 3-function updates, each rebuilt against the
    store and analyzed cold as the reference."""

    name = "incremental-chain"
    unit = "round"

    #: functions each version changes
    CHANGED = 3

    def __init__(self, seed: int, workdir: str, *, n_funcs: int = 1600,
                 versions: int = 4):
        self.seed = seed
        self.workdir = workdir
        self.n_funcs = n_funcs
        self.n_versions = versions
        self.program_name = ""
        self.chain: list[bytes] = []

    def setup(self) -> None:
        from repro.corpus.mutate import mutate_program
        from repro.perf.incbench import build_incremental_workload

        program = build_incremental_workload(self.n_funcs)
        chain = [program.elf_bytes]
        for step in range(self.n_versions):
            chain.append(mutate_program(
                chain[-1], program.name, self.CHANGED,
                seed=self.seed * 1009 + step,
            ).elf_bytes)
        self.program_name = program.name
        self.chain = chain

    def close(self) -> None:
        self.chain = []

    def run(self, seconds: float, tracer) -> RunResult:
        from repro.core import ArtifactStore, BSideAnalyzer
        from repro.core.report import AnalysisBudget
        from repro.loader.image import LoadedImage

        budget = AnalysisBudget.generous()
        name = self.program_name
        result = RunResult()
        probe = SpeedProbe()
        firsts: list[float] = []
        rebuilds: list[float] = []
        raw_rebuilds: list[float] = []
        colds: list[float] = []
        stages: dict[str, float] = {}
        policy: list[int] = []
        reanalyzed: list[int] = []
        reexecuted: list[int] = []
        regions = anchors = 0
        written = 0
        rounds = 0
        deadline = time.perf_counter() + seconds
        while rounds == 0 or time.perf_counter() < deadline:
            store_dir = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
            try:
                before = probe.probe()
                for index, data in enumerate(self.chain):
                    with tracer.span("bench.incremental"):
                        started = time.perf_counter()
                        incremental = BSideAnalyzer(
                            budget=budget,
                            artifact_store=ArtifactStore(store_dir),
                            incremental=True,
                        ).analyze(LoadedImage.from_bytes(name, data))
                        inc_s = time.perf_counter() - started
                    with tracer.span("bench.cold"):
                        started = time.perf_counter()
                        cold = BSideAnalyzer(budget=budget).analyze(
                            LoadedImage.from_bytes(name, data)
                        )
                        cold_s = time.perf_counter() - started
                    after = probe.probe()
                    scale = probe.factor(before, after)
                    before = after
                    if index:
                        rebuilds.append(inc_s * scale)
                        raw_rebuilds.append(inc_s)
                    else:
                        firsts.append(inc_s * scale)
                    colds.append(cold_s * scale)
                    result.attempted += 2
                    with tracer.paused():
                        inc_doc = incremental.to_doc()
                        cold_doc = cold.to_doc()
                    _add_stages(stages, inc_doc["stages"], scale)
                    _add_stages(stages, cold_doc["stages"], scale)
                    if not (incremental.success and cold.success):
                        result.fail(f"version {index}: analysis failed")
                    if stable_doc(inc_doc) != stable_doc(cold_doc):
                        result.fail(
                            f"version {index}: incremental report differs "
                            "from the cold report of the same bytes"
                        )
                    if rounds == 0:
                        result.outputs[f"v{index}"] = stable_doc(inc_doc)
                    policy.append(len(incremental.syscalls))
                    if index:
                        regions = incremental.functions_total
                        anchors = incremental.sites_total
                        reanalyzed.append(incremental.functions_reanalyzed)
                        reexecuted.append(incremental.sites_reexecuted)
                written += dir_bytes(store_dir)
            finally:
                shutil.rmtree(store_dir, ignore_errors=True)
            rounds += 1

        result.units = rounds
        result.speed = probe.median_factor()
        result.slots = {
            "throughput_per_s": len(rebuilds) / sum(rebuilds),
            "typical_ms": statistics.median(rebuilds) * 1e3,
            # few rebuilds per run: the upper quartile is the tail
            # that has several samples beyond it
            "tail_ms": percentile(rebuilds, 0.75) * 1e3,
            "cold_ms": statistics.median(colds) * 1e3,
            "fill_ms": statistics.median(firsts) * 1e3,
            "policy_syscalls_mean": statistics.fmean(policy),
        }
        result.detail = {
            "raw_rebuild_ms": (statistics.median(raw_rebuilds) * 1e3, "ms"),
            "rounds": (rounds, "count"),
            "rebuild_samples": (len(rebuilds), "count"),
            "failed_frac": (result.failed / result.attempted, "ratio"),
            "regions": (regions, "count"),
            "regions_reanalyzed_per_version": (
                statistics.fmean(reanalyzed), "count"),
            "anchors": (anchors, "count"),
            "anchors_reexecuted_per_version": (
                statistics.fmean(reexecuted), "count"),
        }
        result.layer = _layer(
            rounds, stages, **{"store.bytes_written": written / rounds},
        )
        return result


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------

class ServiceMixed:
    """The default ``bside serve`` deployment (asyncio front end,
    in-process dispatcher, flat store) under two closed-loop clients
    submitting a seeded 3:1 mix of already-analyzed and new binaries.

    The clients stop between segments of the timed window while the
    process probes host speed.  Throughput, the warm mean and CPU per job
    are scaled by those probes; the percentiles that sit on a step of the
    client's fixed poll sleep are not.

    New binaries never run out, however fast the service gets: the
    distinct binaries outside the warm set are submitted first, then
    copies of them, each with a distinct trailer appended (a rebuild
    that changed no code: new bytes, the same analysis).
    """

    name = "service-mixed"
    unit = "job"

    #: one submission in each block of this many is a first submission,
    #: at a seeded place in the block: the mix is exactly 3:1 in every
    #: run, so a seed's luck with the mix does not move the per-job times
    MIX_BLOCK = 4
    #: closed-loop client threads (the recording host has 2 vCPUs)
    CLIENTS = 2
    #: probe-bracketed pieces of the timed window
    SEGMENTS = 10

    def __init__(self, seed: int, workdir: str, *, scale: float = 1.0,
                 warm_set: int = 48):
        self.seed = seed
        self.workdir = workdir
        self.scale = scale
        self.warm_set = warm_set
        self.root: str | None = None
        self.server = None
        self.binaries: dict[str, object] = {}
        self.warm: list[str] = []
        self.cold: list[str] = []
        self.cold_next = 0
        self.runs = 0

    def setup(self) -> float:
        """Returns the seconds set-up spent only waiting for its client's
        next poll after the store was populated; that is not set-up work."""
        from repro.corpus.debian import make_debian_corpus
        from repro.service import AnalysisService, AsyncServiceServer, ServiceClient

        make_debian_corpus.cache_clear()
        corpus = make_debian_corpus(scale=self.scale, seed=self.seed)
        root = self.root = tempfile.mkdtemp(prefix="service-", dir=self.workdir)
        libdir = os.path.join(root, "lib")
        bindir = os.path.join(root, "bin")
        os.makedirs(libdir)
        os.makedirs(bindir)
        for name, library in corpus.libraries.items():
            with open(os.path.join(libdir, name), "wb") as f:
                f.write(library.elf_bytes)
        distinct: dict[str, str] = {}
        for binary in corpus.binaries:
            path = os.path.join(bindir, binary.name)
            with open(path, "wb") as f:
                f.write(binary.program.elf_bytes)
            self.binaries[binary.name] = binary
            digest = hashlib.sha256(binary.program.elf_bytes).hexdigest()
            distinct.setdefault(digest, path)
        paths = sorted(distinct.values())
        random.Random(self.seed).shuffle(paths)
        self.warm = paths[:self.warm_set]
        self.cold = paths[self.warm_set:]
        self.cold_next = 0

        service = AnalysisService(os.path.join(root, "state"), libdir=libdir)
        self.server = AsyncServiceServer(service, port=0)
        self.server.start()
        # Store population: every warm binary analyzed once.
        client = ServiceClient(self.server.url)
        jobs = [client.submit_path(path) for path in self.warm]
        finished = 0.0
        for job in jobs:
            done = client.wait(job["id"])
            if done["status"] != "done":
                raise RuntimeError(
                    f"set-up job {job['id']} ended {done['status']}"
                )
            finished = max(finished, done["finished_at"])
        return time.time() - finished

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None
        self.binaries = {}

    def _cold_path(self, index: int) -> str:
        """The path of the ``index``-th first submission since set-up."""
        path = self.cold[index % len(self.cold)]
        copy = index // len(self.cold)
        if copy == 0:
            return path
        directory = os.path.join(self.root, "copies", str(copy))
        os.makedirs(directory, exist_ok=True)
        target = os.path.join(directory, os.path.basename(path))
        with open(path, "rb") as f:
            data = f.read()
        with open(target, "wb") as f:
            f.write(data + f"\0perfbench copy {copy}\0".encode())
        return target

    def run(self, seconds: float, tracer) -> RunResult:
        from repro.service import ServiceClient

        #: the client's default poll interval, which ``wait`` sleeps
        #: between status polls
        poll = inspect.signature(ServiceClient.wait).parameters["poll"].default

        class PollCountingClient(ServiceClient):
            polls = 0

            def job(self, job_id: str) -> dict:
                self.polls += 1
                return super().job(job_id)

        url = self.server.url
        cache_dir = self.server.service.cache_dir
        rng = random.Random(self.seed * 7919 + self.runs)
        self.runs += 1
        lock = threading.Lock()
        samples: list[tuple] = []
        errors: list[str] = []
        copies_before = max(0, self.cold_next - len(self.cold))
        segment_end = 0.0
        issued = cold_slot = 0

        def next_job() -> tuple[str, str] | None:
            nonlocal issued, cold_slot
            with lock:
                if errors or time.perf_counter() >= segment_end:
                    return None
                slot = issued % self.MIX_BLOCK
                if slot == 0:
                    cold_slot = rng.randrange(self.MIX_BLOCK)
                issued += 1
                if slot == cold_slot:
                    self.cold_next += 1
                    return "cold", self._cold_path(self.cold_next - 1)
                return "warm", rng.choice(self.warm)

        def client_main(segment: int) -> None:
            client = PollCountingClient(url)
            try:
                while (item := next_job()) is not None:
                    kind, path = item
                    with tracer.span("bench.job"):
                        started = time.perf_counter()
                        job = client.submit_path(path)
                        submitted = time.perf_counter()
                        polls = client.polls
                        done = client.wait(job["id"])
                        slept = (client.polls - polls - 1) * poll
                        observed = time.time()
                        latency = time.perf_counter() - started
                        report = (
                            client.report(job["id"])
                            if done["status"] == "done" else None
                        )
                    with lock:
                        samples.append((
                            kind, path, latency, slept, submitted - started,
                            observed, done, report, segment,
                        ))
            except Exception as error:  # surfaced as a failed operation
                with lock:
                    errors.append(f"client: {type(error).__name__}: {error}")

        # The window is cut into segments.  Between two, the clients stop
        # and the idle process probes host speed, as between fleet passes;
        # each segment is scaled by the probes that bracket it.
        bytes_before = dir_bytes(cache_dir)
        probe = SpeedProbe()
        segments: list[tuple[float, float, float]] = []  # wall, cpu, scale
        before = probe.probe()
        for segment in range(self.SEGMENTS):
            threads = [
                threading.Thread(target=client_main, args=(segment,),
                                 name=f"perfbench-client-{i}")
                for i in range(self.CLIENTS)
            ]
            started = time.perf_counter()
            cpu_started = time.process_time()
            segment_end = started + seconds / self.SEGMENTS
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - started
            cpu = time.process_time() - cpu_started
            after = probe.probe()
            segments.append((wall, cpu, probe.factor(before, after)))
            before = after
        duration = sum(wall for wall, __, __ in segments)
        written = dir_bytes(cache_dir) - bytes_before
        speed = probe.median_factor()

        # Untimed: every distinct binary the timed loop did not reach, so
        # the checks and the policy mean cover the whole corpus however
        # fast the service is.  Traced runs skip it (the policy mean is
        # not a per-layer metric) to keep their spans to the timed loop.
        seen = {sample[1] for sample in samples}
        rest = [("warm", p) for p in self.warm if p not in seen]
        rest += [("cold", p) for p in self.cold[self.cold_next:]]
        self.cold_next = max(self.cold_next, len(self.cold))
        untimed: list[tuple] = []
        if rest and not errors and not tracer.active:
            client = ServiceClient(url)
            jobs = [(kind, p, client.submit_path(p)) for kind, p in rest]
            for kind, path, job in jobs:
                done = client.wait(job["id"])
                report = (client.report(job["id"])
                          if done["status"] == "done" else None)
                untimed.append((kind, path, done, report))

        result = RunResult()
        for error in errors:
            result.attempted += 1
            result.fail(error)
        budget_failed = 0
        policy: dict[str, int] = {}

        def check(kind: str, path: str, done: dict, report) -> bool:
            """Check one job's outcome; returns whether it yielded a report."""
            nonlocal budget_failed
            result.attempted += 1
            binary = self.binaries[os.path.basename(path)]
            if report is None:
                result.fail(f"{binary.name}: job ended {done['status']}: "
                            f"{done.get('error', '')}")
                return False
            budget_failed += _check_policy(binary, report, result)
            if report["success"]:
                policy[binary.name] = len(report["syscalls"])
            from_cache = bool(done["metrics"].get("from_cache"))
            if from_cache != (kind == "warm"):
                result.fail(f"{binary.name}: {kind} job served with "
                            f"from_cache={from_cache}")
            result.outputs[binary.name] = stable_doc(report)
            return True

        for item in untimed:
            check(*item)
        warm_ms: list[float] = []
        cold_ms: list[float] = []
        submit_ms: list[float] = []
        queue_ms: list[float] = []
        run_ms: list[float] = []
        overshoot_ms: list[float] = []
        batch: list[int] = []
        stages: dict[str, float] = {}
        raw_warm_ms: list[float] = []
        for (kind, path, latency, slept, submit_s, observed, done, report,
             segment) in samples:
            if not check(kind, path, done, report):
                continue
            run = done["finished_at"] - done["started_at"]
            scale = segments[segment][2]
            # the poll sleep is fixed; only the rest is the program working
            scaled = (slept + (latency - slept) * scale) * 1e3
            if kind == "warm":
                warm_ms.append(scaled)
                raw_warm_ms.append(latency * 1e3)
            else:
                cold_ms.append(scaled)
                _add_stages(stages, report.get("stages", {}), scale)
            submit_ms.append(submit_s * 1e3)
            queue_ms.append((done["started_at"] - done["submitted_at"]) * 1e3)
            run_ms.append(run * 1e3)
            overshoot_ms.append((observed - done["finished_at"]) * 1e3)
            batch.append(done["metrics"].get("batch_size", 0))

        jobs = len(samples)
        if not warm_ms or not cold_ms:
            result.fail(f"run finished {len(warm_ms)} warm and "
                        f"{len(cold_ms)} cold jobs; both are needed")
            warm_ms = warm_ms or [math.nan]
            raw_warm_ms = raw_warm_ms or [math.nan]
            cold_ms = cold_ms or [math.nan]
        units = max(1, jobs)
        # each segment's window with the clients' poll sleep unscaled
        slept = [0.0] * self.SEGMENTS
        for sample in samples:
            slept[sample[8]] += sample[3] / self.CLIENTS
        busy = sum(sleep + (wall - sleep) * scale for sleep, (wall, __, scale)
                   in zip(slept, segments))
        cpu = sum(cpu for __, cpu, __ in segments)
        scaled_cpu = sum(cpu * scale for __, cpu, scale in segments)
        result.units = units
        result.speed = speed
        result.slots = {
            "throughput_per_s": jobs / busy,
            "typical_ms": statistics.fmean(warm_ms),
            "tail_ms": percentile(warm_ms, 0.95),
            "cold_ms": percentile(cold_ms, 0.50),
            "fill_ms": scaled_cpu / units * 1e3,
            # per distinct binary of the corpus, so the seeded warm set
            # weighs no more than any other binary
            "policy_syscalls_mean": (
                statistics.fmean(policy.values()) if policy else 0.0),
        }
        result.detail = {
            "raw_jobs_per_s": (jobs / duration, "1/s"),
            "raw_warm_job_mean_ms": (statistics.fmean(raw_warm_ms), "ms"),
            "raw_cpu_ms_per_job": (cpu / units * 1e3, "ms"),
            "cold_job_p95_ms": (percentile(cold_ms, 0.95), "ms"),
            "jobs": (jobs, "count"),
            "warm_jobs": (len(warm_ms), "count"),
            "cold_jobs": (len(cold_ms), "count"),
            "cold_frac": (len(cold_ms) / units, "ratio"),
            "cold_copies": (
                max(0, self.cold_next - len(self.cold)) - copies_before,
                "count"),
            "untimed_jobs": (len(untimed), "count"),
            "failed_frac": (budget_failed / max(1, result.attempted), "ratio"),
            "duration_s": (duration, "s"),
        }

        def mean(values: list[float]) -> float:
            return statistics.fmean(values) if values else 0.0

        result.layer = _layer(units, stages, **{
            "store.bytes_written": written / units,
            "service.submit_ms": mean(submit_ms),
            "service.queue_wait_ms": mean(queue_ms),
            "service.run_ms": mean(run_ms),
            "service.poll_overshoot_ms": mean(overshoot_ms),
            "service.batch_jobs": mean(batch),
        })
        return result


WORKLOADS = {
    cls.name: cls for cls in (FleetCold, IncrementalChain, ServiceMixed)
}

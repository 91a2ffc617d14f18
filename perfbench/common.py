"""Shared pieces of the repository benchmark.

* locating the checkout's ``src/`` tree (the benchmark drives the
  program from source, never from an installed copy);
* the reference clock (:class:`Speed`), statistics and run provenance;
* :class:`Tracer` -- stage timing for every run and, in a traced run,
  ``repro.obs`` spans around each stage plus aggregated entry-point
  timers (count + total, never one span per hot call);
* :func:`train_package` -- the PME back-end steps every workload uses
  to obtain a model package, exactly as ``quickstart_pipeline`` runs
  them;
* :func:`replay_users` -- the YourAdValue closed loop: install, then
  observe row by row.

Timing on a small shared machine.  The speed of a 2-core box swings
~30% within a second and drifts as much over tens of seconds (a fixed
17 ms loop reads 12 to 24 ms from one sample to the next on either
core; identical 10 s pipeline passes took 8.5 to 14 s).  Thread CPU
time swings with wall time, and steal time stays under 1%, so it is
the core that runs slower, not the clock, and no CPU-time clock can
remove it.  Every timed metric is therefore read on a reference clock:
a fixed 20 ms loop of the benchmark's own runs before and after each
timed interval (each stage, each replayed user, each load step), and
the interval's wall time is scaled by ``REFERENCE_S`` over the
reference's mean time around it.  On a fixed 0.25 s piece of work this
cut the quartile spread of 8-sample medians from 0.22 to 0.08.  On
top, a run repeats identical work K times at moments spread over the
run and reports each item's median over the repeats.  The inputs of a
run depend only on its seed, never on how fast the machine or the code
is.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import json
import os
import platform
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: Simulation scale of every generated weblog.  One pipeline at scale
#: 0.1 takes ~18 s on a 2-core box; at 0.015 a run affords repeats and
#: reports their median.
SCALE = 0.015
#: Probe auctions per Table-5 setup: ``max(10, int(185 * scale))`` as
#: in ``quickstart_pipeline``.
AUCTIONS_PER_SETUP = max(10, int(185 * SCALE))
#: Seed of the probe market and PME behind every workload's model:
#: markets of different seeds differ ~30% in probe and training work,
#: and their forests in per-row inference cost, which would make times
#: a property of the seed.  The workload seed still draws every weblog
#: and request the workloads see.
MODEL_SEED = 20151231
#: Seed of the held-out weblog every workload scores its model on.  The
#: model being the ``MODEL_SEED`` one everywhere, accuracy is then a
#: property of the code alone: it moves when a change moves what the
#: model predicts, and with no seed and no noise.
HELDOUT_SEED = 20171101
#: The cores this process may run on, before ``run.py`` pins the
#: workload, and every process it starts, to the first.
CPUS = sorted(os.sched_getaffinity(0))


def require_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(ROOT))


# -- statistics -------------------------------------------------------------

def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return percentile(values, 50) if len(values) else 0.0


def item_medians(repeats) -> list[float]:
    """Item-wise median over repeats of the same items."""
    return [median(times) for times in zip(*repeats)]


def latencies(seconds) -> dict:
    """p50, p90 and p99 of a latency sample as metrics ``(ms, unit, n)``."""
    ms = [x * 1e3 for x in seconds]
    return {f"price_p{q}_ms": (percentile(ms, q), "ms", len(ms))
            for q in (50, 90, 99)}


#: What :func:`reference` takes, in seconds, on a 2-core box when it
#: runs fast; the unit of the reference clock.
REFERENCE_S = 0.02
_KEYS = [f"key-{i}" for i in range(97)]


def reference() -> float:
    """Seconds a fixed loop of dict, float and small-array work takes
    now -- the mix the program runs -- with the garbage collector off,
    so that the program's heap does not enter it."""
    import numpy as np

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[str, float] = {}
        for i in range(120_000):
            key = _KEYS[i % 97]
            table[key] = table.get(key, 0.0) + i * 0.5
        values = np.arange(64.0)
        for _ in range(6_000):
            values = np.sqrt(values + 1.0)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """The reference clock: :func:`reference` samples in run order.

    ``factor(since)`` converts wall seconds into reference seconds for
    an interval whose first reference sample has index ``since`` and
    whose last is the newest.  ``spent`` is the wall time all samples
    took, so an interval can take out the samples that ran inside it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> int:
        """Measure the reference now; return the sample's index."""
        start = time.perf_counter()
        self.samples.append(reference())
        self.spent += time.perf_counter() - start
        return len(self.samples) - 1

    def factor(self, since: int) -> float:
        recent = self.samples[since:]
        return REFERENCE_S * len(recent) / sum(recent)


def settle() -> None:
    """Collect what earlier steps left behind, so that a timed window
    does not pay for their garbage."""
    gc.collect()


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of another process, from ``/proc``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def provenance(seed: int) -> dict:
    """Machine, software and load state a result was measured under."""
    import numpy

    from benchmarks._record import provenance as record_provenance

    return {
        **record_provenance(),
        "nproc": len(CPUS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m_start": os.getloadavg()[0],
        "seed": seed,
    }


# -- tracing ----------------------------------------------------------------

class Tracer:
    """Stage clock for one run; with ``enabled``, also the layer probes.

    ``stage`` always accumulates time per stage name: wall time, or
    with a ``speed`` reference time, the reference sampled as the stage
    opens and closes and the samples taken inside it left out.  When
    enabled it additionally opens a ``repro.obs`` span per stage, and
    inside :meth:`traced` the program's public entry points are wrapped
    with aggregated timers keyed by the innermost open stage.
    """

    #: (owner path, attribute, probe name, timed) -- the entry points
    #: each layer's work passes through.
    PROBES = (
        ("repro.rtb.exchange:AdExchange", "run_auction", "rtb.run_auction", True),
        ("repro.rtb.bidding:Dsp", "respond", "rtb.respond", False),
        ("repro.rtb.campaign:Campaign", "eligible_for", "rtb.eligible_for", False),
        ("repro.core.estimator:Estimator", "estimate", "ml.estimate", True),
        ("repro.core.estimator:Estimator", "estimate_one", "ml.estimate_one", True),
        ("repro.core.price_model:EncryptedPriceModel", "from_package",
         "core.from_package", True),
        ("repro.core.youradvalue:YourAdValue", "observe", "core.observe", True),
    )

    def __init__(self, enabled: bool, speed: Speed | None = None):
        self.enabled = enabled
        self.speed = speed
        self.current: str | None = None
        self.stage_s: dict[str, float] = defaultdict(float)
        #: (stage, probe) -> [calls, seconds, hits]
        self.calls: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0])
        #: work counts the workloads report (rows, observations, ...)
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple] = []

    @contextmanager
    def stage(self, name: str, **attrs):
        from repro import obs

        outer, self.current = self.current, name
        speed = self.speed
        if speed:
            since, spent = speed.sample(), speed.spent
        start = time.perf_counter()
        try:
            if self.enabled:
                with obs.span(name, **attrs):
                    yield
            else:
                yield
        finally:
            elapsed = time.perf_counter() - start
            if speed:
                elapsed -= speed.spent - spent
                speed.sample()
                elapsed *= speed.factor(since)
            self.stage_s[name] += elapsed
            self.current = outer

    def around(self, call):
        """``call()``'s result, and the factor from wall to reference
        seconds of the interval it ran in (1 without a ``speed``)."""
        if not self.speed:
            return call(), 1.0
        since = self.speed.sample()
        result = call()
        self.speed.sample()
        return result, self.speed.factor(since)

    def add(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    @contextmanager
    def traced(self, name: str):
        """With the tracer enabled: probes installed and a trace open.

        Yields the ``repro.obs`` collector, or None when disabled.
        """
        if not self.enabled:
            yield None
            return
        from repro import obs

        self._install()
        try:
            with obs.start_trace(name) as collector:
                yield collector
        finally:
            self._uninstall()

    def _install(self) -> None:
        import importlib

        for owner_path, attr, probe, timed in self.PROBES:
            module, _, cls_name = owner_path.partition(":")
            owner = getattr(importlib.import_module(module), cls_name)
            original = owner.__dict__[attr]
            is_cm = isinstance(original, classmethod)
            func = original.__func__ if is_cm else original
            wrapper = self._wrap(func, probe, timed)
            setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
            self._restore.append((owner, attr, original))

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, func, probe: str, timed: bool):
        calls = self.calls
        tracer = self

        if not timed:
            @functools.wraps(func)
            def counted(*args, **kwargs):
                calls[(tracer.current, probe)][0] += 1
                return func(*args, **kwargs)
            return counted

        @functools.wraps(func)
        def timed_call(*args, **kwargs):
            start = time.perf_counter()
            result = func(*args, **kwargs)
            cell = calls[(tracer.current, probe)]
            cell[0] += 1
            cell[1] += time.perf_counter() - start
            if result is not None:
                cell[2] += 1
            return result
        return timed_call

    def probe(self, name: str, stages=None) -> tuple[int, float, int]:
        """(calls, seconds, non-None results) of a probe over ``stages``."""
        n = s = hits = 0
        for (stage, probe), (c, t, h) in self.calls.items():
            if probe == name and (stages is None or stage in stages):
                n, s, hits = n + c, s + t, hits + h
        return n, s, hits


def rollup(traces) -> dict:
    """The span trees of ``repro.obs`` collectors, same-named siblings
    merged, with self times: a span's duration minus the time its
    children cover."""
    return _merge({"children": [t.tree() for t in traces]})


def _merge(node: dict) -> dict:
    merged: dict[str, dict] = {}
    for child in node.get("children", []):
        entry = merged.setdefault(
            child["name"], {"name": child["name"], "count": 0,
                            "total_s": 0.0, "_kids": []})
        entry["count"] += 1
        entry["total_s"] += child["duration"]
        entry["_kids"].extend(child.get("children", []))
    children = []
    for entry in merged.values():
        sub = _merge({"children": entry.pop("_kids")})
        entry["self_s"] = entry["total_s"] - sum(
            c["total_s"] for c in sub["children"])
        entry["children"] = sub["children"]
        children.append(entry)
    return {"children": children}


# -- the PME back-end steps -------------------------------------------------

def simulation_config(seed: int):
    from repro.trace import default_config

    return dataclasses.replace(default_config().scaled(SCALE), seed=seed)


def train_package(tracer: Tracer, seed: int, model_seed: int | None = None
                  ) -> dict:
    """Simulate, analyse, probe, train and package, as the quickstart does.

    ``seed`` drives dataset D; ``model_seed`` (default ``seed``) drives
    the market the probe campaigns run in and the PME, and with them
    the trained forest.  Returns the artefacts by name: ``dataset``,
    ``directory``, ``analysis``, ``time_correction``, ``estimator`` and
    ``package``.
    """
    from repro import Estimator, PriceModelingEngine
    from repro.core.pme import mopub_cleartext_prices
    from repro.trace import build_market
    from repro.util.rng import RngRegistry

    model_seed = seed if model_seed is None else model_seed
    dataset = simulate(tracer, seed)
    directory, analysis = analyze(tracer, dataset)
    with tracer.stage("probes"):
        pme = PriceModelingEngine(seed=model_seed)
        pme.bootstrap(analysis, use_paper_features=True)
        config = simulation_config(model_seed)
        market = build_market(config, RngRegistry(config.seed))
        a1, a2 = pme.run_probe_campaigns(
            market, auctions_per_setup=AUCTIONS_PER_SETUP)
    tracer.add("campaigns.impressions", len(a1.impressions) + len(a2.impressions))
    with tracer.stage("train"):
        pme.train_model(evaluate=False, workers=1)
    tracer.add("ml.train_rows", len(a1.impressions))
    with tracer.stage("package"):
        pme.compute_time_correction(mopub_cleartext_prices(analysis))
        package = pme.package_model()
        estimator = Estimator.from_package(package)
    return {
        "dataset": dataset,
        "directory": directory,
        "analysis": analysis,
        "time_correction": pme.state.time_correction,
        "estimator": estimator,
        "package": package,
    }


def simulate(tracer: Tracer, seed: int):
    """A seeded weblog at the benchmark's scale."""
    from repro.trace import simulate_dataset

    with tracer.stage("simulate"):
        dataset = simulate_dataset(simulation_config(seed))
    tracer.add("trace.weblog_rows", len(dataset.rows))
    return dataset


def analyze(tracer: Tracer, dataset):
    """The weblog's publisher directory and its single-worker analysis."""
    from repro import PublisherDirectory, WeblogAnalyzer
    from repro.trace.weblog import KIND_NURL

    with tracer.stage("analyze"):
        directory = PublisherDirectory.from_universe(dataset.universe)
        analysis = WeblogAnalyzer(directory).analyze(dataset.rows, workers=1)
    tracer.add("analyzer.rows", len(dataset.rows))
    tracer.add("analyzer.observations", len(analysis.observations))
    tracer.add("analyzer.encrypted", len(analysis.encrypted()))
    tracer.add("analyzer.nurl_rows",
               sum(1 for r in dataset.rows if r.kind == KIND_NURL))
    return directory, analysis


def heldout_accuracy(estimator) -> tuple[float, int]:
    """Price-class accuracy of ``estimator`` on the encrypted
    notifications of the held-out weblog, and their number; untimed."""
    from repro.core.cost import estimation_accuracy

    quiet = Tracer(enabled=False)
    dataset = simulate(quiet, HELDOUT_SEED)
    _, analysis = analyze(quiet, dataset)
    acc = estimation_accuracy(analysis, estimator, true_prices(dataset))
    return acc["class_accuracy"], acc["n"]


def rows_by_user(dataset) -> dict:
    """The weblog's rows grouped by user, in weblog order."""
    out = defaultdict(list)
    for row in dataset.rows:
        out[row.user_id].append(row)
    return out


def replay_users(tracer: Tracer, package: dict, directory, users) -> dict:
    """The YourAdValue closed loop over ``users`` ((user id, rows) pairs).

    Each user installs the package, then feeds their rows one by one
    through ``observe``, each after the previous returned.  Returns the
    install time per user, the ``observe`` time per row and whether
    that row was an encrypted notification (in replay order), and each
    user's ledger.  With the tracer's ``speed``, times are in reference
    seconds, the reference sampled after each user.
    """
    from repro import YourAdValue

    speed = tracer.speed
    install_s, row_s, encrypted, ledgers = [], [], [], {}
    with tracer.stage("yav_replay"):
        for user_id, rows in users:
            since = len(speed.samples) - 1 if speed else 0
            first = len(row_s)
            start = time.perf_counter()
            client = YourAdValue(package, directory)
            install_s.append(time.perf_counter() - start)
            for row in rows:
                start = time.perf_counter()
                entry = client.observe(row)
                row_s.append(time.perf_counter() - start)
                encrypted.append(entry is not None and entry.encrypted)
            ledgers[user_id] = client.ledger
            if speed:
                speed.sample()
                factor = speed.factor(since)
                install_s[-1] *= factor
                row_s[first:] = [t * factor for t in row_s[first:]]
    return {"install_s": install_s, "row_s": row_s, "encrypted": encrypted,
            "ledgers": ledgers}


def replay_metrics(replays: list[dict]) -> dict:
    """Latency and install metrics of identical replays: each row's and
    each install's median time over the replays."""
    rows = item_medians(r["row_s"] for r in replays)
    encrypted = [t for t, enc in zip(rows, replays[0]["encrypted"]) if enc]
    install = item_medians(r["install_s"] for r in replays)
    return {
        **latencies(encrypted),
        "install_ms": (median(install) * 1e3, "ms", len(install)),
        # every row's time counts, installs do not
        "replay_estimates_per_s": (len(encrypted) / sum(rows), "1/s",
                                   len(encrypted)),
    }


def overhead_pct(untraced: list[float], traced: float) -> float:
    """Tracing overhead: a traced time against the mean of the untraced
    times taken just before and just after it."""
    return (traced * len(untraced) / sum(untraced) - 1.0) * 100.0


def backend_layers(tracer: Tracer, package: dict) -> dict:
    """Per-layer metrics of the back-end stages of one traced run."""
    st, c = tracer.stage_s, tracer.counts
    sim_n, sim_s, _ = tracer.probe("rtb.run_auction", {"simulate"})
    probe_n, _, _ = tracer.probe("rtb.run_auction", {"probes"})
    all_n, all_s, wins = tracer.probe("rtb.run_auction")
    nodes, depth = forest_shape(package)
    return {
        "trace.simulate_s": st["simulate"],
        "trace.self_s": st["simulate"] - sim_s,
        "trace.weblog_rows": c["trace.weblog_rows"],
        "trace.auctions": sim_n,
        "rtb.run_auction.calls": all_n,
        "rtb.run_auction_s": all_s,
        "rtb.respond.calls": tracer.probe("rtb.respond")[0],
        "rtb.eligible_for.calls": tracer.probe("rtb.eligible_for")[0],
        "rtb.win_ratio": _ratio(wins, all_n),
        "campaigns.probe_s": st["probes"],
        "campaigns.auctions": probe_n,
        "campaigns.impressions": c["campaigns.impressions"],
        "campaigns.win_ratio": _ratio(c["campaigns.impressions"], probe_n),
        "analyzer.analyze_s": st["analyze"],
        "analyzer.rows_per_s": _ratio(c["analyzer.rows"], st["analyze"]),
        "analyzer.observations": c["analyzer.observations"],
        "analyzer.encrypted": c["analyzer.encrypted"],
        "analyzer.nurl_yield": _ratio(c["analyzer.observations"],
                                      c["analyzer.nurl_rows"]),
        "ml.train_s": st["train"],
        "ml.train_rows": c["ml.train_rows"],
        "ml.tree_nodes": nodes,
        "ml.max_depth": depth,
        "core.package_s": st["package"],
        "core.package_bytes": len(json.dumps(package)),
    }


def client_layers(tracer: Tracer, stage: str = "yav_replay") -> dict:
    """Per-layer metrics of installs, and of observes and single-row
    estimates inside ``stage``."""
    one_n, one_s, _ = tracer.probe("ml.estimate_one", {stage})
    obs_n, obs_s, _ = tracer.probe("core.observe", {stage})
    fp_n, fp_s, _ = tracer.probe("core.from_package")
    return {
        "ml.predict_one_ms": _ratio(one_s * 1e3, one_n),
        "core.from_package_ms": _ratio(fp_s * 1e3, fp_n),
        "core.observe_parse_us": _ratio((obs_s - one_s) * 1e6, obs_n),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def true_prices(dataset) -> dict[str, float]:
    """Encrypted token -> simulator ground-truth charge price."""
    return {
        i.record.notification.encrypted_price: i.charge_price_cpm
        for i in dataset.impressions
        if i.is_encrypted
    }


def forest_shape(package: dict) -> tuple[int, int]:
    """(total nodes, max depth) of the packaged forest."""
    nodes = depth = 0
    stack = [(tree["root"], 0) for tree in package["forest"]["trees"]]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        if "left" in node:
            stack.append((node["left"], d + 1))
            stack.append((node["right"], d + 1))
    return nodes, depth

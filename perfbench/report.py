"""Turn one workload run into the benchmark's metrics.

End-to-end metrics come from untraced runs; per-layer metrics come only
from traced runs (``--trace 1``), from the :class:`~spans.Tracer`'s
tallies over the timed window plus the program's own counters
(``BatchReport.cache_info``, store ``stats()``, service ``stats()``, job
status timestamps).  Time per call is in ``s/op``; work per job is per
job completed in the window; ``ocu.model_evals`` is per cold cache, so
on ``fig9-warm`` it is the cold fill's bill.
"""

from __future__ import annotations

import math
import statistics

from hooks import LAYERS, layer_of

#: End-to-end metric -> unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "hit_p50_ms": "ms",
    "speedup_vs_isa": "ratio",
    "pulse_latency_geomean_ns": "ns",
    "peak_rss_mb": "MB",
}

_PASSES = (
    "lower",
    "detect_diagonals",
    "logical_schedule",
    "place_and_route",
    "hand_optimize",
    "aggregate",
    "final_schedule",
)

_PASS_MOVES = "jobs_per_s on fig9-warm; none predicted on service-mixed"
_CACHE_MOVES = (
    "jobs_per_s on grape-cold (remote backend), job_p50_ms on "
    "service-mixed (sharded backend); fig9-warm covers the memory backend"
)
_JOURNAL_MOVES = "job_p50_ms, job_p90_ms, hit_p50_ms, jobs_per_s on service-mixed"
_WIRE_MOVES = "hit_p50_ms on service-mixed, jobs_per_s on grape-cold"
_GRAPE_MOVES = "jobs_per_s on grape-cold; zero (none predicted) elsewhere"
_QUEUE_MOVES = "job_p90_ms on service-mixed"

#: Per-layer metric -> (unit, the end-to-end metric and workload it
#: should move).
PER_LAYER = {
    **{f"pass.{name}.s": ("s/job", _PASS_MOVES) for name in _PASSES},
    "pass.manager_overhead.s": ("s/job", _PASS_MOVES),
    "aggregate.instructions_out": (
        "count/job",
        "speedup_vs_isa and pulse_latency_geomean_ns on fig9-warm",
    ),
    "ocu.latency.calls": ("count/job", "setup_s on fig9-warm, job_p50_ms on service-mixed"),
    "ocu.latency.s": ("s/job", "setup_s on fig9-warm, job_p50_ms on service-mixed"),
    "ocu.model_evals": ("count/fill", "setup_s on fig9-warm, job_p50_ms on service-mixed"),
    "ocu.hit_ratio": ("ratio", "setup_s on fig9-warm, job_p50_ms on service-mixed"),
    "grape.calls": ("count/job", _GRAPE_MOVES),
    "grape.evals": ("count/job", _GRAPE_MOVES),
    "grape.s": ("s/job", _GRAPE_MOVES),
    "grape.s_per_eval": ("s/op", _GRAPE_MOVES),
    "prewarm.dedup_ratio": ("ratio", _GRAPE_MOVES),
    "prewarm.plan_s": ("s/batch", _GRAPE_MOVES),
    "prewarm.synthesis_s": ("s/batch", _GRAPE_MOVES),
    "pulse_cache.get.s": ("s/op", _CACHE_MOVES),
    "pulse_cache.put.s": ("s/op", _CACHE_MOVES),
    "pulse_cache.hit_ratio": ("ratio", _CACHE_MOVES),
    "pulse_cache.writes": ("count/job", _CACHE_MOVES),
    "result_cache.get.s": ("s/op", "hit_p50_ms on service-mixed"),
    "result_cache.put.s": ("s/op", "job_p50_ms on service-mixed"),
    "result_cache.hit_ratio": ("ratio", "measured on service-mixed"),
    "ir.result_to_dict.s": ("s/op", "hit_p50_ms on service-mixed"),
    "ir.result_from_dict.s": ("s/op", "hit_p50_ms on service-mixed"),
    "ir.result_bytes": ("bytes", "hit_p50_ms on service-mixed"),
    "wire.requests": ("count/job", _WIRE_MOVES),
    "wire.send.s": ("s/op", _WIRE_MOVES),
    "wire.recv.s": ("s/op", _WIRE_MOVES),
    "wire.bytes": ("bytes/job", _WIRE_MOVES),
    "journal.record.calls": ("count/job", _JOURNAL_MOVES),
    "journal.record.s": ("s/op", _JOURNAL_MOVES),
    "journal.write_result.s": ("s/op", _JOURNAL_MOVES),
    "journal.record.growth": ("ratio", _JOURNAL_MOVES),
    "queue.wait.s": ("s/job", _QUEUE_MOVES),
    "service.run.s": ("s/job", _QUEUE_MOVES),
    "service.polls_per_job": ("count/job", _QUEUE_MOVES),
    "service.rejected": ("count/job", _QUEUE_MOVES),
    "service.coalesced": ("count/job", _QUEUE_MOVES),
    **{
        f"self.{layer}.s": ("s/job", "self time of the layer; see its metrics")
        for layer in LAYERS
    },
    "trace.jobs_per_s": ("jobs/s", "traced jobs_per_s; its ratio to the untraced run is the tracing overhead"),
    **{
        f"repeat.{name}.range": ("count", "0 when the count repeats exactly")
        for name in (
            "ocu.model_evals",
            "grape.evals",
            "aggregate.instructions_out",
            "journal.record.calls",
            "wire.requests",
        )
    },
    "rationale.confirmed": ("count", "1 when the trace confirms the workload's rationale"),
}


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _quantile(values, fraction: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _pooled(samples: list) -> list:
    """Every repetition's values together."""
    return [value for repetition in samples for value in repetition]


def end_to_end(run, import_seconds: float, peak_rss_mb: float) -> dict:
    """Times are at the reference pace (:mod:`pace`); latency quantiles
    are over the samples of every repetition together."""
    jobs, hits = _pooled(run.job_seconds), _pooled(run.hit_seconds)
    values = {
        "setup_s": import_seconds
        + run.setup_fixed_seconds
        + statistics.median(run.setup_seconds),
        "jobs_per_s": run.jobs / sum(_pooled(run.parts)),
        "job_p50_ms": 1e3 * _quantile(jobs, 0.5),
        "job_p90_ms": 1e3 * _quantile(jobs, 0.9),
        "hit_p50_ms": 1e3 * _quantile(hits, 0.5),
        "speedup_vs_isa": geomean(run.speedups),
        "pulse_latency_geomean_ns": geomean(run.latencies_ns),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


def sample_counts(run) -> dict:
    """How many samples each end-to-end statistic rests on."""
    return {
        "setups": len(run.setup_seconds),
        "repetitions": len(run.parts),
        "parts": len(_pooled(run.parts)),
        "jobs": len(_pooled(run.job_seconds)),
        "hits": len(_pooled(run.hit_seconds)),
        "circuits": len(run.speedups),
        "programs": len(run.latencies_ns),
        "inputs_redrawn": len(run.layer.get("redrawn", ())),
    }


class _Tallies:
    """The tracer's totals for some phases, summed over epochs."""

    def __init__(self, totals: dict, phases) -> None:
        self.by_name: dict[str, list] = {}
        self.by_epoch: dict[tuple, list] = {}
        for (phase, epoch, name), entry in totals.items():
            if phase not in phases:
                continue
            for into in (
                self.by_name.setdefault(name, [0, 0.0, 0.0, 0]),
                self.by_epoch.setdefault((epoch, name), [0, 0.0, 0.0, 0]),
            ):
                for index, value in enumerate(entry):
                    into[index] += value

    def get(self, *names, field: int = 1) -> float:
        return sum(self.by_name.get(name, (0, 0.0, 0.0, 0))[field] for name in names)

    def per_op(self, *names) -> float:
        calls = self.get(*names, field=0)
        return self.get(*names) / calls if calls else 0.0

    def matching(self, predicate) -> list[str]:
        return [name for name in self.by_name if predicate(name)]

    def epoch_calls(self, *names) -> list[float]:
        epochs = sorted({epoch for epoch, _ in self.by_epoch})
        return [
            sum(self.by_epoch.get((epoch, name), (0,))[0] for name in names)
            for epoch in epochs
        ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _growth(spans, name: str) -> float:
    """Mean duration of the last tenth of ``name`` calls over the first
    tenth, per epoch (one journal per epoch), median over epochs."""
    per_epoch: dict[int, list] = {}
    for _, span_name, _, _, _, start, end, _, phase, epoch in spans:
        if span_name == name and phase == "window":
            per_epoch.setdefault(epoch, []).append((start, end - start))
    growths = []
    for calls in per_epoch.values():
        calls.sort()
        tenth = max(1, len(calls) // 10)
        first = sum(d for _, d in calls[:tenth]) / tenth
        last = sum(d for _, d in calls[-tenth:]) / tenth
        growths.append(_ratio(last, first))
    return statistics.median(growths) if growths else 0.0


def per_layer(run, tracer, traced_jobs_per_s: float) -> tuple[dict, dict]:
    """Per-layer metrics and the facts behind the rationale verdict."""
    window = _Tallies(tracer.totals(), ("window",))
    jobs = max(run.jobs, 1)
    layer = run.layer
    values: dict[str, float] = {}

    for name in _PASSES:
        values[f"pass.{name}.s"] = window.get(f"pass.{name}") / jobs
    values["pass.manager_overhead.s"] = window.get("engine.job", field=2) / jobs

    repetitions = run.repetitions
    instructions = sum(r.get("aggregate.instructions_out", 0) for r in repetitions)
    values["aggregate.instructions_out"] = _ratio(instructions, layer["compiled_jobs"])

    ocu = ("ocu.latency", "ocu.model_latency")
    values["ocu.latency.calls"] = window.get(*ocu, field=0) / jobs
    values["ocu.latency.s"] = window.get(*ocu) / jobs
    fills = [r["ocu.model_evals"] for r in repetitions if "ocu.model_evals" in r]
    values["ocu.model_evals"] = _ratio(sum(fills), len(fills))

    counters = _program_counters(run)
    values["ocu.hit_ratio"] = _ratio(
        counters["cache_hits"], counters["cache_hits"] + counters["model_evals"]
    )
    values["grape.calls"] = counters["grape_calls"] / jobs
    values["grape.evals"] = counters["grape_evals"] / jobs
    values["grape.s"] = counters["grape_wall_seconds"] / jobs
    values["grape.s_per_eval"] = _ratio(
        counters["grape_wall_seconds"], counters["grape_evals"]
    )
    prewarms = [r.prewarm for r in layer.get("reports", ()) if r.prewarm]
    for key, metric in (
        ("dedup_ratio", "prewarm.dedup_ratio"),
        ("plan_seconds", "prewarm.plan_s"),
        ("synthesis_seconds", "prewarm.synthesis_s"),
    ):
        values[metric] = (
            statistics.median(p[key] for p in prewarms) if prewarms else 0.0
        )

    values["pulse_cache.get.s"] = window.per_op("pulse_cache.get")
    values["pulse_cache.put.s"] = window.per_op("pulse_cache.put", "pulse_cache.merge")
    store = _store_counters(run)
    values["pulse_cache.hit_ratio"] = _ratio(
        store["store_hits"], store["store_hits"] + store["store_misses"]
    )
    values["pulse_cache.writes"] = store["store_writes"] / jobs

    values["result_cache.get.s"] = window.per_op("result_cache.get")
    values["result_cache.put.s"] = window.per_op("result_cache.put")
    hits, misses = _result_cache_counts(run)
    values["result_cache.hit_ratio"] = _ratio(hits, hits + misses)
    values["ir.result_to_dict.s"] = window.per_op("ir.result_to_dict")
    values["ir.result_from_dict.s"] = window.per_op("ir.result_from_dict")
    values["ir.result_bytes"] = layer.get("result_bytes", 0.0)

    client_sends = ("wire.client.send", "wire.cache_client.send")
    client_side = window.matching(
        lambda n: n.startswith(("wire.client.", "wire.cache_client."))
    )
    values["wire.requests"] = window.get(*client_sends, field=0) / jobs
    values["wire.send.s"] = window.per_op(
        *window.matching(lambda n: n.startswith("wire.") and n.endswith(".send"))
    )
    values["wire.recv.s"] = window.per_op(
        *window.matching(lambda n: n.startswith("wire.") and n.endswith(".recv"))
    )
    values["wire.bytes"] = window.get(*client_side, field=3) / jobs

    values["journal.record.calls"] = window.get("journal.record", field=0) / jobs
    values["journal.record.s"] = window.per_op("journal.record")
    values["journal.write_result.s"] = window.per_op("journal.write_result")
    values["journal.record.growth"] = _growth(tracer.spans(), "journal.record")

    waits, runs = [], []
    episodes = layer.get("episodes", ())
    for episode in episodes:
        for status in episode.get("statuses", ()):
            if status.get("started_at") and status.get("finished_at"):
                waits.append(status["started_at"] - status["submitted_at"])
                runs.append(status["finished_at"] - status["started_at"])
    values["queue.wait.s"] = statistics.fmean(waits) if waits else 0.0
    values["service.run.s"] = statistics.fmean(runs) if runs else 0.0
    values["service.polls_per_job"] = _ratio(
        window.get("client.poll", field=0), window.get("client.job", field=0)
    )
    values["service.rejected"] = sum(
        e["stats"]["rejected_busy"] + e["stats"]["rejected_quarantined"]
        for e in episodes
    ) / jobs
    values["service.coalesced"] = (
        sum(e["stats"]["coalesced_submissions"] for e in episodes) / jobs
    )

    self_times = {layer_name: 0.0 for layer_name in LAYERS}
    for name, entry in window.by_name.items():
        layer_name = layer_of(name)
        if layer_name is not None:
            self_times[layer_name] += entry[2]
    for layer_name, seconds in self_times.items():
        values[f"self.{layer_name}.s"] = seconds / jobs
    values["trace.jobs_per_s"] = traced_jobs_per_s

    repeats = _repeatability(run, window)
    for name, (low, high, _) in repeats.items():
        values[f"repeat.{name}.range"] = high - low
    verdict = _rationale(
        run.workload,
        {name: window.get(f"pass.{name}", field=2) / jobs for name in _PASSES},
        {name: seconds / jobs for name, seconds in self_times.items()},
    )
    values["rationale.confirmed"] = 1.0 if verdict["confirmed"] else 0.0

    metrics = {name: (values[name], PER_LAYER[name][0]) for name in PER_LAYER}
    facts = {
        "repeatability": repeats,
        "rationale": verdict,
        "backend": run.backend,
    }
    return metrics, facts


def _program_counters(run) -> dict:
    """OCU counters summed over the window (batch reports or the service
    engine's lifetime counters, one fresh engine per episode)."""
    keys = ("cache_hits", "model_evals", "grape_calls", "grape_evals", "grape_wall_seconds")
    totals = dict.fromkeys(keys, 0.0)
    for report in run.layer.get("reports", ()):
        for key in keys:
            totals[key] += report.cache_info[key]
    for episode in run.layer.get("episodes", ()):
        for key in keys:
            totals[key] += episode["lifetime"][key]
    return totals


def _store_counters(run) -> dict:
    keys = ("store_hits", "store_misses", "store_writes")
    layer = run.layer
    if "store_after" in layer:
        return {k: layer["store_after"][k] - layer["store_before"][k] for k in keys}
    stores = layer.get("stores") or [e["store"] for e in layer.get("episodes", ())]
    return {k: sum(s[k] for s in stores) for k in keys}


def _result_cache_counts(run) -> tuple[int, int]:
    """Repeat submissions the service answered from its result store,
    and submissions it had to queue."""
    episodes = run.layer.get("episodes", ())
    return (
        sum(e["stats"]["result_cache"]["hits"] for e in episodes),
        sum(e["stats"]["result_cache"]["misses"] for e in episodes),
    )


def _repeatability(run, window: _Tallies) -> dict:
    """(min, max, repetitions) of each work count over repetitions of
    equal input; (0, 0, 0) where the workload does not exercise it."""
    series: dict[str, list] = {}
    for repetition in run.repetitions:
        for name, value in repetition.items():
            series.setdefault(name, []).append(value)
    journal = window.epoch_calls("journal.record")
    wire = window.epoch_calls("wire.client.send", "wire.cache_client.send")
    if any(journal):
        series["journal.record.calls"] = journal
    if any(wire) and "wire.requests" not in series:
        series["wire.requests"] = wire
    names = (
        "ocu.model_evals",
        "grape.evals",
        "aggregate.instructions_out",
        "journal.record.calls",
        "wire.requests",
    )
    ranges = {}
    for name in names:
        values = series.get(name)
        ranges[name] = (min(values), max(values), len(values)) if values else (0, 0, 0)
    return ranges


def _rationale(workload: str, pass_self: dict, self_times: dict) -> dict:
    """Does the trace confirm why the workload was chosen?  All times
    are self seconds per job."""
    if workload == "fig9-warm":
        largest = max(pass_self, key=pass_self.get)
        return {
            "claim": "pass.aggregate has the largest pass self time",
            "confirmed": largest == "aggregate",
            "pass_self_s": pass_self,
        }
    if workload == "grape-cold":
        total = sum(self_times.values())
        grape = self_times["control.grape"]
        largest = max(self_times, key=self_times.get)
        return {
            "claim": "control.grape is the largest layer self time and over half of it",
            "confirmed": largest == "control.grape" and grape > total / 2,
            "grape_share": _ratio(grape, total),
            "largest_layer": largest,
        }
    infrastructure = sum(
        self_times[name]
        for name in ("service.journal", "control.cache.protocol", "compiler.result_cache")
    )
    passes = self_times["compiler.passes"]
    return {
        "claim": "journal + wire + result-store self time exceeds pass self time",
        "confirmed": infrastructure > passes,
        "journal_wire_result_store_s": infrastructure,
        "passes_s": passes,
        "layer_self_s": self_times,
    }

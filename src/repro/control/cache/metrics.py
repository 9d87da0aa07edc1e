"""Cache metrics helpers: hit rates and the one-line exit-bill summary.

Every backend's :meth:`~repro.control.cache.store.PulseCache.stats`
returns a flat dict; these helpers turn it into the human line the
runner prints next to the GRAPE bill and the ratios the benchmarks
assert on.
"""

from __future__ import annotations


def hit_rate(hits: int, misses: int) -> float | None:
    """Hits over lookups; ``None`` when there were no lookups."""
    total = hits + misses
    if not total:
        return None
    return hits / total


def format_bytes(count: int) -> str:
    """1536 -> '1.5 KiB'."""
    size = float(count)
    for suffix in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or suffix == "GiB":
            return f"{size:.1f} {suffix}" if suffix != "B" else f"{int(size)} B"
        size /= 1024
    return f"{size:.1f} GiB"  # pragma: no cover - loop always returns


def _rate_fragment(label: str, hits: int, misses: int) -> str | None:
    rate = hit_rate(hits, misses)
    if rate is None:
        return None
    return f"{label} {hits}/{hits + misses} ({rate:.0%})"


def cache_summary(stats: dict) -> str:
    """One line for the exit bill, shaped by the backend.

    Examples::

        cache[memory]: 42 latencies + 6 pulses | hits 120/126 (95%)
        cache[sharded-disk]: ... | 8 shards, 3 flushes | evicted 2 (1.2 KiB)
        cache[remote tcp://127.0.0.1:7777]: ... | remote 5/9 (56%) in 14 round trips
    """
    backend = stats.get("backend", "memory")
    label = backend
    if backend == "remote" and stats.get("url"):
        label = f"remote {stats['url']}"
    parts = [
        f"{stats.get('latency_entries', 0)} latencies "
        f"+ {stats.get('pulse_entries', 0)} pulses"
    ]
    local = _rate_fragment(
        "hits", stats.get("store_hits", 0), stats.get("store_misses", 0)
    )
    if local:
        parts.append(local)
    if backend == "remote":
        remote = _rate_fragment(
            "remote", stats.get("remote_hits", 0), stats.get("remote_misses", 0)
        )
        if remote:
            parts.append(
                f"{remote} in {stats.get('remote_requests', 0)} round trips"
            )
    if backend == "sharded-disk":
        parts.append(
            f"{stats.get('shards', 0)} shards, "
            f"{stats.get('shard_flushes', 0)} flushes"
        )
    if stats.get("evictions"):
        parts.append(
            f"evicted {stats['evictions']} "
            f"({format_bytes(stats.get('evicted_bytes', 0))})"
        )
    if stats.get("max_bytes"):
        parts.append(
            f"{format_bytes(stats.get('total_bytes', 0))}"
            f"/{format_bytes(stats['max_bytes'])}"
        )
    return f"cache[{label}]: " + " | ".join(parts)

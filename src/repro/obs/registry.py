"""Dependency-free metrics primitives: counters, gauges, histograms, registry.

The registry is the single sink every instrumented layer writes into and the
single source the service's ``metrics`` endpoint reads from.  Design rules:

- **Cheap writes.**  ``Counter.inc`` and ``Histogram.observe`` are a few
  attribute operations with no locking — safe under the GIL for the
  at-most-one-writer-per-metric discipline the instruments follow (the
  admission path runs under the service lock; per-thread histogram shards
  exist for genuinely concurrent writers).
- **Pull-style gauges.**  A gauge may wrap a callback; it is only evaluated
  when a snapshot or exposition is rendered, so wiring a gauge to a live
  ``NetworkManager`` costs nothing between scrapes.
- **JSON-clean snapshots.**  ``MetricsRegistry.snapshot()`` returns only
  ``str``/``int``/``float``/``list``/``dict`` — it must survive
  ``json.dumps`` unmodified because it rides the service's line-JSON
  protocol.
- **Prometheus text exposition** (`render_prometheus`) for scrapers, with
  the conventional ``_bucket``/``_sum``/``_count`` histogram series.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "ShardedHistogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
]

#: Default latency buckets in seconds: 100us .. ~100s, roughly x2.5 apart.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 100.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Dict[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape per the Prometheus text exposition format (0.0.4)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(items: LabelItems, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(items) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{key}="{_escape_label_value(value)}"' for key, value in pairs)
    return "{" + body + "}"


class Counter:
    """Monotonically increasing event count."""

    kind = "counter"
    __slots__ = ("labels", "_value")

    def __init__(self, labels: LabelItems = ()) -> None:
        self.labels = labels
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Any:
        return self._value


class Gauge:
    """A point-in-time value, set directly or computed by a callback."""

    kind = "gauge"
    __slots__ = ("labels", "_value", "_fn")

    def __init__(self, labels: LabelItems = ()) -> None:
        self.labels = labels
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self._fn = None
        self._value = float(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Bind a pull callback; re-binding replaces the previous one."""
        self._fn = fn

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        if self._fn is not None:
            try:
                return float(self._fn())
            except Exception:
                # A dead callback (e.g. a torn-down manager) must not break
                # the whole exposition; report NaN-free zero instead.
                return 0.0
        return self._value

    def snapshot(self) -> Any:
        value = self.value
        return value if math.isfinite(value) else 0.0


class Histogram:
    """Fixed-bucket histogram with O(log B) observe and percentile estimates.

    ``buckets`` are inclusive upper bounds; an implicit +inf bucket catches
    everything above the last bound.  Percentiles are estimated by linear
    interpolation inside the covering bucket, so their error is bounded by
    the bucket width — the classic fixed-cost trade against exact reservoirs.
    """

    kind = "histogram"
    __slots__ = ("labels", "bounds", "counts", "total", "count", "_min", "_max")

    def __init__(
        self, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS, labels: LabelItems = ()
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing, got {buckets}")
        self.labels = labels
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last entry = +inf bucket
        self.total = 0.0
        self.count = 0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    # ------------------------------------------------------------------
    # Estimation and merge
    # ------------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        """Estimated ``pct``-th percentile (0 for an empty histogram).

        The rank is located in cumulative bucket counts and interpolated
        linearly across the covering bucket; the overflow bucket reports the
        exact observed maximum (its width is unbounded, so interpolation
        would be meaningless there).
        """
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        if self.count == 0:
            return 0.0
        rank = pct / 100.0 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank:
                if index == len(self.bounds):  # overflow bucket
                    return self._max
                upper = self.bounds[index]
                lower = self.bounds[index - 1] if index > 0 else min(self._min, upper)
                if bucket_count == 0 or upper == lower:
                    return upper
                fraction = (rank - previous) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return self._max  # pct == 100 with float round-off

    def merge(self, other: "Histogram") -> None:
        """Fold another shard with identical bounds into this one."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.total += other.total
        self.count += other.count
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    def snapshot(self) -> Any:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self._min if self.count else 0.0,
            "max": self._max if self.count else 0.0,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "buckets": {
                ("+Inf" if i == len(self.bounds) else repr(self.bounds[i])): c
                for i, c in enumerate(self.counts)
            },
        }


class ShardedHistogram:
    """Per-thread histogram shards, merged at read time.

    For writers that genuinely race (no shared lock), each thread observes
    into its own shard; ``merged()`` folds all shards into one
    :class:`Histogram` for reporting.  Shard registration takes a lock once
    per thread; observations are lock-free thereafter.
    """

    kind = "histogram"

    def __init__(
        self, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS, labels: LabelItems = ()
    ) -> None:
        self.labels = labels
        self._buckets = tuple(float(b) for b in buckets)
        self._local = threading.local()
        self._shards: List[Histogram] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = Histogram(self._buckets, labels=self.labels)
            with self._lock:
                self._shards.append(shard)
            self._local.shard = shard
        shard.observe(value)

    def merged(self) -> Histogram:
        merged = Histogram(self._buckets, labels=self.labels)
        with self._lock:
            shards = list(self._shards)
        for shard in shards:
            merged.merge(shard)
        return merged

    @property
    def count(self) -> int:
        return self.merged().count

    def percentile(self, pct: float) -> float:
        return self.merged().percentile(pct)

    def snapshot(self) -> Any:
        return self.merged().snapshot()


class _Family:
    """All children of one metric name, one per label combination."""

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.children: Dict[LabelItems, Any] = {}


_VALID_KINDS = {"counter", "gauge", "histogram"}


class MetricsRegistry:
    """Named metric families with label support.

    ``counter``/``gauge``/``histogram`` return the existing child when the
    (name, labels) pair is already registered, so call sites can re-resolve
    idempotently; registering one name with two different kinds raises.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def counter(self, name: str, help_text: str = "", **labels: str) -> Counter:
        return self._child(name, "counter", help_text, labels, Counter)

    def gauge(self, name: str, help_text: str = "", **labels: str) -> Gauge:
        return self._child(name, "gauge", help_text, labels, Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        sharded: bool = False,
        **labels: str,
    ):
        factory = (
            (lambda items: ShardedHistogram(buckets, labels=items))
            if sharded
            else (lambda items: Histogram(buckets, labels=items))
        )
        return self._child(name, "histogram", help_text, labels, factory)

    def _child(self, name, kind, help_text, labels, factory):
        if kind not in _VALID_KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        items = _label_items(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {family.kind}, cannot re-register as {kind}"
                )
            child = family.children.get(items)
            if child is None:
                child = factory(items)
                family.children[items] = child
            return child

    def get(self, name: str, **labels: str) -> Optional[Any]:
        family = self._families.get(name)
        if family is None:
            return None
        return family.children.get(_label_items(labels))

    def family_names(self) -> List[str]:
        return sorted(self._families)

    def families(self) -> Iterable[_Family]:
        for name in sorted(self._families):
            yield self._families[name]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable view of every metric, grouped by family."""
        out: Dict[str, Any] = {}
        for family in self.families():
            series = []
            for items, child in sorted(family.children.items()):
                series.append({"labels": dict(items), "value": child.snapshot()})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "series": series,
            }
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for items, child in sorted(family.children.items()):
                if family.kind == "histogram":
                    hist = child.merged() if isinstance(child, ShardedHistogram) else child
                    cumulative = 0
                    for index, bucket_count in enumerate(hist.counts):
                        cumulative += bucket_count
                        bound = (
                            "+Inf"
                            if index == len(hist.bounds)
                            else _format_float(hist.bounds[index])
                        )
                        label_text = _format_labels(items, [("le", bound)])
                        lines.append(f"{family.name}_bucket{label_text} {cumulative}")
                    label_text = _format_labels(items)
                    lines.append(f"{family.name}_sum{label_text} {_format_float(hist.total)}")
                    lines.append(f"{family.name}_count{label_text} {hist.count}")
                else:
                    label_text = _format_labels(items)
                    lines.append(f"{family.name}{label_text} {_format_float(child.value)}")
        return "\n".join(lines) + "\n"


def _format_float(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))

"""The metrics registry: counters, gauges and tick-bucketed histograms.

Section 12 gives PISCES 2 event tracing; section 11 gives the live
monitor.  This module supplies the quantitative layer between the two:
named metric families, each keyed by a small label set (PE, cluster,
tasktype, operation...), collected while the machine runs and read out
as a deterministic snapshot by the monitor, the analysis module and the
exporters.

Design constraints:

* **zero-cost when disabled** -- every instrumentation site in the
  run-time library guards on ``registry.enabled`` (a single attribute
  load and boolean test) before touching any instrument, and the
  engine's own counters come from :class:`EngineMetrics`, an engine
  observer subscribed only while metrics are on, so an untraced,
  unmetered run does no metric work at all;
* **deterministic snapshots** -- instruments are keyed by
  ``(family, sorted(labels))``; :meth:`MetricsRegistry.snapshot`
  renders them in sorted order, so two identical runs produce
  byte-identical snapshots (the whole test-suite relies on the engine's
  determinism and this module must not break it);
* **tick-bucketed histograms** -- distributions over virtual ticks or
  bytes bucket into exponential bounds, giving a latency/size view
  without storing samples.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..mmos.process import ProcState
from ..mmos.scheduler import EngineObserver

#: A canonicalized label set: sorted (key, value) pairs.
LabelKey = Tuple[Tuple[str, Any], ...]

#: Default histogram bucket upper bounds: roughly one-third-decade
#: exponential steps, wide enough for tick latencies (a send->accept
#: hop is ~10-200 ticks, a striped disk transfer ~1e3-1e5) and byte
#: sizes alike.  A final implicit +inf bucket catches the rest.
DEFAULT_BUCKETS: Tuple[int, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500,
    1_000, 2_000, 5_000, 10_000, 20_000, 50_000,
    100_000, 200_000, 500_000, 1_000_000,
)


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


def _scalar(v):
    """Numpy scalars (e.g. ``msg.nbytes``) -> plain Python numbers, so
    snapshots stay JSON-serializable."""
    return v.item() if hasattr(v, "item") else v


def _label_str(key: LabelKey) -> str:
    if not key:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


class Counter:
    """A monotonically non-decreasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {n})")
        self.value += _scalar(n)

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time level, with its high-water mark."""

    __slots__ = ("name", "labels", "value", "high_water")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0
        self.high_water = 0

    def set(self, v) -> None:
        v = _scalar(v)
        self.value = v
        if v > self.high_water:
            self.high_water = v

    def inc(self, n=1) -> None:
        self.set(self.value + n)

    def dec(self, n=1) -> None:
        self.value -= n

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value,
                "high_water": self.high_water}


class Histogram:
    """A tick-bucketed distribution: counts per exponential bucket,
    plus exact sum / count / min / max of the observations."""

    __slots__ = ("name", "labels", "bounds", "bucket_counts",
                 "count", "total", "min", "max")

    def __init__(self, name: str, labels: LabelKey,
                 buckets: Tuple[int, ...] = DEFAULT_BUCKETS):
        self.name = name
        self.labels = labels
        self.bounds = tuple(buckets)
        #: one count per bound, plus the final +inf bucket.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, v) -> None:
        v = _scalar(v)
        self.bucket_counts[bisect.bisect_left(self.bounds, v)] += 1
        self.count += 1
        self.total += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Upper bucket bound containing the q-quantile (bucketed, so an
        over-estimate by at most one bucket width)."""
        if not self.count:
            return None
        target = q * self.count
        seen = 0
        for bound, c in zip(self.bounds, self.bucket_counts):
            seen += c
            if seen >= target:
                return float(bound)
        return float(self.max if self.max is not None else self.bounds[-1])

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "histogram", "count": self.count, "sum": self.total,
                "min": self.min, "max": self.max,
                "buckets": {str(b): c for b, c in
                            zip(self.bounds + ("+inf",), self.bucket_counts)
                            if c}}


class MetricsRegistry:
    """All instruments of one VM, keyed by (family name, label set).

    Instruments are created on first use and live for the registry's
    lifetime; the same (name, labels) always returns the same object,
    so hot paths may cache the instrument reference.
    """

    def __init__(self, enabled: bool = True):
        #: Instrumentation sites test this before doing any metric work.
        self.enabled = enabled
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # ----------------------------------------------------------- factory --

    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        c = self._counters.get(key)
        if c is None:
            c = self._counters[key] = Counter(name, key[1])
        return c

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _label_key(labels))
        g = self._gauges.get(key)
        if g is None:
            g = self._gauges[key] = Gauge(name, key[1])
        return g

    def histogram(self, name: str,
                  buckets: Tuple[int, ...] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        key = (name, _label_key(labels))
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram(name, key[1], buckets)
        return h

    # ------------------------------------------------------------- query --

    def families(self) -> List[str]:
        names = {k[0] for k in self._counters}
        names.update(k[0] for k in self._gauges)
        names.update(k[0] for k in self._histograms)
        return sorted(names)

    def counters(self, name: str) -> Dict[LabelKey, Counter]:
        return {k[1]: v for k, v in self._counters.items() if k[0] == name}

    def counter_total(self, name: str) -> int:
        """Sum of one counter family across every label set."""
        return sum(c.value for (n, _), c in self._counters.items()
                   if n == name)

    def histogram_merged(self, name: str) -> Optional[Histogram]:
        """One family's histograms merged across label sets (same
        bucket bounds assumed, as produced by one instrumentation
        site)."""
        parts = [h for (n, _), h in self._histograms.items() if n == name]
        if not parts:
            return None
        merged = Histogram(name, (), parts[0].bounds)
        for h in parts:
            for i, c in enumerate(h.bucket_counts):
                merged.bucket_counts[i] += c
            merged.count += h.count
            merged.total += h.total
            for v in (h.min, h.max):
                if v is None:
                    continue
                if merged.min is None or v < merged.min:
                    merged.min = v
                if merged.max is None or v > merged.max:
                    merged.max = v
        return merged

    # ---------------------------------------------------------- snapshot --

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Deterministic nested dict: family -> label-string -> data."""
        out: Dict[str, Dict[str, Any]] = {}
        for store in (self._counters, self._gauges, self._histograms):
            for (name, lkey) in sorted(store, key=lambda k: (k[0], str(k[1]))):
                inst = store[(name, lkey)]
                out.setdefault(name, {})[_label_str(lkey)] = inst.as_dict()
        return {name: out[name] for name in sorted(out)}

    def snapshot_text(self, title: str = "METRICS SNAPSHOT") -> str:
        """The text panel the monitor displays."""
        from ..util.tables import format_table
        rows: List[List[Any]] = []
        for name, by_label in self.snapshot().items():
            for lstr, data in by_label.items():
                if data["type"] == "counter":
                    val = str(data["value"])
                elif data["type"] == "gauge":
                    val = f"{data['value']} (hi {data['high_water']})"
                else:
                    mean = data["sum"] / data["count"] if data["count"] else 0
                    val = (f"n={data['count']} sum={data['sum']} "
                           f"mean={mean:.1f} max={data['max']}")
                rows.append([name + lstr, data["type"], val])
        if not rows:
            return f"{title}: (no metrics recorded)"
        return format_table(["metric", "kind", "value"], rows, title=title)

    def describe(self) -> str:
        n = (len(self._counters) + len(self._gauges) + len(self._histograms))
        state = "enabled" if self.enabled else "disabled"
        return f"metrics: {state}, {n} instruments in {len(self.families())} families"

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


#: A registry that is permanently disabled -- handed to components whose
#: owner has no registry wired, so instrumentation sites can guard on
#: ``metrics.enabled`` without a None check.
NULL_REGISTRY = MetricsRegistry(enabled=False)


class EngineMetrics(EngineObserver):
    """The engine's metrics subscriber: per-PE ``dispatches`` and
    ``slice_ticks`` (the charge of every non-final slice), and
    ``blocks`` by block reason.  The VM subscribes it in
    ``enable_metrics()`` and unsubscribes it in ``disable_metrics()``."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry

    def on_slice(self, p, start, end, state, reason, deadline, wall) -> None:
        m = self.registry
        m.counter("dispatches", pe=p.pe).inc()
        if state is ProcState.DONE:
            return
        if end > start:
            m.histogram("slice_ticks", pe=p.pe).observe(end - start)
        if state is ProcState.BLOCKED:
            # Reason strings carry dynamic detail after "("; keep the
            # label cardinality bounded by the static prefix.
            m.counter("blocks", reason=reason.split("(", 1)[0]).inc()

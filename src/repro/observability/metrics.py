"""Metrics registries: counters and histograms with dotted names.

Metric names are hierarchical dotted paths whose segments act as
labels — ``machine.socket0.llc.hits``, ``gc.kgw.nursery_survivors``,
``runner.cache.hits``.  The registry is a plain dict keyed by full
name, so recording costs one dict lookup plus an integer add: cheap
enough to stay always-on.

The module-level :data:`METRICS` singleton holds host events only —
``runner.*``, ``checkpoint.*``, ``faults.injected.*``,
``sanitize.violations.*``, ``platform.teardown_errors``,
``monitor.samples`` — each in the registry of the process that records
it; a sweep does not merge pool workers' registries.  Simulated
counters live on the run's
:class:`~repro.core.platform.MeasurementResult`, and
:func:`repro.observability.report.result_metrics` names them in a
private registry for ``repro stats`` and ``repro run --json``.  Tests
and the CLI can :meth:`~MetricsRegistry.reset` :data:`METRICS` or
create private registries.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Optional, Tuple, Union

_SANITIZE_RE = re.compile(r"[^a-z0-9_.]+")


def sanitize(label: str) -> str:
    """Normalise a free-form label into a metric name segment.

    >>> sanitize("KG-W")
    'kgw'
    >>> sanitize("large.pcm")
    'large.pcm'
    """
    return _SANITIZE_RE.sub("", label.lower())


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def summary(self) -> Dict[str, Union[int, float]]:
        return {"value": self.value}


#: Log-scale bucket base for histogram percentiles (~10 % relative
#: error), the same for every histogram.
_GAMMA = 1.2
_LOG_GAMMA = math.log(_GAMMA)


def _bucket_key(value: float) -> str:
    """Fixed bucket for ``value``: ``0``, ``p<i>``, or ``n<i>``.

    Positive values land in bucket ``i = ceil(log(v)/log(GAMMA))``
    (i.e. ``GAMMA**(i-1) < v <= GAMMA**i``); negatives mirror via their
    magnitude.  The mapping depends only on the value, never on
    insertion order or prior state.
    """
    if value > 0:
        return f"p{math.ceil(math.log(value) / _LOG_GAMMA)}"
    if value < 0:
        return f"n{math.ceil(math.log(-value) / _LOG_GAMMA)}"
    return "0"


def _bucket_mid(key: str) -> float:
    """Representative value for a bucket (geometric-interval midpoint)."""
    if key == "0":
        return 0.0
    index = int(key[1:])
    mid = (_GAMMA ** (index - 1) + _GAMMA ** index) / 2.0
    return mid if key[0] == "p" else -mid


class Histogram:
    """Streaming summary of observations (count/sum/min/max/percentiles).

    Keeps O(1) exact state (count/sum/min/max) plus fixed log-scale
    bucket counts for percentile estimates (~10 % relative error).
    Buckets are value-determined, so the summary does not depend on
    the order of the observations.
    """

    kind = "histogram"
    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[str, int] = {}

    def observe(self, value: Union[int, float]) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        key = _bucket_key(value)
        self.buckets[key] = self.buckets.get(key, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def value(self) -> float:
        return self.mean

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile from the bucket counts.

        Walks the buckets in value order to the target rank and clamps
        the bucket midpoint into the exact observed ``[min, max]``.
        Returns 0.0 for an empty histogram.
        """
        if not self.count:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        ordered = sorted(self.buckets.items(),
                         key=lambda item: _bucket_mid(item[0]))
        cumulative = 0
        estimate = _bucket_mid(ordered[-1][0])
        for key, count in ordered:
            cumulative += count
            if cumulative >= target:
                estimate = _bucket_mid(key)
                break
        low = self.min if self.min is not None else estimate
        high = self.max if self.max is not None else estimate
        return min(max(estimate, low), high)

    def summary(self) -> Dict[str, Union[int, float, Dict[str, int]]]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": dict(self.buckets),
        }


Metric = Union[Counter, Histogram]


class MetricsRegistry:
    """Named metrics, created on first use.

    A name is bound to one metric type for the registry's lifetime;
    asking for it as a different type raises ``TypeError`` (silent
    type punning would corrupt the accumulated values).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # ------------------------------------------------------------------
    # Creation / lookup
    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, factory) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory(name)
            self._metrics[name] = metric
        elif not isinstance(metric, factory):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a "
                f"{factory.kind}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def get(self, name: str) -> Optional[Metric]:
        """The metric registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def value(self, name: str, default: Union[int, float] = 0
              ) -> Union[int, float]:
        """Current value of ``name`` (histograms report their mean)."""
        metric = self._metrics.get(name)
        return metric.value if metric is not None else default

    # ------------------------------------------------------------------
    # Recording conveniences
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: Union[int, float] = 1) -> None:
        self.counter(name).inc(amount)

    def observe(self, name: str, value: Union[int, float]) -> None:
        self.histogram(name).observe(value)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def names(self, prefix: str = "") -> List[str]:
        return sorted(name for name in self._metrics
                      if name.startswith(prefix))

    def items(self, prefix: str = "") -> Iterable[Tuple[str, Metric]]:
        for name in self.names(prefix):
            yield name, self._metrics[name]

    def as_dict(self, prefix: str = "") -> Dict[str, Dict[str, float]]:
        """Flat ``{name: {kind, **summary}}`` snapshot, sorted by name."""
        return {
            name: {"kind": metric.kind, **metric.summary()}
            for name, metric in self.items(prefix)
        }

    def render_table(self, prefix: str = "", title: str = "",
                     exclude: Iterable[str] = ()) -> str:
        """Render the registry, less the names in ``exclude``, as an
        aligned ASCII table."""
        skip = set(exclude)
        rows: List[Tuple[str, str, str]] = []
        for name, metric in self.items(prefix):
            if name in skip:
                continue
            if isinstance(metric, Histogram):
                value = (f"n={metric.count} mean={metric.mean:.6g} "
                         f"min={metric.min or 0:.6g} "
                         f"max={metric.max or 0:.6g}")
            elif isinstance(metric.value, float):
                value = f"{metric.value:.6g}"
            else:
                value = str(metric.value)
            rows.append((name, metric.kind, value))
        if not rows:
            return (title + "\n" if title else "") + "(no metrics recorded)"
        headers = ("metric", "type", "value")
        widths = [max(len(headers[col]), *(len(r[col]) for r in rows))
                  for col in range(3)]
        lines = [title] if title else []
        lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("-+-".join("-" * w for w in widths))
        for row in rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop every metric (tests and CLI entry points)."""
        self._metrics.clear()


#: The process-wide registry all instrumentation records into.
METRICS = MetricsRegistry()

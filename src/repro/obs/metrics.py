"""A small metrics registry: counters, gauges, histograms.

Metrics are named, optionally labelled (``registry.counter("engine.work",
sid=3, kind="input")``), and get-or-create semantics make every call site
one line.  :meth:`MetricsRegistry.snapshot` renders the whole registry as
a JSON-safe dict keyed by ``name{label=value,...}``;
:meth:`MetricsRegistry.merge_snapshot` folds a worker process's snapshot
into the driver registry (counters add, gauges keep the latest value and
the running max, histograms merge their moments and bucket counts).

Histograms bucket observations over log-spaced boundaries reaching down
to a microsecond (``1-2-5`` per decade, 1e-6 .. 1e6), so sub-millisecond
service windows land in distinct buckets instead of collapsing into one:
tail latency stays visible at trigger-window speeds.  The same
boundaries serve work-unit histograms (values in the 1..1e6 range).

The registry itself never checks the observability flag -- call sites
guard with ``if OBS.enabled:`` so the disabled path stays a single test.
"""

from bisect import bisect_left


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def to_dict(self):
        return {"type": "counter", "value": self.value}

    def merge(self, payload):
        self.value += payload.get("value", 0)


class Gauge:
    """A point-in-time value; remembers the running max alongside."""

    __slots__ = ("value", "max")
    kind = "gauge"

    def __init__(self):
        self.value = 0
        self.max = None

    def set(self, value):
        self.value = value
        if self.max is None or value > self.max:
            self.max = value

    def to_dict(self):
        return {"type": "gauge", "value": self.value, "max": self.max}

    def merge(self, payload):
        self.value = payload.get("value", self.value)
        other_max = payload.get("max")
        if other_max is not None and (self.max is None or other_max > self.max):
            self.max = other_max


#: log-spaced upper bounds, 1-2-5 per decade from 1 microsecond to 1e6:
#: fine enough that sub-millisecond trigger windows spread across buckets
#: (they used to collapse into one), coarse enough for work-unit counts.
DEFAULT_BUCKETS = tuple(
    mantissa * 10.0 ** exponent
    for exponent in range(-6, 7)
    for mantissa in (1.0, 2.0, 5.0)
)


class Histogram:
    """Count / sum / min / max plus log-spaced bucket counts.

    ``counts[i]`` holds the observations with ``value <= bounds[i]``;
    the final slot is the ``+Inf`` overflow.  Counts are *per-bucket*
    (non-cumulative).
    """

    __slots__ = ("count", "total", "min", "max", "bounds", "bucket_counts")
    kind = "histogram"

    def __init__(self, bounds=DEFAULT_BUCKETS):
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self):
        return (self.total / self.count) if self.count else 0.0

    def buckets(self):
        """Non-empty buckets as ``[[upper_bound_or_"+Inf", count], ...]``."""
        out = []
        for index, count in enumerate(self.bucket_counts):
            if count:
                bound = (
                    self.bounds[index] if index < len(self.bounds) else "+Inf"
                )
                out.append([bound, count])
        return out

    def to_dict(self):
        return {
            "type": "histogram", "count": self.count, "sum": self.total,
            "min": self.min, "max": self.max, "mean": self.mean,
            "buckets": self.buckets(),
        }

    def merge(self, payload):
        self.count += payload.get("count", 0)
        self.total += payload.get("sum", 0.0)
        for name, better in (("min", min), ("max", max)):
            other = payload.get(name)
            if other is None:
                continue
            mine = getattr(self, name)
            setattr(self, name, other if mine is None else better(mine, other))
        # bucket merge: match on upper bound; a payload from an older
        # bucketless histogram simply contributes no bucket counts
        for bound, count in payload.get("buckets", ()):
            if bound == "+Inf":
                self.bucket_counts[-1] += count
            else:  # same boundary grid in practice; a foreign bound still
                # lands in the covering bucket, conserving total mass
                self.bucket_counts[bisect_left(self.bounds, bound)] += count


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def metric_key(name, labels):
    """Stable string key: ``name`` or ``name{a=1,b=x}`` with sorted labels."""
    if not labels:
        return name
    return "%s{%s}" % (
        name, ",".join("%s=%s" % (k, labels[k]) for k in sorted(labels))
    )


class MetricsRegistry:
    """Get-or-create store of metrics keyed by name + labels."""

    def __init__(self):
        self._metrics = {}

    def _get(self, cls, name, labels):
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls()
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                "metric %r already registered as %s" % (key, metric.kind)
            )
        return metric

    def counter(self, name, **labels):
        return self._get(Counter, name, labels)

    def gauge(self, name, **labels):
        return self._get(Gauge, name, labels)

    def histogram(self, name, **labels):
        return self._get(Histogram, name, labels)

    def snapshot(self):
        """JSON-safe dict of every metric, sorted by key."""
        return {
            key: self._metrics[key].to_dict() for key in sorted(self._metrics)
        }

    def merge_snapshot(self, snapshot):
        """Fold a snapshot (e.g. from a worker process) into this registry."""
        for key, payload in snapshot.items():
            metric = self._metrics.get(key)
            if metric is None:
                cls = _KINDS.get(payload.get("type"))
                if cls is None:
                    continue
                metric = self._metrics[key] = cls()
            metric.merge(payload)

    def clear(self):
        self._metrics = {}

    def __len__(self):
        return len(self._metrics)

    def __repr__(self):
        return "MetricsRegistry(%d metrics)" % len(self._metrics)

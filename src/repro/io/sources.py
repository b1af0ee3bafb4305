"""Workload generators for every domain the survey motivates.

Each workload is a deterministic, seed-driven iterator of
:class:`SourceEvent` — (inter-arrival gap, payload, event time). Event time
may lag arrival order (bounded disorder), which is what exercises the
out-of-order machinery of §2.2. Workloads are *replayable*: a fresh
``events()`` iterator regenerates the identical sequence, so checkpoint
recovery can rewind sources by offset (exactly-once, §3.2).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from repro.sim.random import SimRandom


class SourceEvent(NamedTuple):
    """One emission from a source.

    Immutable; a named tuple because a workload builds one per input record
    and a frozen dataclass costs several times more to construct.

    Attributes:
        inter_arrival: virtual seconds between the previous emission and
            this one (the arrival process).
        value: payload record (dict for the domain workloads).
        event_time: when the event *occurred*; at most ``inter_arrival``
            accounting behind the arrival process when disorder is on.
    """

    inter_arrival: float
    value: Any
    event_time: float | None = None


class Workload:
    """Deterministic event sequence; subclasses implement :meth:`events`."""

    def events(self) -> Iterator[SourceEvent]:
        """A fresh, deterministic iterator over the full event sequence."""
        raise NotImplementedError

    def take(self, n: int) -> list[SourceEvent]:
        """Materialize the first ``n`` events (tests/inspection)."""
        out = []
        for event in self.events():
            out.append(event)
            if len(out) >= n:
                break
        return out


class CollectionWorkload(Workload):
    """Wraps a finite collection; used everywhere in tests and quickstarts.

    ``rate`` spaces the elements evenly; ``timestamps`` (parallel list or
    callable) attaches event times.
    """

    def __init__(
        self,
        values: Iterable[Any],
        rate: float = 1000.0,
        timestamps: list[float] | Callable[[int, Any], float] | None = None,
    ) -> None:
        self._values = list(values)
        self._gap = 1.0 / rate if rate > 0 else 0.0
        self._timestamps = timestamps

    def events(self) -> Iterator[SourceEvent]:
        for index, value in enumerate(self._values):
            if self._timestamps is None:
                event_time = None
            elif callable(self._timestamps):
                event_time = self._timestamps(index, value)
            else:
                event_time = self._timestamps[index]
            yield SourceEvent(self._gap, value, event_time)

    def __len__(self) -> int:
        return len(self._values)


class RateFunction:
    """Arrival-rate profiles used by the synthetic workloads."""

    @staticmethod
    def constant(rate: float) -> Callable[[float], float]:
        return lambda _t: rate

    @staticmethod
    def step(base: float, peak: float, start: float, end: float) -> Callable[[float], float]:
        """Rate jumps to ``peak`` on [start, end) — the overload experiments."""

        def fn(t: float) -> float:
            return peak if start <= t < end else base

        return fn

    @staticmethod
    def sine(base: float, amplitude: float, period: float) -> Callable[[float], float]:
        """Diurnal-style oscillation used by the elasticity experiments."""

        def fn(t: float) -> float:
            return max(1e-9, base + amplitude * math.sin(2 * math.pi * t / period))

        return fn


class SyntheticWorkload(Workload):
    """Base for the domain generators: Poisson-ish arrivals with an optional
    rate profile, keys drawn Zipf-skewed, bounded event-time disorder."""

    def __init__(
        self,
        count: int,
        rate: float | Callable[[float], float] = 1000.0,
        seed: int = 0,
        disorder: float = 0.0,
        key_count: int = 100,
        key_skew: float = 0.0,
        deterministic_gaps: bool = False,
    ) -> None:
        self.count = count
        self._rate_fn = RateFunction.constant(rate) if not callable(rate) else rate
        self.seed = seed
        self.disorder = disorder
        self.key_count = key_count
        self.key_skew = key_skew
        self._deterministic_gaps = deterministic_gaps

    def payload(self, index: int, key: int, rng: SimRandom) -> Any:
        """Domain payload; subclasses override."""
        return {"key": key, "seq": index}

    def events(self) -> Iterator[SourceEvent]:
        rng = SimRandom(self.seed, type(self).__name__)
        rate_fn = self._rate_fn
        payload = self.payload
        key_count, key_skew, disorder = self.key_count, self.key_skew, self.disorder
        arrival = 0.0
        for index in range(self.count):
            rate = rate_fn(arrival)
            if self._deterministic_gaps:
                gap = 1.0 / rate
            else:
                gap = rng.expovariate(rate)
            arrival += gap
            key = rng.zipf_index(key_count, key_skew)
            # Event time lags arrival by up to `disorder`: later arrivals can
            # carry earlier event times, producing genuine out-of-orderness.
            lag = rng.uniform(0.0, disorder) if disorder > 0 else 0.0
            event_time = max(0.0, arrival - lag)
            yield SourceEvent(gap, payload(index, key, rng), event_time)


class SensorWorkload(SyntheticWorkload):
    """IoT sensor readings: the canonical windowed-aggregation input."""

    def payload(self, index: int, key: int, rng: SimRandom) -> Any:
        return {
            "sensor": f"s{key}",
            "key": key,
            "reading": 20.0 + 5.0 * math.sin(index / 50.0) + rng.gauss(0.0, 0.5),
            "seq": index,
        }


class ClickstreamWorkload(SyntheticWorkload):
    """Web clicks with sessions: exercises session windows and CEP funnels."""

    PAGES = ["home", "search", "product", "cart", "checkout", "confirm"]

    def payload(self, index: int, key: int, rng: SimRandom) -> Any:
        # Bias page transitions toward a funnel so CEP patterns do match.
        page = rng.choices(self.PAGES, weights=[30, 25, 22, 12, 7, 4])[0]
        return {
            "user": f"u{key}",
            "key": key,
            "page": page,
            "seq": index,
        }


class TransactionWorkload(SyntheticWorkload):
    """Card transactions with injected fraud bursts (the §1 banking use-case).

    A configurable fraction of cards emits rapid high-value sequences —
    exactly what the CEP benchmark (E9) and the ML fraud pipeline (E12)
    look for. Payload carries a ``label`` so online learners can train.
    """

    def __init__(self, *args: Any, fraud_fraction: float = 0.02, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.fraud_fraction = fraud_fraction

    def payload(self, index: int, key: int, rng: SimRandom) -> Any:
        is_fraud_card = (key % max(1, int(1 / max(self.fraud_fraction, 1e-9)))) == 0
        fraudulent = is_fraud_card and rng.random() < 0.5
        if fraudulent:
            amount = rng.uniform(800.0, 3000.0)
            country = rng.choice(["XX", "YY"])
        else:
            amount = abs(rng.gauss(60.0, 40.0)) + 1.0
            country = rng.choice(["US", "NL", "SE", "GR", "DE"])
        return {
            "card": f"c{key}",
            "key": key,
            "amount": round(amount, 2),
            "country": country,
            "label": 1 if fraudulent else 0,
            "seq": index,
        }


class RideWorkload(SyntheticWorkload):
    """Ride-sharing trip events on a grid city (the §4.1 graph use-case)."""

    def __init__(self, *args: Any, grid: int = 10, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.grid = grid

    def payload(self, index: int, key: int, rng: SimRandom) -> Any:
        src = (rng.randint(0, self.grid - 1), rng.randint(0, self.grid - 1))
        dst = (rng.randint(0, self.grid - 1), rng.randint(0, self.grid - 1))
        return {
            "driver": f"d{key}",
            "key": key,
            "pickup": src,
            "dropoff": dst,
            "fare": round(3.0 + 1.8 * (abs(src[0] - dst[0]) + abs(src[1] - dst[1])), 2),
            "kind": rng.choices(["request", "start", "end"], weights=[2, 1, 1])[0],
            "seq": index,
        }


class GraphEdgeWorkload(SyntheticWorkload):
    """A stream of weighted edge insertions/updates over ``vertex_count``
    vertices — input to the streaming-graph algorithms (E13, SDN use-case)."""

    def __init__(
        self,
        *args: Any,
        vertex_count: int = 50,
        delete_fraction: float = 0.0,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.vertex_count = vertex_count
        self.delete_fraction = delete_fraction

    def payload(self, index: int, key: int, rng: SimRandom) -> Any:
        u = rng.randint(0, self.vertex_count - 1)
        v = rng.randint(0, self.vertex_count - 1)
        while v == u:
            v = rng.randint(0, self.vertex_count - 1)
        op = "delete" if rng.random() < self.delete_fraction else "insert"
        return {
            "key": key,
            "op": op,
            "u": u,
            "v": v,
            "weight": round(rng.uniform(1.0, 10.0), 3),
            "seq": index,
        }


class OrderWorkload(SyntheticWorkload):
    """E-commerce order commands for the stateful-functions / saga workloads
    (E10/E11): place/pay/cancel commands against customer accounts."""

    def payload(self, index: int, key: int, rng: SimRandom) -> Any:
        return {
            "customer": f"cust{key}",
            "key": key,
            "command": rng.choices(["place", "pay", "cancel"], weights=[5, 4, 1])[0],
            "item": rng.choice(["widget", "gadget", "doohickey"]),
            "quantity": rng.randint(1, 4),
            "price": round(rng.uniform(5.0, 120.0), 2),
            "order_id": f"o{index}",
            "seq": index,
        }

"""Output checks behind ``error_rate``.

Every check compares a pass's sink outputs with a reference that does not
come from the same code path:

* ``macro-*``: Q1 values and the Q5 committed op-id set and account
  balances are recomputed here, directly from the generated input; the store
  must also pass the macro suite's ``balance_conservation`` oracle. Q2-Q4 are
  compared, in order, with the other macro preset's run on the same input
  (record-at-a-time against ``RecordBatch`` transport).
* ``keyed-state-recovery``: the committed outputs of the run with kills must
  equal the fault-free run's as a multiset, and the last committed sum per
  key must equal the per-key sum of the input.
* ``fabric-tenants``: every tenant's per-sensor counts must run 1..n in the
  order of its input, and a spread of tenants must match, tuple for tuple, a
  solo run of the same job on a kernel of its own.

``attempted`` counts the expected outputs; ``failed`` counts those missing,
duplicated or wrong. ``error_rate`` is their ratio.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.macro.queries import balance_conservation

from workloads import (
    FabricWorkload,
    KeyedRecoveryWorkload,
    MacroWorkload,
    Pass,
    sink_tuples,
    tenant_env,
)

# Q1 dimension table and Q5 transfer rule, restated from the macro suite's
# documented contract so the reference does not call the code under test.
_CATEGORIES = ("grocery", "travel", "electronics", "dining", "fuel")
_REGIONS = ("na", "eu", "apac")
_MERCHANTS = 50
_ACCOUNTS = 8
_OPENING_BALANCE = 100

#: every how many fabric tenants one is checked against a solo run
FABRIC_SOLO_STRIDE = 32


@dataclass
class Verdict:
    """Expected outputs checked, and how many of them were not right."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def compare(self, label: str, expected: list, got: list, ordered: bool = True) -> None:
        """Count outputs missing from ``got``, extra in it, or (``ordered``)
        out of place."""
        want, have = Counter(expected), Counter(got)
        missing = sum((want - have).values())
        extra = sum((have - want).values())
        bad = max(missing, extra)
        if not bad and ordered and expected != got:
            bad = sum(1 for a, b in zip(expected, got) if a != b)
        self.attempted += len(expected)
        self.failed += bad
        if bad:
            self.notes.append(f"{label}: {bad} of {len(expected)} wrong ({missing} missing, {extra} extra)")

    def require(self, label: str, ok: bool) -> None:
        """A single yes/no check counted as one expected output."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"{label}: failed")


def digest(outputs: dict[str, list[tuple]]) -> str:
    """SHA-256 over every sink path's tuples, in sink order."""
    hasher = hashlib.sha256()
    for path in sorted(outputs):
        hasher.update(path.encode())
        for item in outputs[path]:
            hasher.update(repr(item).encode())
            hasher.update(b"\n")
    return hasher.hexdigest()


def _values(tuples: list[tuple]) -> list:
    return [item[0] for item in tuples]


# ----------------------------------------------------------------------
# macro
# ----------------------------------------------------------------------
def _enriched(txn: dict) -> tuple:
    merchant = txn["key"] % _MERCHANTS
    return (
        txn["seq"],
        txn["card"],
        txn["amount"],
        f"m{merchant}",
        _CATEGORIES[merchant % len(_CATEGORIES)],
        _REGIONS[merchant % len(_REGIONS)],
    )


def _balances(txns: list[dict]) -> dict[str, int]:
    balances: dict[str, int] = {}
    for txn in txns:
        src = f"acct-{txn['key'] % _ACCOUNTS}"
        dst = f"acct-{(txn['key'] * 7 + 3) % _ACCOUNTS}"
        amount = 1 + txn["seq"] % 9
        balances[src] = balances.get(src, _OPENING_BALANCE) - amount
        balances[dst] = balances.get(dst, _OPENING_BALANCE) + amount
    return balances


def macro_reference(workload: MacroWorkload) -> dict[str, Any]:
    """The other preset's outputs on the same input (Q2-Q4 cross-check)."""
    other = "columnar" if workload.name == "macro-record" else "fastpath"
    twin = MacroWorkload("reference", other, workload.events)
    return {"twin": twin.execute().outputs, "preset": other}


def check_macro(workload: MacroWorkload, run: Pass, reference: dict[str, Any]) -> Verdict:
    verdict = Verdict()
    txns = [event.value for event in workload.events if event.value["kind"] == "txn"]
    verdict.compare("q1 values", [_enriched(t) for t in txns], _values(run.outputs["q1"]))
    verdict.compare(
        "q5 committed op ids",
        [f"t{t['seq']}" for t in txns],
        _values(run.outputs["q5"]),
        ordered=False,
    )
    store_items = run.extra["store_items"]
    verdict.compare(
        "q5 balances", sorted(_balances(txns).items()), sorted(store_items.items()), ordered=False
    )
    verdict.require("q5 balance_conservation", balance_conservation(store_items) is None)
    for query in ("q2", "q3", "q4"):
        verdict.compare(
            f"{query} vs {reference['preset']}", reference["twin"][query], run.outputs[query]
        )
    return verdict


# ----------------------------------------------------------------------
# keyed-state-recovery
# ----------------------------------------------------------------------
def keyed_reference(workload: KeyedRecoveryWorkload) -> dict[str, Any]:
    """The fault-free run of the same job on the same input."""
    fault_free = KeyedRecoveryWorkload(workload.values, kills=False)
    return {"fault_free": fault_free.execute().outputs["sums"]}


def check_keyed(workload: KeyedRecoveryWorkload, run: Pass, reference: dict[str, Any]) -> Verdict:
    verdict = Verdict()
    committed = run.outputs["sums"]
    verdict.compare("committed vs fault-free run", reference["fault_free"], committed, ordered=False)
    sums: dict[int, int] = {}
    for record in workload.values:
        sums[record["k"]] = sums.get(record["k"], 0) + record["v"]
    last: dict[Any, Any] = {}
    for value, _event_time, key, _sign in committed:
        last[key] = value
    verdict.compare("final sum per key", sorted(sums.items()), sorted(last.items()), ordered=False)
    return verdict


# ----------------------------------------------------------------------
# fabric-tenants
# ----------------------------------------------------------------------
def _solo(events: list) -> list[tuple]:
    env, sink = tenant_env("solo", events)
    env.execute()
    return sink_tuples(sink.results)


def fabric_reference(workload: FabricWorkload) -> dict[str, Any]:
    """Solo runs of every ``FABRIC_SOLO_STRIDE``-th tenant."""
    checked = range(0, len(workload.inputs), FABRIC_SOLO_STRIDE)
    return {"solo": {f"t{i}": _solo(workload.inputs[i]) for i in checked}}


def check_fabric(workload: FabricWorkload, run: Pass, reference: dict[str, Any]) -> Verdict:
    verdict = Verdict()
    for index, events in enumerate(workload.inputs):
        name = f"t{index}"
        expected: list[tuple] = []
        seen: Counter = Counter()
        for event in events:
            sensor = event.value["sensor"]
            seen[sensor] += 1
            expected.append((sensor, seen[sensor]))
        got = [(key, value) for value, _event_time, key, _sign in run.outputs[name]]
        verdict.compare(f"{name} running counts", expected, got)
    for name, solo in reference["solo"].items():
        verdict.compare(f"{name} vs solo run", solo, run.outputs[name])
    return verdict


def reference_for(workload: Any) -> dict[str, Any]:
    if isinstance(workload, MacroWorkload):
        return macro_reference(workload)
    if isinstance(workload, KeyedRecoveryWorkload):
        return keyed_reference(workload)
    return fabric_reference(workload)


def check(workload: Any, run: Pass, reference: dict[str, Any]) -> Verdict:
    """Judge one pass's outputs against ``reference_for(workload)``."""
    if isinstance(workload, MacroWorkload):
        return check_macro(workload, run, reference)
    if isinstance(workload, KeyedRecoveryWorkload):
        return check_keyed(workload, run, reference)
    return check_fabric(workload, run, reference)

"""The forwarding operator context: one set of passthroughs to the parent.

``_BatchCollector`` (scalar fallback of ``process_batch``) and
``_LinkContext`` (chain members) both derive from ``ForwardingContext`` and
override only what they change. Every other ``OperatorContext`` service
must reach the parent unchanged, and a chain link must keep scoping state
names and timer payloads by member index.
"""

import pytest

from repro.core.events import Record
from repro.core.operators import ChainedOperator, MapOperator
from repro.core.operators.base import ForwardingContext, OperatorContext, _BatchCollector
from repro.core.operators.chain import _LinkContext
from repro.state.api import ValueStateDescriptor


class RecordingContext(OperatorContext):
    """Parent context that logs each service call and returns a marker."""

    def __init__(self):
        self.calls = []
        self.current_key_value = "k0"

    def _log(self, name, *args):
        self.calls.append((name, args))
        return ("from-parent", name)

    task_name = property(lambda self: self._log("task_name"))
    subtask_index = property(lambda self: self._log("subtask_index"))
    parallelism = property(lambda self: self._log("parallelism"))
    current_key = property(lambda self: self._log("current_key"))

    def emit(self, element):
        return self._log("emit", element)

    def emit_to(self, tag, element):
        return self._log("emit_to", tag, element)

    def processing_time(self):
        return self._log("processing_time")

    def current_watermark(self):
        return self._log("current_watermark")

    def register_event_timer(self, timestamp, payload=None):
        return self._log("register_event_timer", timestamp, payload)

    def register_processing_timer(self, timestamp, payload=None):
        return self._log("register_processing_timer", timestamp, payload)

    def set_current_key(self, key):
        return self._log("set_current_key", key)

    def state(self, descriptor):
        return self._log("state", descriptor)

    def operator_state(self, name, default=None):
        return self._log("operator_state", name, default)

    def set_operator_state(self, name, value):
        return self._log("set_operator_state", name, value)

    def add_cost(self, seconds):
        return self._log("add_cost", seconds)


DESCRIPTOR = ValueStateDescriptor("acc")
ELEMENT = Record(value=1)

#: service -> (call through the proxy, the call the parent must see)
SERVICES = {
    "task_name": (lambda c: c.task_name, ("task_name", ())),
    "subtask_index": (lambda c: c.subtask_index, ("subtask_index", ())),
    "parallelism": (lambda c: c.parallelism, ("parallelism", ())),
    "current_key": (lambda c: c.current_key, ("current_key", ())),
    "emit_to": (lambda c: c.emit_to("late", ELEMENT), ("emit_to", ("late", ELEMENT))),
    "processing_time": (lambda c: c.processing_time(), ("processing_time", ())),
    "current_watermark": (lambda c: c.current_watermark(), ("current_watermark", ())),
    "register_event_timer": (
        lambda c: c.register_event_timer(2.0, "p"),
        ("register_event_timer", (2.0, "p")),
    ),
    "register_processing_timer": (
        lambda c: c.register_processing_timer(3.0, "q"),
        ("register_processing_timer", (3.0, "q")),
    ),
    "set_current_key": (lambda c: c.set_current_key("k1"), ("set_current_key", ("k1",))),
    "state": (lambda c: c.state(DESCRIPTOR), ("state", (DESCRIPTOR,))),
    "operator_state": (lambda c: c.operator_state("n", 7), ("operator_state", ("n", 7))),
    "set_operator_state": (
        lambda c: c.set_operator_state("n", 8),
        ("set_operator_state", ("n", 8)),
    ),
    "add_cost": (lambda c: c.add_cost(1e-3), ("add_cost", (1e-3,))),
}

RETURNS_VALUE = {
    "task_name", "subtask_index", "parallelism", "current_key",
    "processing_time", "current_watermark", "state", "operator_state",
}

#: services each proxy changes on purpose (everything else forwards)
OVERRIDES = {
    _BatchCollector: {"emit"},
    _LinkContext: {"emit", "register_event_timer", "register_processing_timer", "state", "operator_state", "set_operator_state"},
}


def make_proxy(kind, parent):
    if kind is _BatchCollector:
        return _BatchCollector(parent)
    chain = ChainedOperator([MapOperator(lambda v: v), MapOperator(lambda v: v)])
    chain._bind(parent)
    return chain._links[1]


def _public_services(cls):
    return {name for name in vars(cls) if not name.startswith("_")}


def test_forwarding_base_covers_the_context_contract_except_emit():
    contract = _public_services(OperatorContext)
    assert contract - _public_services(ForwardingContext) == {"emit"}


@pytest.mark.parametrize("kind", list(OVERRIDES), ids=lambda kind: kind.__name__)
def test_proxies_define_only_their_overrides(kind):
    contract = _public_services(OperatorContext) | {"current_key_value"}
    assert _public_services(kind) & contract == OVERRIDES[kind]


@pytest.mark.parametrize(
    "kind, service",
    [(kind, service) for kind in OVERRIDES for service in sorted(SERVICES) if service not in OVERRIDES[kind]],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_unoverridden_service_reaches_the_parent(kind, service):
    parent = RecordingContext()
    proxy = make_proxy(kind, parent)
    call, expected = SERVICES[service]
    result = call(proxy)
    assert parent.calls == [expected]
    if service in RETURNS_VALUE:
        assert result == ("from-parent", service)


@pytest.mark.parametrize("kind", list(OVERRIDES), ids=lambda kind: kind.__name__)
def test_current_key_value_reads_and_writes_the_parent(kind):
    parent = RecordingContext()
    proxy = make_proxy(kind, parent)
    assert proxy.current_key_value == "k0"
    proxy.current_key_value = "k2"
    assert parent.current_key_value == "k2"


def test_link_scopes_state_and_timers_by_member_index():
    parent = RecordingContext()
    link = make_proxy(_LinkContext, parent)
    link.state(DESCRIPTOR)
    link.state(DESCRIPTOR)
    link.operator_state("n", 7)
    link.set_operator_state("n", 8)
    link.register_event_timer(2.0, "p")
    link.register_processing_timer(3.0, "q")
    (_, (first,)), (_, (second,)) = parent.calls[:2]
    assert first.name == "chain1/acc" and second is first  # scoped copy, cached
    assert DESCRIPTOR.name == "acc"
    assert parent.calls[2:] == [
        ("operator_state", ("chain1/n", 7)),
        ("set_operator_state", ("chain1/n", 8)),
        ("register_event_timer", (2.0, (1, "p"))),
        ("register_processing_timer", (3.0, (1, "q"))),
    ]

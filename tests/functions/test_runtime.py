"""Stateful function runtime: addressing, serial execution, replies, state."""

import pytest

from repro.errors import FunctionError
from repro.functions.runtime import Address, StatefulFunctionRuntime
from repro.sim import Kernel
from repro.state.external import PersistentMemoryBackend


def make_runtime(**kwargs):
    kernel = Kernel()
    return kernel, StatefulFunctionRuntime(kernel, **kwargs)


class TestMessaging:
    def test_state_persists_across_invocations(self):
        kernel, runtime = make_runtime()

        def counter(ctx, msg):
            if msg == "reset":
                ctx.storage.clear()
            else:
                ctx.storage.set(ctx.storage.get(0) + msg)

        runtime.register("counter", counter)
        for value in (1, 2, 3):
            runtime.send(Address("counter", "c1"), value)
        kernel.run()
        assert runtime.state_of(Address("counter", "c1")) == 6
        runtime.send(Address("counter", "c1"), "reset")
        runtime.send(Address("counter", "c1"), 4)
        kernel.run()
        assert runtime.state_of(Address("counter", "c1")) == 4

    def test_instances_are_isolated(self):
        kernel, runtime = make_runtime()
        runtime.register("counter", lambda ctx, msg: ctx.storage.set(ctx.storage.get(0) + 1))
        runtime.send(Address("counter", "a"), None)
        runtime.send(Address("counter", "b"), None)
        runtime.send(Address("counter", "a"), None)
        kernel.run()
        assert runtime.state_of(Address("counter", "a")) == 2
        assert runtime.state_of(Address("counter", "b")) == 1

    def test_per_address_serial_execution(self):
        kernel, runtime = make_runtime()
        order = []

        def fn(ctx, msg):
            order.append((ctx.address.id, msg, kernel.now()))

        runtime.register("fn", fn)
        for i in range(5):
            runtime.send(Address("fn", "x"), i)
        kernel.run()
        # Messages to one address process in order, spaced by invocation cost.
        assert [m for (_id, m, _t) in order] == [0, 1, 2, 3, 4]
        times = [t for (_id, _m, t) in order]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_unknown_function_type_rejected(self):
        _kernel, runtime = make_runtime()
        with pytest.raises(FunctionError):
            runtime.send(Address("ghost", "g"), None)

    def test_function_exception_is_isolated(self):
        kernel, runtime = make_runtime()

        def flaky(ctx, msg):
            if msg == "boom":
                raise RuntimeError("boom")
            ctx.storage.set(ctx.storage.get(0) + 1)

        runtime.register("flaky", flaky)
        runtime.send(Address("flaky", "f"), "ok")
        runtime.send(Address("flaky", "f"), "boom")
        runtime.send(Address("flaky", "f"), "ok")
        kernel.run()
        assert runtime.state_of(Address("flaky", "f")) == 2
        assert len(runtime.failures) == 1


class TestRequestResponse:
    def test_call_resolves_future(self):
        kernel, runtime = make_runtime()

        def echo(ctx, msg):
            ctx.reply(msg * 2)

        runtime.register("echo", echo)
        future = runtime.call(Address("echo", "e"), 21)
        kernel.run()
        assert future.resolved
        assert future.value == 42

    def test_function_to_function_request_response(self):
        kernel, runtime = make_runtime()
        results = []

        def inventory(ctx, msg):
            stock = ctx.storage.get(10)
            ctx.reply(stock >= msg)

        def order(ctx, msg):
            future = ctx.call(Address("inventory", "item"), msg["quantity"])
            future.on_resolve(lambda ok: results.append((msg["order"], ok)))

        runtime.register("inventory", inventory)
        runtime.register("order", order)
        runtime.send(Address("order", "o1"), {"order": "o1", "quantity": 3})
        runtime.send(Address("order", "o2"), {"order": "o2", "quantity": 30})
        kernel.run()
        assert sorted(results) == [("o1", True), ("o2", False)]

    def test_reply_to_source_without_correlation(self):
        kernel, runtime = make_runtime()
        got = []

        def pinger(ctx, msg):
            if msg == "start":
                ctx.send(Address("ponger", "p"), "ping")
            else:
                got.append(msg)

        runtime.register("pinger", pinger)
        runtime.register("ponger", lambda ctx, msg: ctx.reply("pong"))
        runtime.send(Address("pinger", "a"), "start")
        kernel.run()
        assert got == ["pong"]


class TestDelaysAndEgress:
    def test_delayed_self_message(self):
        kernel, runtime = make_runtime()
        times = []

        def fn(ctx, msg):
            times.append(ctx.now())
            if msg == "start":
                ctx.send_after(1.0, ctx.address, "later")

        runtime.register("fn", fn)
        runtime.send(Address("fn", "x"), "start")
        kernel.run()
        assert len(times) == 2
        assert times[1] - times[0] >= 1.0

    def test_egress_collects(self):
        kernel, runtime = make_runtime()
        out = runtime.register_egress("out")
        runtime.register("fn", lambda ctx, msg: ctx.send_egress("out", msg))
        runtime.send(Address("fn", "x"), "hello")
        kernel.run()
        assert out == ["hello"]


class TestDurableState:
    def test_surviving_backend_keeps_state(self):
        kernel = Kernel()
        runtime = StatefulFunctionRuntime(kernel, backend_factory=PersistentMemoryBackend)
        runtime.register("counter", lambda ctx, msg: ctx.storage.set(ctx.storage.get(0) + 1))
        runtime.send(Address("counter", "c"), None)
        kernel.run()
        backend = runtime.backend_for("counter")
        assert backend.survives_task_failure
        assert runtime.state_of(Address("counter", "c")) == 1

"""Tests for remote services (Section 6, Q3): the proxy tile and CPU host."""

import pytest

from repro.accel import Accelerator
from repro.kernel import (
    ApiarySystem,
    RemoteCpuServiceHost,
    RemoteServiceProxy,
    SystemConfig,
)
from repro.net import EthernetFabric
from repro.sim import Engine


def dictionary_handler(op, payload):
    """A 'rarely used / complex' service: dictionary lookups on the CPU."""
    table = dictionary_handler.table
    if op == "dict.put":
        table[payload["key"]] = payload["value"]
        return 200, {"stored": True}, 16
    if op == "dict.get":
        value = table.get(payload["key"])
        return 150, {"value": value}, 64
    raise ValueError(f"bad op {op!r}")


dictionary_handler.table = {}


def build(engine=None):
    dictionary_handler.table = {}
    engine = engine or Engine()
    fabric = EthernetFabric(engine, latency_cycles=400)
    system = ApiarySystem(config=SystemConfig.figure1().with_mac("board0"),
                          engine=engine, fabric=fabric)
    system.boot()
    host = RemoteCpuServiceHost(engine, fabric, "cpu-host0",
                                dictionary_handler)
    proxy = RemoteServiceProxy("dict-proxy", remote_mac="cpu-host0", port=88)
    started = system.mgmt.load_service(3, proxy, "svc.dict")
    # the proxy is itself a client of svc.net (and receives net.rx events)
    system.mgmt.grant_send("tile3", "svc.net")
    net_tile = system.tiles[system.namespace.lookup("svc.net")]
    system.mgmt.grant_send(net_tile.endpoint, "tile3")
    system.run_until(started)
    system.run(until=engine.now + 5000)
    return engine, system, host, proxy


class DictClient(Accelerator):
    def __init__(self, ops):
        super().__init__("dict-client")
        self.ops = ops
        self.results = []
        self.errors = []
        self.latencies = []

    def main(self, shell):
        for op, payload in self.ops:
            t0 = shell.engine.now
            try:
                resp = yield shell.call("svc.dict", op, payload=payload,
                                        payload_bytes=64, timeout=50_000_000)
                self.results.append(resp.payload)
                self.latencies.append(shell.engine.now - t0)
            except Exception as err:
                self.errors.append(f"{type(err).__name__}: {err}")


def run_client(engine, system, ops, node=4):
    client = DictClient(ops)
    started = system.start_app(node, client)
    system.run_until(started)
    system.run(until=engine.now + 200_000_000)
    return client


def test_remote_service_roundtrip():
    engine, system, host, proxy = build()
    client = run_client(engine, system, [
        ("dict.put", {"key": "a", "value": 1}),
        ("dict.get", {"key": "a"}),
        ("dict.get", {"key": "missing"}),
    ])
    assert not client.errors, client.errors
    assert client.results[0] == {"stored": True}
    assert client.results[1] == {"value": 1}
    assert client.results[2] == {"value": None}
    assert host.requests_served == 3
    assert proxy.forwarded == 3 and proxy.completed == 3


def test_remote_service_looks_like_any_endpoint():
    """The caller uses the ordinary shell API; capability checks apply."""
    engine, system, host, proxy = build()

    class Unauthorized(Accelerator):
        def __init__(self):
            super().__init__("rogue")
            self.outcome = None

        def main(self, shell):
            try:
                yield shell.call("svc.dict", "dict.get",
                                 payload={"key": "a"}, timeout=5_000_000)
                self.outcome = "allowed"
            except Exception as err:
                self.outcome = type(err).__name__

    rogue = Unauthorized()
    started = system.tiles[4].start(rogue)  # load WITHOUT service wiring
    system.run_until(started)
    system.run(until=engine.now + 20_000_000)
    assert rogue.outcome == "AccessDenied"
    assert host.requests_served == 0


def test_remote_handler_error_becomes_error_response():
    engine, system, host, proxy = build()
    client = run_client(engine, system, [("dict.unknown", {})])
    assert client.errors and "ServiceError" in client.errors[0]


def test_remote_charges_host_cpu_cycles():
    engine, system, host, proxy = build()
    run_client(engine, system, [
        ("dict.put", {"key": i, "value": i}) for i in range(5)
    ])
    assert host.cpu.cycles_used > 5 * 200  # handler + stack costs


def test_remote_latency_exceeds_local_hardware_service():
    """The Q3 trade: remote CPU placement works, but costs network RTTs."""
    engine, system, host, proxy = build()
    client = run_client(engine, system, [
        ("dict.get", {"key": "x"}) for _ in range(3)
    ])
    remote_lat = min(client.latencies)
    # a local hardware service round trip (svc.mem alloc) for comparison
    class LocalProbe(Accelerator):
        def __init__(self):
            super().__init__("probe")
            self.latency = None

        def main(self, shell):
            t0 = shell.engine.now
            yield shell.alloc(4096)
            self.latency = shell.engine.now - t0

    probe = LocalProbe()
    started = system.start_app(5, probe)
    system.run_until(started)
    system.run(until=engine.now + 50_000_000)
    assert probe.latency is not None
    assert remote_lat > 3 * probe.latency


def test_concurrent_remote_requests_correlate_correctly():
    engine, system, host, proxy = build()

    class Burst(Accelerator):
        def __init__(self):
            super().__init__("burst")
            self.values = None

        def main(self, shell):
            yield shell.call("svc.dict", "dict.put",
                             payload={"key": "k", "value": 9},
                             timeout=50_000_000)
            events = [shell.call("svc.dict", "dict.get",
                                 payload={"key": "k"}, timeout=50_000_000)
                      for _ in range(6)]
            responses = yield shell.engine.all_of(events)
            self.values = [r.payload["value"] for r in responses]

    burst = Burst()
    started = system.start_app(4, burst)
    system.run_until(started)
    system.run(until=engine.now + 300_000_000)
    assert burst.values == [9] * 6

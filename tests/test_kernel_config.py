"""The SystemConfig API: validation, presets, and the one constructor.

``ApiarySystem(config=SystemConfig(...))`` is the only way to configure a
board; the runtime objects (engine, fabric, spans, drc) ride beside it.
"""

import dataclasses
import inspect

import pytest

from repro.errors import ConfigError
from repro.kernel import (
    ApiarySystem,
    FaultConfig,
    MemConfig,
    NetConfig,
    NocConfig,
    SystemConfig,
)
from repro.net.frame import EthernetFabric
from repro.sim import Engine


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = SystemConfig()
        assert cfg.noc.tiles == 16
        assert cfg.mem.enabled and cfg.net.mac_kind == "100g"

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigError):
            NocConfig(width=0, height=4)

    def test_bad_mac_kind_rejected(self):
        with pytest.raises(ConfigError):
            NetConfig(mac_kind="400g")

    def test_mem_net_tile_collision_only_when_attached(self):
        cfg = SystemConfig(mem=MemConfig(tile=1), net=NetConfig(tile=1))
        # fabric-less systems never instantiate the net service: fine
        ApiarySystem(config=cfg)
        engine = Engine()
        fabric = EthernetFabric(engine, latency_cycles=500)
        with pytest.raises(ConfigError):
            ApiarySystem(config=cfg, engine=engine, fabric=fabric)

    def test_net_tile_out_of_range_when_attached(self):
        cfg = SystemConfig(noc=NocConfig(width=2, height=2),
                           net=NetConfig(tile=9))
        engine = Engine()
        fabric = EthernetFabric(engine, latency_cycles=500)
        with pytest.raises(ConfigError):
            ApiarySystem(config=cfg, engine=engine, fabric=fabric)

    def test_configs_are_frozen(self):
        cfg = SystemConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 7

    def test_derivation_via_replace(self):
        base = SystemConfig.figure1()
        derived = base.with_mac("fpga3")
        assert derived.net.mac_addr == "fpga3"
        assert base.net.mac_addr != "fpga3"  # original untouched
        assert derived.noc == base.noc


class TestFigure1Preset:
    def test_figure1_shape(self):
        cfg = SystemConfig.figure1()
        assert (cfg.noc.width, cfg.noc.height) == (3, 2)
        assert cfg.mem.tile == 0 and cfg.net.tile == 1

    def test_figure1_boots(self):
        engine = Engine()
        fabric = EthernetFabric(engine, latency_cycles=500)
        system = ApiarySystem(engine=engine, fabric=fabric,
                              config=SystemConfig.figure1())
        system.boot()
        assert system.namespace.lookup("svc.mem") == 0
        assert system.namespace.lookup("svc.net") == 1


class TestFaultConfig:
    def test_policy_flows_through(self):
        from repro.kernel.fault import FaultPolicy
        cfg = SystemConfig(fault=FaultConfig(policy=FaultPolicy.PREEMPT))
        system = ApiarySystem(config=cfg)
        assert system.fault_manager.policy == FaultPolicy.PREEMPT


class TestConstructor:
    def test_only_config_and_runtime_objects(self):
        params = list(inspect.signature(ApiarySystem.__init__).parameters)
        assert params == ["self", "config", "engine", "fabric", "spans",
                          "drc"]

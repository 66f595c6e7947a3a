"""repro — a simulated reproduction of "Apiary: An OS for the Modern FPGA"
(HotOS 2025).

The package implements the paper's proposed hardware microkernel in full on
a from-scratch cycle-level simulator: a wormhole NoC with virtual channels,
per-tile monitors enforcing capabilities and rate limits, segment-based
memory isolation, fail-stop/preemptible fault handling, OS services in tile
slots, and the host-mediated baselines the paper positions against.

Quickstart::

    from repro.kernel import ApiarySystem, SystemConfig
    from repro.accel import EchoAccel

    system = ApiarySystem(config=SystemConfig.figure1())
    system.boot()
    system.run_until(system.start_app(3, EchoAccel("hello"),
                                      endpoint="app.hello"))

See README.md, DESIGN.md and the examples/ directory.
"""

__version__ = "1.0.0"

__all__ = [
    "sim",
    "noc",
    "hw",
    "mem",
    "cap",
    "kernel",
    "accel",
    "net",
    "baselines",
    "apps",
    "workloads",
    "eval",
    "__version__",
]

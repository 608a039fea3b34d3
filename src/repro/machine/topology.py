"""Machine specifications: the emulation platform and the Sniper stand-in.

Two specs mirror Section IV of the paper:

* :func:`emulation_platform_spec` — the two-socket E5-2650L platform:
  8 cores x 2 hyperthreads per socket, 20 MB shared LLC, 256 KB private
  L2 per core, both sockets populated with DRAM (Socket 1's DRAM plays
  PCM).
* :func:`sniper_simulation_spec` — the simulated hardware used for
  validation: 8 out-of-order cores, same cache sizes, **no
  hyper-threading** (the paper disables HT on the emulator when
  comparing against simulation for exactly this reason).

All capacities go through :class:`repro.config.ScaleConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import (
    DEFAULT_LATENCY,
    DEFAULT_SCALE_CONFIG,
    LINE_SIZE,
    LatencyModel,
    ScaleConfig,
)
from repro.machine.cache import CacheLevel
from repro.machine.memory import MemoryNode
from repro.machine.numa import NumaMachine, Socket

#: Node ids, fixed by convention throughout the reproduction.
DRAM_NODE = 0
PCM_NODE = 1


@dataclass(frozen=True)
class MachineSpec:
    """Blueprint for a :class:`NumaMachine`."""

    name: str
    sockets: int
    cores_per_socket: int
    hyperthreads: int
    llc_size: int
    llc_assoc: int
    l2_size: int
    l2_assoc: int
    node_capacity: int
    latency: LatencyModel = DEFAULT_LATENCY

    def build(self) -> NumaMachine:
        """Instantiate the machine described by this spec."""
        kinds = {DRAM_NODE: "DRAM", PCM_NODE: "PCM"}
        built = []
        for socket_id in range(self.sockets):
            llc = CacheLevel(self.llc_size, self.llc_assoc, LINE_SIZE,
                             name=f"LLC{socket_id}")
            memory = MemoryNode(socket_id, self.node_capacity,
                                kinds.get(socket_id, "DRAM"))
            built.append(Socket(socket_id, llc, memory,
                                cores=self.cores_per_socket,
                                hyperthreads=self.hyperthreads))
        machine = NumaMachine(built, self.latency)
        if self.l2_size:
            l2_size, l2_assoc = self.l2_size, self.l2_assoc
            machine.private_cache_factory = lambda: CacheLevel(
                l2_size, l2_assoc, LINE_SIZE, name="L2")
        return machine

    def without_hyperthreading(self) -> "MachineSpec":
        return replace(self, hyperthreads=1)


def _llc_assoc_for(size: int) -> int:
    """Pick an associativity that divides the line count evenly."""
    lines = size // LINE_SIZE
    for assoc in (16, 8, 4, 2, 1):
        if lines % assoc == 0:
            return assoc
    return 1


def emulation_platform_spec(scale: ScaleConfig = DEFAULT_SCALE_CONFIG,
                            latency: LatencyModel = DEFAULT_LATENCY) -> MachineSpec:
    """The paper's NUMA emulation platform (Figure 2), scaled."""
    return MachineSpec(
        name="numa-emulator",
        sockets=2,
        cores_per_socket=8,
        hyperthreads=2,
        llc_size=scale.llc_size,
        llc_assoc=_llc_assoc_for(scale.llc_size),
        l2_size=scale.l2_size,
        l2_assoc=_llc_assoc_for(scale.l2_size),
        node_capacity=scale.socket_dram,
        latency=latency,
    )


def sniper_simulation_spec(scale: ScaleConfig = DEFAULT_SCALE_CONFIG,
                           latency: LatencyModel = DEFAULT_LATENCY,
                           llc_size: int = 0) -> MachineSpec:
    """The Sniper-style simulated hardware used for validation.

    ``llc_size`` overrides the LLC capacity; the paper re-simulates with
    a 20 MB LLC to match the emulator (its earlier results used 4 MB).
    """
    size = llc_size or scale.llc_size
    return MachineSpec(
        name="sniper-sim",
        sockets=2,
        cores_per_socket=8,
        hyperthreads=1,
        llc_size=size,
        llc_assoc=_llc_assoc_for(size),
        l2_size=scale.l2_size,
        l2_assoc=_llc_assoc_for(scale.l2_size),
        node_capacity=scale.socket_dram,
        latency=latency,
    )

"""Write-rationing garbage collectors (Section II-B).

The family:

* **GenImmix** — the baseline generational Immix collector; with every
  space bound to PCM it is the paper's *PCM-Only* reference system.
* **KG-N** (Kingsguard-nursery) — nursery in DRAM, everything else PCM.
* **KG-B** — KG-N with a 3x nursery (12 MB vs 4 MB).
* **KG-N+LOO / KG-B+LOO** — plus the Large Object Optimization.
* **KG-W** (Kingsguard-writers) — adds a DRAM observer space that
  monitors nursery survivors; written objects tenure to DRAM mature,
  unwritten ones to PCM mature.  Includes LOO and the MetaData
  Optimization (MDO) by default.
* **KG-W-LOO / KG-W-MDO** — KG-W with LOO (respectively MDO) removed,
  matching the paper's ablation naming.
* **KG-W@1x / KG-W@4x** — KG-W with an observer of 1x (respectively
  4x) the nursery instead of 2x, for the observer-size sweep; the
  suffix is the observer size, not the ablation "minus" naming.
"""

from repro.core.collectors.base import Collector
from repro.core.collectors.crystalgazer import (
    CrystalGazerCollector,
    WriteProfile,
)
from repro.core.collectors.genimmix import GenImmixCollector
from repro.core.collectors.kingsguard import KingsguardCollector
from repro.core.collectors.policy import (
    ALL_COLLECTOR_NAMES,
    CollectorConfig,
    collector_config,
    create_collector,
    space_socket_table,
)

__all__ = [
    "ALL_COLLECTOR_NAMES",
    "Collector",
    "CollectorConfig",
    "CrystalGazerCollector",
    "GenImmixCollector",
    "KingsguardCollector",
    "WriteProfile",
    "collector_config",
    "create_collector",
    "space_socket_table",
]

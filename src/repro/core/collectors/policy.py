"""Collector configurations: the space-to-socket policy of Table I.

A :class:`CollectorConfig` is a frozen description of one collector
variant: which spaces exist, which memory kind (DRAM socket 0 / PCM
socket 1) backs each, and which optimizations are enabled.  The
constructors below encode every configuration evaluated in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.collectors.base import Collector


@dataclass(frozen=True)
class CollectorConfig:
    """One garbage collector configuration.

    Attributes
    ----------
    name:
        Paper name ("KG-W", "PCM-Only", ...).
    kind:
        ``"genimmix"`` or ``"kingsguard"``.
    nursery_in_dram:
        KG collectors place the nursery in DRAM; PCM-Only does not.
    has_observer:
        KG-W variants monitor nursery survivors in an observer space
        (sized at twice the nursery, per Section IV).
    dram_mature / dram_los:
        Whether DRAM-side mature / large spaces exist (KG-W variants).
    mdo:
        MetaData Optimization — metadata of PCM objects lives in DRAM.
    loo:
        Large Object Optimization — small-enough large objects are
        first allocated in the nursery to give them time to die.
    boot_in_dram:
        The boot image is kept in DRAM except on a PCM-Only system.
    thread_socket:
        Where application and JVM threads run: Socket 0, except
        PCM-Only which binds threads to Socket 1 so write measurements
        on the PCM socket are accurate (Section III-B).
    nursery_factor:
        Nursery size multiplier (KG-B uses 3x: 12 MB vs 4 MB).
    observer_factor:
        Observer size as a multiple of the nursery.  The paper uses 2x
        as "a good compromise between tenured garbage and pause time"
        (Section IV); the observer-size sweep experiment varies it.
    """

    name: str
    kind: str
    nursery_in_dram: bool
    has_observer: bool
    dram_mature: bool
    dram_los: bool
    mdo: bool
    loo: bool
    boot_in_dram: bool
    thread_socket: int
    nursery_factor: int = 1
    observer_factor: int = 2


def _pcm_only() -> CollectorConfig:
    return CollectorConfig(
        name="PCM-Only", kind="genimmix", nursery_in_dram=False,
        has_observer=False, dram_mature=False, dram_los=False,
        mdo=False, loo=False, boot_in_dram=False, thread_socket=1)


def _kg(name: str, *, observer: bool = False, factor: int = 1,
        loo: bool = False, mdo: bool = False,
        observer_factor: int = 2) -> CollectorConfig:
    return CollectorConfig(
        name=name, kind="kingsguard", nursery_in_dram=True,
        has_observer=observer, dram_mature=observer, dram_los=observer,
        mdo=mdo, loo=loo, boot_in_dram=True, thread_socket=0,
        nursery_factor=factor, observer_factor=observer_factor)


def _crystal_gazer() -> CollectorConfig:
    # Extension (the paper's cited follow-up work): KG-W's layout
    # without the observer — prediction replaces monitoring.
    return CollectorConfig(
        name="KG-CG", kind="crystalgazer", nursery_in_dram=True,
        has_observer=False, dram_mature=True, dram_los=True,
        mdo=True, loo=True, boot_in_dram=True, thread_socket=0)


_CONFIGS: Dict[str, CollectorConfig] = {
    "PCM-Only": _pcm_only(),
    "KG-N": _kg("KG-N"),
    "KG-B": _kg("KG-B", factor=3),
    "KG-N+LOO": _kg("KG-N+LOO", loo=True),
    "KG-B+LOO": _kg("KG-B+LOO", factor=3, loo=True),
    "KG-W": _kg("KG-W", observer=True, loo=True, mdo=True),
    # Paper ablation naming: "KG-W-LOO" is KG-W *minus* LOO, and
    # "KG-W-MDO" is KG-W *minus* MDO.
    "KG-W-LOO": _kg("KG-W-LOO", observer=True, loo=False, mdo=True),
    "KG-W-MDO": _kg("KG-W-MDO", observer=True, loo=True, mdo=False),
    # Extension (the observer-size sweep): KG-W with a 1x or 4x
    # observer.  The suffix is the observer size as a multiple of the
    # nursery, not the ablation "minus" naming above.
    "KG-W@1x": _kg("KG-W@1x", observer=True, loo=True, mdo=True,
                   observer_factor=1),
    "KG-W@4x": _kg("KG-W@4x", observer=True, loo=True, mdo=True,
                   observer_factor=4),
    "KG-CG": _crystal_gazer(),
}

ALL_COLLECTOR_NAMES: List[str] = list(_CONFIGS)


def collector_config(name: str) -> CollectorConfig:
    """Look up a configuration by its paper name."""
    try:
        return _CONFIGS[name]
    except KeyError:
        raise KeyError(f"unknown collector {name!r}; "
                       f"choose from {ALL_COLLECTOR_NAMES}") from None


def create_collector(name: str) -> "Collector":
    """Instantiate the collector for a configuration name."""
    from repro.core.collectors.crystalgazer import CrystalGazerCollector
    from repro.core.collectors.genimmix import GenImmixCollector
    from repro.core.collectors.kingsguard import KingsguardCollector

    config = collector_config(name)
    if config.kind == "genimmix":
        return GenImmixCollector(config)
    if config.kind == "crystalgazer":
        return CrystalGazerCollector(config)
    return KingsguardCollector(config)


def space_socket_table(names: List[str]) -> str:
    """Render the space-to-socket mapping (Table I) for ``names``."""
    spaces = ["Nursery", "Observer", "Mature", "Large", "Metadata"]
    header = f"{'Space':<10}" + "".join(f"{n:>16}" for n in names)
    sub = f"{'':<10}" + "".join(f"{'S0   S1':>16}" for _ in names)
    rows = [header, sub]

    def cells(config: CollectorConfig, space: str) -> str:
        yes, no = "Y", "-"
        if space == "Nursery":
            s0, s1 = config.nursery_in_dram, not config.nursery_in_dram
        elif space == "Observer":
            s0, s1 = config.has_observer, False
        elif space == "Mature":
            s0, s1 = config.dram_mature, True
        elif space == "Large":
            s0, s1 = config.dram_los, True
        else:  # Metadata
            s0, s1 = config.mdo, True
        if config.name == "PCM-Only":
            s0 = False
        return f"{yes if s0 else no:>9} {yes if s1 else no:>4}  "

    for space in spaces:
        row = f"{space:<10}"
        for name in names:
            row += cells(collector_config(name), space)
        rows.append(row)
    return "\n".join(rows)

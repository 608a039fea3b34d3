"""PCM lifetime model (Section VI-G, Equation 1).

::

    Y = (S * E) / (B * 2^25)

with ``S`` the PCM capacity in bytes, ``E`` the cell endurance in
writes, ``B`` the application's write rate in bytes per second, and
``2^25`` seconds approximately one year.  The equation assumes perfect
wear-levelling; the paper derates it to 50 % of the theoretical maximum
to model realistic hardware (start-gap style) wear-levelling.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from repro.config import GB

#: Endurance levels (writes per cell) of the paper's three prototypes.
PCM_ENDURANCE_LEVELS: Dict[str, float] = {
    "Prototype 1 (10M writes/cell)": 10e6,
    "Prototype 2 (30M writes/cell)": 30e6,
    "Prototype 3 (50M writes/cell)": 50e6,
}

SECONDS_PER_YEAR = float(1 << 25)

#: The paper assumes hardware wear-levelling within 50 % of perfect.
DEFAULT_WEAR_LEVELING_EFFICIENCY = 0.5

#: PCM main-memory size assumed by the paper's lifetime study.
DEFAULT_PCM_BYTES = 32 * GB


def pcm_lifetime_years(write_rate_mbs: float,
                       endurance_writes_per_cell: float = 10e6,
                       pcm_bytes: int = DEFAULT_PCM_BYTES,
                       wear_leveling_efficiency: float =
                       DEFAULT_WEAR_LEVELING_EFFICIENCY) -> float:
    """Years before PCM wears out at a sustained write rate.

    ``write_rate_mbs`` is the observed PCM write rate in MB/s (the
    paper's B).  Returns ``inf`` for a zero write rate.

    >>> round(pcm_lifetime_years(140.0), 1)  # recommended max rate
    36.6
    """
    if write_rate_mbs < 0:
        raise ValueError("write rate cannot be negative")
    if not 0 < wear_leveling_efficiency <= 1:
        raise ValueError("wear-levelling efficiency must be in (0, 1]")
    if write_rate_mbs == 0:
        return float("inf")
    bytes_per_second = write_rate_mbs * 1e6
    ideal_years = (pcm_bytes * endurance_writes_per_cell) / (
        bytes_per_second * SECONDS_PER_YEAR)
    return ideal_years * wear_leveling_efficiency


def worst_rate(write_rates_mbs: Iterable[float]) -> float:
    """The highest rate, or NaN (a failed run's placeholder) if any rate
    is NaN; ``max`` keeps a NaN only when it comes first."""
    rates = list(write_rates_mbs)
    return float("nan") if any(r != r for r in rates) else max(rates)


def worst_case_lifetime(write_rates_mbs: Sequence[float], *,
                        endurance_writes_per_cell: float = 10e6,
                        pcm_bytes: int = DEFAULT_PCM_BYTES,
                        wear_leveling_efficiency: float =
                        DEFAULT_WEAR_LEVELING_EFFICIENCY) -> float:
    """Shortest lifetime across a set of applications (Table III).

    Model parameters are keyword-only: the old ``**kwargs`` forwarding
    let a positional second argument shadow ``endurance_writes_per_cell``
    (or collide with it when both were given), silently distorting the
    Table III numbers.  A NaN rate (a failed run) makes it NaN.
    """
    if not write_rates_mbs:
        raise ValueError("need at least one write rate")
    return pcm_lifetime_years(
        worst_rate(write_rates_mbs),
        endurance_writes_per_cell=endurance_writes_per_cell,
        pcm_bytes=pcm_bytes,
        wear_leveling_efficiency=wear_leveling_efficiency)

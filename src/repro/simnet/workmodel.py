"""Counted-work compute model for the simulated machine.

The virtual clock never times the host (see
:mod:`repro.simnet.simworld`): host time would carry the Python/numpy
per-call overhead of this reproduction — an artifact a 1996 C
implementation does not have, and one that dominates (and flattens
every speedup curve) once partitions drop below ~10^4 items.  The
**work model** here prices compute instead: each EM phase is charged
its *counted* cost,

.. math::

    t_{phase} = n_{items} \\cdot J \\cdot \\kappa_{phase}
                \\cdot (S / S_{ref})

anchored so a full cycle on the reference workload (two real
attributes, :math:`S_{ref} = 6` statistics per class) costs the SPARC
per-(item x class) seconds implied by the paper's Figure 8.  The phase
split :math:`\\kappa_{wts} : \\kappa_{params}` is measured from this
host's actual kernels at overhead-free sizes (~88 : 12 — matching the
paper's own observation, after [7], that ``update_wts`` dominates and
``update_approximations`` is negligible).

The computation itself still runs for real — the work model only
drives the clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simnet.machine import SPARC_SECONDS_PER_ITEM_CLASS

#: Statistics per class of the reference workload (two single_normal_cn
#: terms -> 3 + 3).
REFERENCE_STATS_PER_CLASS = 6.0

#: Phase shares of one base_cycle, measured on this host at sizes where
#: numpy call overhead is negligible (n >= 10^4): update_wts ~ 0.88,
#: update_parameters ~ 0.12 of the per-item work.
WTS_SHARE = 0.88
PARAMS_SHARE = 0.12

#: update_approximations touches only (J x S) aggregates; per-entry cost
#: on the modelled CPU (generous — it stays negligible, as the paper
#: reports).
APPROX_SECONDS_PER_CLASS_STAT = 2e-6


@dataclass(frozen=True)
class WorkModel:
    """Per-phase counted compute costs on the modelled machine."""

    seconds_per_item_class: float = SPARC_SECONDS_PER_ITEM_CLASS
    wts_share: float = WTS_SHARE
    params_share: float = PARAMS_SHARE
    approx_seconds_per_class_stat: float = APPROX_SECONDS_PER_CLASS_STAT

    def __post_init__(self) -> None:
        if self.seconds_per_item_class <= 0:
            raise ValueError("seconds_per_item_class must be > 0")
        if abs(self.wts_share + self.params_share - 1.0) > 1e-9:
            raise ValueError("wts_share + params_share must be 1")

    def _unit(self, n_stats: int) -> float:
        """Per-(item x class) seconds, scaled by the model's width."""
        return self.seconds_per_item_class * (n_stats / REFERENCE_STATS_PER_CLASS)

    def wts_seconds(self, n_items: int, n_classes: int, n_stats: int) -> float:
        """Counted cost of one local ``update_wts`` pass."""
        return self.wts_share * n_items * n_classes * self._unit(n_stats)

    def params_seconds(self, n_items: int, n_classes: int, n_stats: int) -> float:
        """Counted cost of one local ``update_parameters`` pass."""
        return self.params_share * n_items * n_classes * self._unit(n_stats)

    def approx_seconds(self, n_classes: int, n_stats: int) -> float:
        """Counted cost of ``update_approximations`` (item-independent)."""
        return n_classes * n_stats * self.approx_seconds_per_class_stat

    def seconds_for(
        self, kind: str, n_items: int, n_classes: int, n_stats: int
    ) -> float:
        """Dispatch for the :mod:`repro.util.workhooks` kinds."""
        if kind == "wts":
            return self.wts_seconds(n_items, n_classes, n_stats)
        if kind == "params":
            return self.params_seconds(n_items, n_classes, n_stats)
        if kind == "approx":
            return self.approx_seconds(n_classes, n_stats)
        raise ValueError(f"unknown work kind {kind!r}")

    def cycle_seconds(self, n_items: int, n_classes: int, n_stats: int) -> float:
        """Full counted cost of one base_cycle on one rank."""
        return (
            self.wts_seconds(n_items, n_classes, n_stats)
            + self.params_seconds(n_items, n_classes, n_stats)
            + self.approx_seconds(n_classes, n_stats)
        )

"""Re-exports from :mod:`repro.obs.registry`, kept only because
``perfbench/host.py`` (lines 170 and 375) imports these two names from
here.  Delete this module once those imports point at the registry."""

from ..obs.registry import EVENTS, kernel_stats

__all__ = ["EVENTS", "kernel_stats"]

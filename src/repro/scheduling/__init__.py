"""Schedulers: plain list scheduling and commutativity-aware CLS."""

from repro.scheduling.cls import cls_schedule
from repro.scheduling.list_scheduler import list_schedule
from repro.scheduling.matching import resolve_conflicts
from repro.scheduling.schedule import Schedule

__all__ = [
    "Schedule",
    "cls_schedule",
    "list_schedule",
    "resolve_conflicts",
]

"""Physical incremental operators and work accounting."""

from .work import WorkMeter

__all__ = ["WorkMeter"]

"""Point-to-point links with propagation delay.

A :class:`Link` delivers any object to a receiver callback after a fixed
propagation delay.  Serialisation time is modelled where bandwidth is
owned (the source's pacing and the switch's service loop), so the link
itself is a pure delay element — matching the paper's assumption that
propagation delay is negligible next to queueing delay (both are still
modelled; set ``delay=0`` to recover the paper's idealisation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .engine import Simulator

__all__ = ["Link"]


@dataclass
class Link:
    """A unidirectional delay element.

    Parameters
    ----------
    sim:
        The event engine.
    delay:
        One-way propagation delay in seconds.
    deliver:
        Callback invoked with the payload on arrival.
    """

    sim: Simulator
    delay: float
    deliver: Callable[[Any], None]

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError("propagation delay cannot be negative")

    def transmit(self, payload: Any) -> None:
        """Send ``payload``; ``deliver(payload)`` runs ``delay`` seconds
        from now, as one event with no intermediate hop."""
        self.sim.schedule(self.delay, self.deliver, payload)

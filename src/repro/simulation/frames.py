"""Frame types of the BCN data plane and control plane.

Three frame families circulate in a BCN-managed Ethernet (Section II.B):

* :class:`EthernetFrame` — data frames.  A frame from a source that is
  associated with a congestion point carries a **Rate Regulator Tag**
  (RRT) holding that congestion point's CPID, so the switch can match
  sampled frames against itself and emit *positive* feedback when the
  queue has drained below ``q0``.
* :class:`BCNMessage` — the backward congestion notification, following
  the 802.1Q-tag format of Fig. 2: destination/source addresses, an
  EtherType marking it as BCN, the **CPID** (congestion point
  identifier — at least the MAC of the switch interface) and the **FB**
  field carrying the measure ``sigma = (q0 - q) - w * dq``.  The paper's
  model additionally exposes the raw queue offset and delta, which we
  carry explicitly.
* :class:`PauseFrame` — IEEE 802.3x PAUSE, emitted when the queue
  exceeds the severe-congestion threshold ``q_sc``; it silences the
  upstream sender for ``duration`` seconds.

Sizes are in bits (Ethernet's 64-byte minimum frame applies to the
control messages).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

__all__ = ["EthernetFrame", "BCNMessage", "PauseFrame", "BCN_ETHERTYPE"]

#: EtherType value marking BCN messages (the draft used a 802.1Q-tagged
#: format; any reserved value serves the simulation).
BCN_ETHERTYPE = 0x8906

#: Minimum Ethernet frame size in bits (64 bytes).
MIN_FRAME_BITS = 64 * 8

_frame_ids = itertools.count()


@dataclass(slots=True)
class EthernetFrame:
    """A data frame travelling source -> core switch -> sink.

    Attributes
    ----------
    src, dst:
        Endpoint identifiers (source index / sink name).
    size_bits:
        Frame size in bits, headers included.
    flow_id:
        Flow the frame belongs to (one flow per source here).
    rrt_cpid:
        CPID carried in the Rate Regulator Tag, or None when the source
        is not associated with any congestion point.
    created_at:
        Simulation time at which the source emitted the frame.
    """

    src: int
    dst: str
    size_bits: int
    flow_id: int
    rrt_cpid: str | None = None
    created_at: float = 0.0
    uid: int = field(default_factory=_frame_ids.__next__)


@dataclass(frozen=True)
class BCNMessage:
    """Backward Congestion Notification message (Fig. 2 format).

    ``fb`` is the feedback measure ``sigma``; positive values instruct
    additive increase, negative values multiplicative decrease (eq. 2).
    """

    da: int  #: destination — the source address of the sampled frame
    sa: str  #: source — the switch address
    cpid: str  #: congestion point identifier
    fb: float  #: the FB field: sigma, possibly quantized to a few bits
    q_off: float  #: raw queue offset ``q0 - q`` at sampling time
    q_delta: float  #: queue variation over the sampling interval
    fb_raw: float = 0.0  #: unquantized sigma in bits (model-side view)
    sent_at: float = 0.0

    @property
    def positive(self) -> bool:
        """True for positive feedback (``sigma > 0``)."""
        return self.fb > 0

    @property
    def size_bits(self) -> int:
        return MIN_FRAME_BITS


@dataclass(frozen=True)
class PauseFrame:
    """IEEE 802.3x PAUSE frame.

    ``duration`` is the silence interval in seconds (the wire format
    quantises it in units of 512 bit-times; we keep seconds for clarity
    and convert in the switch).
    """

    sa: str
    duration: float
    sent_at: float = 0.0

    @property
    def size_bits(self) -> int:
        return MIN_FRAME_BITS

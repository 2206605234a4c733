"""Packet-level discrete-event substrate for BCN Ethernet.

An event-driven simulator (:mod:`.engine`) with BCN-aware core switches
(:mod:`.switch`), rate-regulated sources (:mod:`.source`), delay links
(:mod:`.link`), drop-tail queues (:mod:`.queueing`) and the dumbbell
orchestrator (:mod:`.network`).  Frame formats, including the Fig. 2 BCN
message, live in :mod:`.frames`.
"""

from .engine import Simulator
from .frames import BCN_ETHERTYPE, BCNMessage, EthernetFrame, PauseFrame
from .link import Link
from .network import PACKET_ENGINES, BCNNetworkSimulator, SimulationResult
from .queueing import DropTailQueue
from .source import RateRegulator, TrafficSource, expected_message_interval
from .switch import BatchedSwitchKernel, BatchedWindow, CoreSwitch, SwitchStats

__all__ = [
    "Simulator",
    "EthernetFrame",
    "BCNMessage",
    "PauseFrame",
    "BCN_ETHERTYPE",
    "Link",
    "DropTailQueue",
    "CoreSwitch",
    "SwitchStats",
    "BatchedSwitchKernel",
    "BatchedWindow",
    "RateRegulator",
    "TrafficSource",
    "expected_message_interval",
    "BCNNetworkSimulator",
    "SimulationResult",
    "PACKET_ENGINES",
]

from .multihop import MultiHopNetwork, MultiHopResult, PortConfig
from .tracing import FrameTracer, TraceEvent
from .wire import WIRE_LENGTH_BYTES, WireBCN, pack_bcn, unpack_bcn

__all__ += ["MultiHopNetwork", "MultiHopResult", "PortConfig",
            "pack_bcn", "unpack_bcn", "WireBCN", "WIRE_LENGTH_BYTES",
            "FrameTracer", "TraceEvent"]

"""Data-center topologies (networkx graphs) and routing helpers."""

from .graphs import dcell, dumbbell, fat_tree, hosts, monsoon, switches
from .routing import bottleneck_edge, ecmp_route, route_edges, shortest_route

__all__ = [
    "dumbbell",
    "fat_tree",
    "dcell",
    "monsoon",
    "hosts",
    "switches",
    "shortest_route",
    "ecmp_route",
    "route_edges",
    "bottleneck_edge",
]

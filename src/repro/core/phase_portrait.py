"""Phase-portrait construction: vector fields, nullclines, orbit grids.

The paper's figures are single trajectories; a full portrait — the
vector field with a family of orbits from a grid of starts — shows the
global structure at a glance (how every start funnels into the spiral
or onto the node asymptote, where the switching line bends the flow).
This module builds portraits as *data* (arrow grids and polyline
bundles) for the ASCII renderer, the CSV exporter, or any external
plotting environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..fluid.batch import switched_derivatives
from ..fluid.model import as_normalized
from .parameters import BCNParams, NormalizedParams
from .phase_plane import PhasePlaneAnalyzer

__all__ = ["VectorFieldGrid", "PhasePortrait", "vector_field_grid",
           "phase_portrait"]


@dataclass(frozen=True)
class VectorFieldGrid:
    """Sampled vector field: positions and (normalised) directions."""

    x: np.ndarray  #: shape (ny, nx)
    y: np.ndarray
    u: np.ndarray  #: dx/dt, normalised per-point
    v: np.ndarray  #: dy/dt, normalised per-point
    magnitude: np.ndarray  #: pre-normalisation speed

    @property
    def shape(self) -> tuple[int, int]:
        return self.x.shape


def vector_field_grid(
    params: NormalizedParams | BCNParams,
    *,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    nx: int = 24,
    ny: int = 18,
) -> VectorFieldGrid:
    """Sample the switched vector field over a rectangle.

    Directions are unit-normalised (the magnitudes are returned
    separately) so a quiver plot shows geometry rather than the huge
    dynamic range of speeds near/far from the switching line.  The
    whole ``ny x nx`` grid is evaluated in one batched call
    (:func:`repro.fluid.batch.switched_derivatives`).
    """
    p = as_normalized(params)
    xs = np.linspace(x_range[0], x_range[1], nx)
    ys = np.linspace(y_range[0], y_range[1], ny)
    gx, gy = np.meshgrid(xs, ys)
    derivs = switched_derivatives(
        p, np.stack([gx, gy], axis=-1), on_line="decrease"
    )
    u, v = derivs[..., 0], derivs[..., 1]
    magnitude = np.hypot(u, v)
    safe = np.where(magnitude > 0, magnitude, 1.0)
    return VectorFieldGrid(x=gx, y=gy, u=u / safe, v=v / safe,
                           magnitude=magnitude)


@dataclass
class PhasePortrait:
    """A family of composed orbits plus the field grid and landmarks."""

    params: NormalizedParams
    orbits: list[np.ndarray] = field(default_factory=list)  #: (n, 2) each
    grid: VectorFieldGrid | None = None

    @property
    def switching_slope(self) -> float:
        return -1.0 / self.params.k

    def bounding_box(self) -> tuple[float, float, float, float]:
        xs = np.concatenate([o[:, 0] for o in self.orbits])
        ys = np.concatenate([o[:, 1] for o in self.orbits])
        return float(xs.min()), float(xs.max()), float(ys.min()), float(ys.max())

    def to_ascii(self, *, width: int = 72, height: int = 24,
                 title: str | None = None) -> str:
        """Render the orbit bundle with the ASCII canvas."""
        from ..viz.ascii import AsciiCanvas

        x_lo, x_hi, y_lo, y_hi = self.bounding_box()
        pad_x = 0.05 * (x_hi - x_lo or 1.0)
        pad_y = 0.05 * (y_hi - y_lo or 1.0)
        canvas = AsciiCanvas(width, height,
                             x_range=(x_lo - pad_x, x_hi + pad_x),
                             y_range=(y_lo - pad_y, y_hi + pad_y))
        canvas.hline(0.0)
        canvas.vline(0.0)
        canvas.line(self.switching_slope, marker=":")
        for orbit, marker in zip(self.orbits, "*o+x#@%&"):
            canvas.plot(orbit[:, 0], orbit[:, 1], marker=marker)
        return canvas.render(title=title)

    def to_csv_columns(self) -> dict[str, np.ndarray]:
        """Flatten orbits into CSV-ready columns (nan-separated)."""
        cols: dict[str, np.ndarray] = {}
        for i, orbit in enumerate(self.orbits):
            cols[f"orbit{i}_x"] = orbit[:, 0]
            cols[f"orbit{i}_y"] = orbit[:, 1]
        return cols


def phase_portrait(
    params: NormalizedParams | BCNParams,
    *,
    starts: list[tuple[float, float]] | None = None,
    max_switches: int = 30,
    points_per_segment: int = 120,
    with_grid: bool = False,
) -> PhasePortrait:
    """Compose a family of orbits from a spread of initial states.

    ``starts`` defaults to seven points around the buffer strip: the
    canonical ``(-q0, 0)``, points on both axes and both regions.  Each
    orbit is the closed-form piecewise composition of
    :meth:`PhasePlaneAnalyzer.compose` (exact eigensolutions per
    region), sampled ``points_per_segment`` times per segment.  Large
    bundles, and the nonlinear or physical laws the closed forms cannot
    express, go through :func:`repro.fluid.batch.simulate_fluid_batch`.
    """
    p = as_normalized(params)
    if starts is None:
        q0, c = p.q0, p.capacity
        starts = [
            (-q0, 0.0),
            (-0.5 * q0, 0.1 * c / 10.0),
            (0.5 * q0, 0.0),
            (0.0, 0.05 * c),
            (0.0, -0.05 * c),
            (0.8 * q0, 0.02 * c),
            (-0.8 * q0, -0.02 * c),
        ]
    portrait = PhasePortrait(params=p)
    analyzer = PhasePlaneAnalyzer(p)
    for x0, y0 in starts:
        traj = analyzer.compose(x0, y0, max_switches=max_switches)
        samples = traj.sample(points_per_segment)
        portrait.orbits.append(samples[:, 1:3])
    if with_grid:
        x_lo, x_hi, y_lo, y_hi = portrait.bounding_box()
        portrait.grid = vector_field_grid(
            p, x_range=(x_lo, x_hi), y_range=(y_lo, y_hi))
    return portrait

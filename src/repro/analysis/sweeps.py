"""Parameter sweep harness.

Runs a callable over the Cartesian grid of parameter overrides applied
to a base :class:`~repro.core.parameters.BCNParams` (or any dataclass
with a ``with_``-style replace), collecting one record per point.
Used by the criterion-validation experiment (V1) and the ablation
benches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..core.parameters import BCNParams

__all__ = ["SweepResult", "sweep", "grid"]


def _format_cell(value: Any) -> str:
    """One CSV cell, following ``viz.series.write_csv`` conventions.

    Floats use the same ``.10g`` format as the series writer; anything
    else is stringified and RFC-4180-quoted when it contains a comma,
    quote or newline (bare ``str()`` joins would corrupt the row).
    """
    if isinstance(value, (float, np.floating)):
        text = format(float(value), ".10g")
    else:
        text = str(value)
    if any(ch in text for ch in (",", '"', "\n", "\r")):
        text = '"' + text.replace('"', '""') + '"'
    return text


@dataclass
class SweepResult:
    """Records from a parameter sweep, with small-table conveniences."""

    axes: dict[str, list[Any]]
    records: list[dict[str, Any]] = field(default_factory=list)

    def column(self, key: str) -> list[Any]:
        """Extract one column across all records."""
        return [r[key] for r in self.records]

    def where(self, **conditions: Any) -> list[dict[str, Any]]:
        """Records matching all given key/value conditions."""
        return [
            r
            for r in self.records
            if all(r.get(k) == v for k, v in conditions.items())
        ]

    def to_rows(self, keys: list[str]) -> list[list[Any]]:
        """Project records onto a key list, for tabular printing."""
        return [[r.get(k) for k in keys] for r in self.records]

    def to_csv(self, path: str | Path, keys: list[str] | None = None) -> Path:
        """Write the records to a CSV file (floats in ``.10g``, quoted cells)."""
        if not self.records:
            raise ValueError("no records to write")
        cols = keys if keys is not None else sorted(self.records[0])
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(",".join(_format_cell(c) for c in cols) + "\n")
            for record in self.records:
                fh.write(
                    ",".join(_format_cell(record.get(c, "")) for c in cols) + "\n"
                )
        return path


def grid(**axes: Iterable[Any]) -> list[dict[str, Any]]:
    """Cartesian product of named axes as a list of override dicts."""
    names = list(axes)
    combos = itertools.product(*(list(axes[n]) for n in names))
    return [dict(zip(names, values)) for values in combos]


def sweep(
    base: BCNParams,
    axes: Mapping[str, Iterable[Any]],
    evaluate: Callable[[BCNParams], Mapping[str, Any]],
    *,
    skip_invalid: bool = True,
) -> SweepResult:
    """Evaluate ``evaluate`` over the grid of overrides applied to ``base``.

    Each record contains the override values plus everything
    ``evaluate`` returns.  Parameter combinations that fail validation
    (e.g. ``q0 >= buffer_size``) are skipped when ``skip_invalid``.
    """
    axes_lists = {name: list(values) for name, values in axes.items()}
    result = SweepResult(axes=axes_lists)
    for overrides in grid(**axes_lists):
        try:
            params = base.with_(**overrides)
        except ValueError:
            if skip_invalid:
                continue
            raise
        record: dict[str, Any] = dict(overrides)
        record.update(evaluate(params))
        result.records.append(record)
    return result

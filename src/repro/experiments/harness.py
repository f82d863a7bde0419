"""Shared experiment-result model and table rendering.

Every experiment produces an :class:`ExperimentResult`: an ordered list
of rows (one per sweep point per algorithm) with named numeric columns,
plus the free-text notes recording paper-vs-measured observations.  The
text rendering is what EXPERIMENTS.md embeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

Number = Union[int, float]


@dataclass
class ExperimentResult:
    """A completed experiment: metadata + a rectangular result table.

    ``meta`` carries run provenance stamped by the experiment engine
    (:meth:`repro.experiments.registry.ExperimentSpec.run`): experiment
    name, effective ``repetitions``, ``seed``, ``jobs`` and
    ``wall_time_s``.  :meth:`render` surfaces only the deterministic
    subset (repetitions, seed) so rendered reports stay byte-identical
    across worker counts and machines; the full metadata — including
    wall time and jobs — travels through :meth:`to_dict`.
    """

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    #: ``meta`` keys that are identical for identical configurations and
    #: therefore safe to render (unlike wall time or worker count).
    DETERMINISTIC_META_KEYS = ("repetitions", "seed")

    def add_row(self, **values: object) -> None:
        """Append one row; keys must match ``columns``."""
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise ValueError(f"row missing columns {missing}")
        self.rows.append({c: values[c] for c in self.columns})

    def filtered(self, **criteria: object) -> List[Dict[str, object]]:
        """Rows matching all ``column=value`` criteria."""
        return [
            row
            for row in self.rows
            if all(row.get(k) == v for k, v in criteria.items())
        ]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    @staticmethod
    def _format_cell(value: object) -> str:
        if isinstance(value, float):
            if value == 0.0:
                return "0"
            if abs(value) >= 1000:
                return f"{value:.0f}"
            if abs(value) >= 1:
                return f"{value:.2f}"
            return f"{value:.4f}"
        return str(value)

    def to_table(self) -> str:
        """Render the rows as an aligned text table."""
        header = list(self.columns)
        body = [
            [self._format_cell(row[c]) for c in self.columns]
            for row in self.rows
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for r in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        return "\n".join(lines)

    def render(self) -> str:
        """Full report: title, table, notes and deterministic run info."""
        parts = [f"== {self.experiment_id}: {self.title} ==", self.to_table()]
        if self.notes:
            parts.append("")
            parts.extend(f"note: {n}" for n in self.notes)
        run_info = [
            f"{key}={self.meta[key]}"
            for key in self.DETERMINISTIC_META_KEYS
            if self.meta.get(key) is not None
        ]
        if run_info:
            parts.append(f"run: {' '.join(run_info)}")
        return "\n".join(parts)

    def print(self) -> None:  # pragma: no cover - console convenience
        """Print the rendered report."""
        print(self.render())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form for archiving experiment outputs."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "notes": list(self.notes),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output."""
        result = cls(
            experiment_id=str(data["experiment_id"]),
            title=str(data["title"]),
            columns=list(data["columns"]),  # type: ignore[arg-type]
            notes=list(data.get("notes", [])),  # type: ignore[arg-type]
            meta=dict(data.get("meta", {})),  # type: ignore[arg-type]
        )
        for row in data["rows"]:  # type: ignore[union-attr]
            result.add_row(**row)  # type: ignore[arg-type]
        return result

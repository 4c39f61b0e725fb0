"""Shared record type for sampled plot data."""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class CurveRecord:
    """One sampled point; consecutive records with the same curve_id in a
    stream form a polyline."""

    curve_id: int
    kind: str          # orbit | transverse | arrow | future_past
    transform: str     # direct | cayley_point | cayley1_point
    u: float
    v: float
    du: float
    dv: float
    color_grade: float
    pen_width_hint: float


FIELDS = tuple(f.name for f in fields(CurveRecord))

"""Shared record type for sampled plot data."""

from typing import NamedTuple


class CurveRecord(NamedTuple):
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


FIELDS = CurveRecord._fields

"""Minute arithmetic for the hours-of-service rules.

This is the only logic shared between the independent solving engines
(embedded search, oracle) and the feasibility checker: what counts as a
break, and how long pieces may be.
"""

from __future__ import annotations

from .instance import LegalParams


def rest_renews(minutes: int, legal: LegalParams) -> bool:
    """A rest block renews continuous steering when it reaches the break length."""
    return minutes >= legal.t_b


def chunk_count(duration: int, t_cs: int) -> int:
    """Minimum number of <= t_cs chunks a duration must be split into."""
    return -(-duration // t_cs)

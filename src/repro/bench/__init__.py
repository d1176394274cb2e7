"""Bench harness: experiment implementations, rendering, shape checks."""

from .common import mesh, ms, star, us
from .render import crossover_x, fmt, render_table, who_wins

__all__ = [
    "crossover_x", "fmt", "mesh", "ms", "render_table", "star", "us",
    "who_wins",
]

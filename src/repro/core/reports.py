"""Rendering: text tables, ASCII CDFs, and paper-vs-measured comparisons.

The benchmark harness uses these helpers to print, for every table and
figure in the paper, the measured rows next to the published ones.  Absolute
counts are expected to differ (the simulated world is built at a scale
factor); the *shape* — orderings, ratios, who wins — is what the comparisons
surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.records import slot_init


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """A fixed-width text table."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells:
        lines.append("  ".join(value.ljust(widths[i]) for i, value in enumerate(row)))
    return "\n".join(lines)


@slot_init
@dataclass(frozen=True, slots=True)
class Comparison:
    """One paper-vs-measured line."""

    name: str
    paper: float
    measured: float
    unit: str = ""

    @property
    def ratio(self) -> Optional[float]:
        """measured / paper, or None when the paper value is zero."""
        return self.measured / self.paper if self.paper else None


def render_comparisons(comparisons: Sequence[Comparison], title: str = "") -> str:
    """Side-by-side paper-vs-measured block."""
    rows = []
    for comparison in comparisons:
        ratio = comparison.ratio
        rows.append(
            (
                comparison.name,
                f"{comparison.paper:g}{comparison.unit}",
                f"{comparison.measured:g}{comparison.unit}",
                f"{ratio:.2f}x" if ratio is not None else "n/a",
            )
        )
    return render_table(("metric", "paper", "measured", "measured/paper"), rows, title)


# -- CDFs (Figure 5) -------------------------------------------------------------


def cdf_points(values: Sequence[float]) -> tuple[list[float], list[float]]:
    """Empirical CDF: sorted values and cumulative fractions."""
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return [], []
    ys = [(index + 1) / count for index in range(count)]
    return ordered, ys


def cdf_at(values: Sequence[float], threshold: float) -> float:
    """Fraction of values <= threshold (a point on the empirical CDF)."""
    if not values:
        return 0.0
    return sum(1 for value in values if value <= threshold) / len(values)


def render_cdf_ascii(
    series: dict[str, Sequence[float]],
    width: int = 72,
    height: int = 16,
    x_min: float = 0.1,
    x_max: float = 20_000.0,
    title: str = "",
) -> str:
    """ASCII rendition of Figure 5: per-entity delay CDFs, log-scale x axis.

    Negative delays (Bluecoat's pre-fetches) are clamped onto the left edge,
    which reproduces the paper's "CDF starts above zero" visual.
    """
    markers = "abcdefghijklmnop"
    grid = [[" "] * width for _ in range(height)]
    log_min, log_max = math.log10(x_min), math.log10(x_max)

    def column(value: float) -> int:
        clamped = min(max(value, x_min), x_max)
        fraction = (math.log10(clamped) - log_min) / (log_max - log_min)
        return min(width - 1, int(fraction * (width - 1)))

    legend = []
    for index, (name, values) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        legend.append(f"  {marker} = {name} (n={len(values)})")
        if not values:
            continue
        ordered = sorted(values)
        for col in range(width):
            # Invert the column to a threshold and evaluate the CDF there.
            fraction = col / (width - 1)
            threshold = 10 ** (log_min + fraction * (log_max - log_min))
            y = cdf_at(ordered, threshold)
            row = height - 1 - min(height - 1, int(y * (height - 1)))
            if grid[row][col] == " ":
                grid[row][col] = marker

    lines = []
    if title:
        lines.append(title)
    lines.append("CDF")
    for row_index, row in enumerate(grid):
        y_label = f"{1 - row_index / (height - 1):4.2f} |"
        lines.append(y_label + "".join(row))
    lines.append("     +" + "-" * width)
    lines.append(f"      {x_min:g}s ... delay (log scale) ... {x_max:g}s")
    lines.extend(legend)
    return "\n".join(lines)


# -- convenience: shaping assertions used by benches and tests -----------------------


def same_order(expected: Sequence[str], measured: Sequence[str]) -> bool:
    """Whether the items common to both sequences appear in the same order."""
    common = [item for item in measured if item in set(expected)]
    expected_filtered = [item for item in expected if item in set(measured)]
    return common == expected_filtered


def within_factor(paper: float, measured: float, factor: float) -> bool:
    """Whether measured is within a multiplicative band of the paper value."""
    if paper == 0:
        return measured == 0
    if measured == 0:
        return False
    ratio = measured / paper
    return 1.0 / factor <= ratio <= factor

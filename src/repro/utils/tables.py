"""Plain-text table rendering for benchmark reports.

The benchmark harness prints the same rows/series the paper's figures
and tables report; this module renders them as aligned ASCII tables so
``python -m repro fig9`` output is directly comparable with the paper.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = ["TextTable", "format_float", "format_si"]

_SI_PREFIXES = [(1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k")]


def format_float(value: float, digits: int = 3) -> str:
    """Render a float compactly: fixed-point for moderate magnitudes,
    scientific elsewhere.

    >>> format_float(1234.5678, 2)
    '1234.57'
    """
    if value != value:  # NaN
        return "nan"
    if value == 0:
        return "0"
    if abs(value) >= 1e6 or abs(value) < 10 ** (-digits):
        return f"{value:.{digits}e}"
    return f"{value:.{digits}f}"


def format_si(value: float, unit: str = "", digits: int = 2) -> str:
    """Render a value with an SI magnitude prefix.

    >>> format_si(19.5e12, 'FLOP/s')
    '19.50 TFLOP/s'
    """
    for scale, prefix in _SI_PREFIXES:
        if abs(value) >= scale:
            return f"{value / scale:.{digits}f} {prefix}{unit}"
    return f"{value:.{digits}f} {unit}".rstrip()


class TextTable:
    """Accumulate rows and render them with aligned columns.

    >>> t = TextTable(["a", "b"])
    >>> t.add_row([1, "x"])
    >>> print(t.render())  # doctest: +NORMALIZE_WHITESPACE
    a | b
    --+--
    1 | x
    """

    def __init__(self, headers: Sequence[str], title: str | None = None):
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: list[list[str]] = []

    def add_row(self, values: Iterable[object]) -> None:
        row = [v if isinstance(v, str) else format_float(v) if isinstance(v, float) else str(v) for v in values]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines: list[str] = []
        if self.title:
            lines.append(self.title)
            lines.append("=" * len(self.title))
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths, strict=True)))
        lines.append("-+-".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths, strict=True)))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience alias
        return self.render()

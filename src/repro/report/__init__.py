"""Text rendering of tables, series and rough plots for the benches."""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "tables": ("format_csv", "format_markdown", "format_table"),
    "series": ("Series", "ascii_plot"),
})

__all__ = ["format_table", "format_csv", "format_markdown", "Series", "ascii_plot"]

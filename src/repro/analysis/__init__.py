"""Regression and statistics helpers shared by the trend analyses."""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "regression": (
        "FitResult", "linear_fit", "loglog_fit", "semilog_fit",
        "theil_sen_fit",
    ),
    "stats": (
        "Summary", "bootstrap_ci", "geometric_mean", "spearman_rho",
        "summarize",
    ),
})

__all__ = [
    "FitResult",
    "linear_fit",
    "loglog_fit",
    "semilog_fit",
    "theil_sen_fit",
    "Summary",
    "summarize",
    "bootstrap_ci",
    "geometric_mean",
    "spearman_rho",
]

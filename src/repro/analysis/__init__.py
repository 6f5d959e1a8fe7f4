"""Statistical machinery of the evaluation section.

* :mod:`.stats` — geometric means (Tables 3/4), boxplot five-number
  summaries (Figures 2/3/6), speedup distributions;
* :mod:`.perfprofile` — Dolan–Moré performance profiles (Figure 5);
* :mod:`.classes` — the six-class taxonomy of §4.4.
"""

from .stats import boxplot_summary, geomean, speedup_quartiles
from .perfprofile import performance_profile, profile_at
from .classes import classify_matrix, CLASS_DESCRIPTIONS

__all__ = [
    "geomean",
    "boxplot_summary",
    "speedup_quartiles",
    "performance_profile",
    "profile_at",
    "classify_matrix",
    "CLASS_DESCRIPTIONS",
]

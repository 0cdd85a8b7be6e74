"""Index-based comparators: CH, CCH, PLL, Arc-Flags.

Built to make Figure 8's argument measurable: every one of these answers
queries fast but takes orders of magnitude longer to (re)construct than
answering a whole batch index-free — and the snapshot indexes go stale on
the first weight change (their queries raise
:class:`~repro.exceptions.StaleIndexError` rather than serving the old
metric).  :class:`CustomizableContractionHierarchy` is the counter-move:
a metric-independent contraction order plus a fast customization pass,
so a weight epoch re-prices shortcuts instead of rebuilding.
"""

from .arcflags import ArcFlags, grid_regions
from .cch import CustomizableContractionHierarchy
from .ch import ContractionHierarchy
from .pll import PrunedLandmarkLabeling

__all__ = [
    "ArcFlags",
    "ContractionHierarchy",
    "CustomizableContractionHierarchy",
    "PrunedLandmarkLabeling",
    "grid_regions",
]

"""Euler-angle pose estimation via coarse-to-fine bin classification.

The model classifies each angle into nested bin levels (198/66/18/6/2 bins by
default) over the fixed range [-99, +99] degrees, and decodes it as the
probability-weighted mean of the finest bins' centers (or left edges, under the
``edge`` convention).  Training combines a squared-error term on the decoded
angle with per-level cross-entropies.
This module imports nothing, so ``hybridpose.cli`` can pin BLAS threads before numpy loads.
"""

__version__ = "0.1.0"

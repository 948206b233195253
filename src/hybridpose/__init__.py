"""Euler-angle pose estimation via coarse-to-fine bin classification.

The model classifies each angle into nested bin levels (198/66/18/6/2 bins
over [-99, +99] degrees by default) and decodes a continuous angle as the
probability-weighted mean of the finest bin centers.  Training combines a
squared-error term on the decoded angle with per-level cross-entropies.
"""

from .angles import (
    ANGLE_NAMES,
    MaeReport,
    PoseAngles,
    check_rotation_matrix,
    euler_to_rotation,
    mae,
    rotation_to_euler,
)
from .binning import (
    CANONICAL_BIN_COUNTS,
    BinHierarchy,
    BinScheme,
    bin_center,
    coarsen,
    encode,
    encode_all,
    expect_decode,
    make_hierarchy,
)
from .data import (
    ANNOTATION_HEADER,
    PREDICTIONS_HEADER,
    AnnotationRecord,
    ParseError,
    format_annotation_csv,
    format_biwi_pose,
    format_predictions_csv,
    parse_annotation_csv,
    parse_biwi_pose,
)
from .loss import (
    DEFAULT_WEIGHTS,
    FINE_ONLY_WEIGHTS,
    LossBreakdown,
    LossWeights,
    cross_entropy,
    hybrid_loss,
    hybrid_loss_grad,
    softmax,
)
from .synth import (
    DEFAULT_RIG,
    Dataset,
    Rig,
    SynthConfig,
    load_dataset,
    make_dataset,
    render_features,
    sample_pose,
)
from .tinynet import (
    AdamState,
    HeadOutputs,
    LossStats,
    NetConfig,
    TinyNet,
    TrainReport,
    adam_update,
    init_net,
    load_checkpoint,
    train,
)

__version__ = "0.1.0"

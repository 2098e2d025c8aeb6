"""panfuse: pansharpening fusion, evaluation, and differentiable losses."""

from .errors import (
    DegenerateInputError,
    HeaderError,
    MagicError,
    MissingFileError,
    NonFiniteDataError,
    PanfuseError,
    PayloadSizeError,
    RasterIOError,
    ShapeMismatchError,
    UsageError,
)
from .features import (
    IDENTITY,
    ConvLayer,
    ConvStackSpec,
    extract_features,
    load_conv_stack,
    save_conv_stack,
)
from .fusion import (
    FusionInput,
    fuse_brovey,
    fuse_gihs,
    fuse_gs,
    fuse_hpf,
    fuse_pca,
    mmse_band_weights,
    pca_basis,
)
from .losses import (
    GramMatrix,
    LossSpec,
    combined_loss,
    discriminator_loss,
    finite_difference_gradient,
    generator_loss,
    gm_perceptual_loss,
    gm_reconstruction_loss,
    gradient_check,
    gram_matrix,
    loss_gradient,
    perceptual_loss,
    pixel_loss,
    sam_loss,
    total_sam_loss,
)
from .metrics import (
    MetricReport,
    build_report,
    metric_ergas,
    metric_q2n,
    metric_q4,
    metric_qnr,
    metric_sam,
    metric_ssim,
    metric_uiqi,
    reports_to_csv,
    reports_to_json,
)
from .raster import (
    Patch,
    PatchSet,
    Raster,
    pan_from_weights,
    patchify,
    read_raster,
    synth_scene,
    write_raster,
)
from .resample import (
    downsample_antialias,
    downsample_antialias_adjoint,
    histogram_match,
    upsample,
    wald_degrade,
)

__version__ = "0.1.0"

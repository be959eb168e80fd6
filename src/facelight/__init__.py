"""facelight: screen-to-face illumination simulation and content inference.

The package models how on-screen content lights up a human face, renders
synthetic face images, analyzes blue/red reflection asymmetries, and runs a
two-tier classifier with temporal label correction to recover which
application was on the screen.
"""

from .errors import DomainError, GeometryError
from .labels import UNKNOWN, LabelLayout, accuracy, split_label, unify_label
from .optics import (
    EmitterUnit,
    FacePoint,
    OpticsConfig,
    reflected_intensity,
    reflected_intensity_planar,
)
from .scene import (
    FaceModel,
    Scene,
    ScreenModel,
    WeightCurve,
    render_face,
    screen_from_image,
    simulate_weight_curves,
)
from .analysis import (
    MdcResult,
    ks_pvalue,
    ks_statistic,
    mdc_search,
)
from .preprocess import preprocess, resize, upscale2x, znorm
from .features import FeatureParams, cbam_forward, extract_features, pooled_features, resblock_forward
from .classifier import (
    MlpHead,
    TwoTierModel,
    adam_update,
    load_model,
    save_model,
    softmax,
    train_two_tier,
)
from .hlc import HlcParams, LabelSequence, correct_labels, sweep_params

__version__ = "0.1.0"

"""Time series forecasting with decomposed patch tokens and semantic prefix
prompts over a frozen miniature transformer."""

from .autodiff import Tape, Tensor, backward, grad_check
from .backbone import Backbone, BackboneConfig, TrainabilityPolicy
from .metrics import MetricReport, evaluate_model
from .model import DecompositionConfig, ForecastModel, ModelConfig
from .preprocess import (DecompositionResult, PatchSpec, RevInState, decompose,
                         patch, patch_count, revin_denormalize, revin_normalize)
from .prompt import (AnchorBank, EmbeddingMatrix, PromptSelection,
                     alignment_term, clustered_vocabulary, derive_anchors,
                     retrieve_topk, score_all)
from .series import (SeriesFrame, SplitSpec, Standardizer, Window,
                     WindowSequence, WindowSpec, chronological_split,
                     few_shot_truncate, load_csv, windows)
from .training import (TrainConfig, TrainReport, load_checkpoint,
                       save_checkpoint, train)

__version__ = "0.1.0"

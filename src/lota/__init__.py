"""Sparse task-vector fine-tuning, storage, and merging toolkit.

Supported: Python 3.11 with numpy 2.4. Outputs are deterministic, but the
golden digests in `tests/golden.json` hold for numpy 2.4.6 only: another
numpy release may round a float32 reduction differently.
"""

from .adapter import (
    AdapterRecord,
    CompressionReport,
    SparseAdapter,
    apply_adapter,
    compression_report,
    decode,
    encode,
    load_adapter,
    save_adapter,
)
from .errors import (
    AlignmentError,
    CapacityError,
    ConfigError,
    DigestMismatchError,
    DivergenceError,
    FormatError,
    HarnessError,
    LotaError,
    NonFiniteError,
)
from .merging import (
    GridSearchResult,
    merge_grid_search,
    merge_lota,
    ties_merge,
)
from .models import Dataset, ToyModel, concat_datasets
from .params import (
    MapDigest,
    ParameterMap,
    digest,
    load_checkpoint,
    save_checkpoint,
    zeros_like,
)
from .sparsity import (
    SparsityMask,
    TaskVector,
    all_false_mask,
    apply_mask,
    compute_task_vector,
    load_mask,
    mask_complement,
    mask_union,
    random_mask,
    save_mask,
    sparsify,
)
from .training import (
    LotaResult,
    RunRecord,
    TrainConfig,
    iterative_lota,
    lota,
    lotto,
    mixed_data_fft,
    train,
)

__version__ = "0.1.0"

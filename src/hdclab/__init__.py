"""hdclab: binary hyperdimensional computing with a fault-injection lab.

Bit-packed 10,000-dimensional binary vectors, the multiply-add-permute
algebra over them, an n-gram text encoder, Hamming-distance associative
memory, a 21-language identification pipeline with a classical histogram
baseline, and behavioral models of stuck-at memory faults and bit flips.
"""

from .algebra import (
    Accumulator,
    Hypervector,
    RandomSource,
    bind,
    bundle,
    complement,
    hamming,
    inverse_permute,
    normalized_hamming,
    pack_bits,
    permute,
    random_hv,
    unpack_bits,
)
from .assocmem import AssociativeMemory, ClassificationResult, NotTrainedError
from .baseline import BaselineClassifier, baseline_evaluate, baseline_train
from .corpus import Corpus, ingest, write_corpus
from .encoder import (
    DEFAULT_ALPHABET,
    EncoderConfig,
    RecordField,
    TextEncoder,
    decode_field,
    encode_ngram,
    encode_record,
    normalize_text,
)
from .errors import ConfigurationError, DataError, TextTooShortError
from .faultlab import (
    FaultMask,
    SweepResult,
    apply_mask,
    fault_sweep,
    flip_noise,
    make_mask,
)
from .itemmem import ItemMemory, build_item_memory
from .model_io import load_model, save_model
from .pipeline import TrainedModel, evaluate, train_pipeline
from .synth import MarkovLanguage, synth_corpus

__version__ = "0.1.0"

__all__ = [
    "Accumulator",
    "AssociativeMemory",
    "BaselineClassifier",
    "ClassificationResult",
    "ConfigurationError",
    "Corpus",
    "DEFAULT_ALPHABET",
    "DataError",
    "EncoderConfig",
    "FaultMask",
    "Hypervector",
    "ItemMemory",
    "MarkovLanguage",
    "NotTrainedError",
    "RandomSource",
    "RecordField",
    "SweepResult",
    "TextEncoder",
    "TextTooShortError",
    "TrainedModel",
    "apply_mask",
    "baseline_evaluate",
    "baseline_train",
    "bind",
    "build_item_memory",
    "bundle",
    "complement",
    "decode_field",
    "encode_ngram",
    "encode_record",
    "evaluate",
    "fault_sweep",
    "flip_noise",
    "hamming",
    "ingest",
    "inverse_permute",
    "load_model",
    "make_mask",
    "normalize_text",
    "normalized_hamming",
    "pack_bits",
    "permute",
    "random_hv",
    "save_model",
    "synth_corpus",
    "train_pipeline",
    "unpack_bits",
    "write_corpus",
]

import numpy as np
import pytest

from hdclab import EncoderConfig, pack_bits, synth_corpus, train_pipeline
from hdclab.pipeline import encode_test_set

SYNTH_SEED = 0
SYNTH_LANGS = 21


def hv_from_string(s):
    """Bit string to Hypervector; string index i is component i."""
    from hdclab import Hypervector

    bits = np.array([int(c) for c in s], dtype=np.uint8)
    return Hypervector(len(s), pack_bits(bits))


def hv_to_string(hv):
    return "".join(str(b) for b in hv.to_bits())


@pytest.fixture(scope="session")
def synth():
    return synth_corpus(
        num_languages=SYNTH_LANGS, train_chars=20000, test_sentences=30,
        sentence_chars=100, seed=SYNTH_SEED,
    )


@pytest.fixture(scope="session")
def trained(synth):
    return train_pipeline(synth, EncoderConfig(dim=10000))


@pytest.fixture(scope="session")
def queries(trained, synth):
    """Encoded test sentences: (list of Hypervector, int64 true label indices)."""
    hvs, idx, _ = encode_test_set(trained, synth)
    return hvs, idx

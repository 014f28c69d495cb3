"""Independent reference implementations used as oracles.

Everything here works on plain Python lists of ints, shares no code
with the package kernels, and is written for obviousness over speed.
Oracles that sum bits convert them to Python ints on entry, so numpy
integer items (``list(hv.to_bits())``) cannot wrap.
"""

import re
import string
import struct
from bisect import bisect_right


_REF_FOLD = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def ref_normalize(raw):
    """Fold A-Z to a-z, then turn every run of characters outside a-z into
    one space and strip the ends: the regex form of text normalization."""
    return re.sub(r"[^a-z]+", " ", raw.translate(_REF_FOLD)).strip(" ")


def ref_xor(a, b):
    return [x ^ y for x, y in zip(a, b)]


def ref_rotate_right(bits, shifts):
    d = len(bits)
    s = shifts % d
    return [bits[(i - s) % d] for i in range(d)]


def ref_rotate_left(bits, shifts):
    d = len(bits)
    s = shifts % d
    return [bits[(i + s) % d] for i in range(d)]


def ref_hamming(a, b):
    return sum(1 for x, y in zip(a, b) if x != y)


def _tie_at(tie_value, i):
    """The bit an exact tie at position i takes: tie_value itself, or its
    entry i when it is a per-position sequence of bits."""
    return tie_value if isinstance(tie_value, int) else int(tie_value[i])


def ref_majority(vectors, tie_value=1):
    """Componentwise majority of a list of bit lists; an exact tie at
    position i -> tie_value, or tie_value[i] for a per-position tie vector."""
    vectors = [[int(b) for b in v] for v in vectors]
    k = len(vectors)
    out = []
    for i in range(len(vectors[0])):
        c = sum(v[i] for v in vectors)
        if 2 * c > k:
            out.append(1)
        elif 2 * c < k:
            out.append(0)
        else:
            out.append(_tie_at(tie_value, i))
    return out


def ref_ngram(window, seed_bits, n):
    """Rotate-and-bind of one symbol window given per-symbol seed bit lists."""
    seed_bits = {sym: [int(b) for b in bits] for sym, bits in seed_bits.items()}
    d = len(next(iter(seed_bits.values())))
    out = [0] * d
    for j, sym in enumerate(window):
        out = ref_xor(out, ref_rotate_right(seed_bits[sym], n - 1 - j))
    return out


def ref_encode_text(text, n, seed_bits, tie_value=1):
    """Histogram-style text encoding: count every distinct n-gram, then take
    the weighted componentwise majority. Deliberately a different strategy
    from the package's stream and contraction kernels."""
    return ref_encode_texts([text], n, seed_bits, tie_value)


def ref_encode_texts(texts, n, seed_bits, tie_value=1):
    """ref_encode_text over several texts: the n-gram counts of each text are
    summed, no window reaching across two texts, and thresholded once. As in
    ref_majority, tie_value is one bit or a per-position tie vector."""
    seed_bits = {sym: [int(b) for b in bits] for sym, bits in seed_bits.items()}
    counts = {}
    for text in texts:
        for i in range(len(text) - n + 1):
            window = text[i : i + n]
            counts[window] = counts.get(window, 0) + 1
    k = sum(counts.values())
    d = len(next(iter(seed_bits.values())))
    acc = [0] * d
    for window, mult in counts.items():
        v = ref_ngram(window, seed_bits, n)
        for i in range(d):
            acc[i] += mult * v[i]
    out = []
    for i, c in enumerate(acc):
        if 2 * c > k:
            out.append(1)
        elif 2 * c < k:
            out.append(0)
        else:
            out.append(_tie_at(tie_value, i))
    return out


def ref_pairwise(dmat, true_idx):
    """Per-pair two-class accuracies, pairs (i, j) with i < j in row-major order.

    dmat is a list of per-query distance lists and true_idx a list of label
    indices. A pair counts only the queries whose true label is i or j, each
    decided by the closer of the two (ties to i); pairs with no such query are
    left out.
    """
    n_labels = len(dmat[0])
    accs = []
    for i in range(n_labels):
        for j in range(i + 1, n_labels):
            total = correct = 0
            for row, t in zip(dmat, true_idx):
                if t not in (i, j):
                    continue
                total += 1
                correct += (i if row[i] <= row[j] else j) == t
            if total:
                accs.append(correct / total)
    return accs


def ref_markov_walk(cum_start, cum_trans, uniforms):
    """One Markov chain run by inverse-transform sampling: the first uniform
    picks the start symbol, each later one a transition; a uniform at or past
    the last cumulative entry takes the last symbol."""
    cum_start = [float(x) for x in cum_start]
    cum_trans = [[float(x) for x in row] for row in cum_trans]
    last = len(cum_start) - 1
    s = min(bisect_right(cum_start, float(uniforms[0])), last)
    out = [s]
    for u in uniforms[1:]:
        s = min(bisect_right(cum_trans[s], float(u)), last)
        out.append(s)
    return out


def ref_model_v1(dim, n, item_seed, deterministic_ties, alphabet, symbol_rows, labels,
                 class_rows):
    """Model file format v1, written field by field with ``struct``.

    The magic "HDCM", version 1, dim and n as u32; the alphabet as a u32
    byte length plus UTF-8; the item seed and the tie seed (the item seed
    plus one, mod 2**64) as u64; the ties flag as u8; the symbol count as
    u32 and one row of u64 words per symbol; the label count as u32 and
    each label as a u32 byte length plus UTF-8; one row of u64 words per
    label. Rows are lists of ints; every field is little-endian.
    """
    def text(value):
        raw = value.encode("utf-8")
        return struct.pack("<I", len(raw)) + raw

    def words(rows):
        return b"".join(struct.pack("<Q", int(w)) for row in rows for w in row)

    return b"".join([
        b"HDCM", struct.pack("<III", 1, dim, n), text(alphabet),
        struct.pack("<QQB", item_seed, (item_seed + 1) % 2**64, bool(deterministic_ties)),
        struct.pack("<I", len(symbol_rows)), words(symbol_rows),
        struct.pack("<I", len(labels)), b"".join(text(label) for label in labels),
        words(class_rows),
    ])


def ref_model_v1_of(model):
    """``ref_model_v1`` of a trained model: its config, its encoder's symbol
    vectors in alphabet order, and its labels and prototype rows."""
    cfg = model.config
    return ref_model_v1(cfg.dim, cfg.n, cfg.item_seed, cfg.deterministic_ties,
                        "".join(model.encoder.item_memory.symbols),
                        model.encoder.item_memory.words_matrix().tolist(),
                        [str(label) for label in model.labels], model.memory.rows().tolist())

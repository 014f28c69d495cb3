"""Independent reference implementations used as oracles.

Everything here works on plain Python lists of ints, shares no code
with the package kernels, and is written for obviousness over speed.
Oracles that sum bits convert them to Python ints on entry, so numpy
integer items (``list(hv.to_bits())``) cannot wrap.
"""

from bisect import bisect_right


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


def ref_majority(vectors, tie_value=1):
    """Componentwise majority of a list of bit lists; exact ties -> tie_value."""
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
            out.append(tie_value)
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
    seed_bits = {sym: [int(b) for b in bits] for sym, bits in seed_bits.items()}
    counts = {}
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
    for c in acc:
        if 2 * c > k:
            out.append(1)
        elif 2 * c < k:
            out.append(0)
        else:
            out.append(tie_value)
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

"""Naive reference implementations used as independent test oracles.

Everything here recomputes statistics by direct window scans over the raw
symbol array (numpy sliding windows), deliberately sharing no code with the
indexed fast paths.
"""

import numpy as np


def scan_ends(data, word, lo, hi):
    """End positions j in [lo, hi] where word == data[j-k+1 .. j]."""
    data = np.asarray(data)
    k = len(word)
    lo = max(lo, k - 1)
    hi = min(hi, len(data) - 1)
    if lo > hi:
        return []
    if k == 0:
        return list(range(lo, hi + 1))
    win = np.lib.stride_tricks.sliding_window_view(data, k)
    ends = np.nonzero(np.all(win == np.asarray(word), axis=1))[0] + (k - 1)
    return [int(j) for j in ends if lo <= j <= hi]


def count_context(data, word):
    n = len(data) - 1
    if len(word) == 0:
        return n
    return len(scan_ends(data, word, len(word) - 1, n - 1))


def count_transition(data, word, x):
    data = np.asarray(data)
    n = len(data) - 1
    if len(word) == 0:
        return int(np.sum(data[1 : n + 1] == x))
    ends = scan_ends(data, word, len(word) - 1, n - 1)
    return sum(1 for j in ends if data[j + 1] == x)


def cond_prob(data, word, x):
    c = count_context(data, word)
    return count_transition(data, word, x) / c


def l_count(data, word):
    n = len(data) - 1
    return len(scan_ends(data, word, len(word) - 1, n))


def is_frequent(data, word, gamma):
    n = len(data) - 1
    return l_count(data, word) > n ** (1.0 - gamma)


def frequent_extensions(data, word, i, gamma):
    data = np.asarray(data)
    n = len(data) - 1
    k = len(word)
    thr = n ** (1.0 - gamma)
    seen = set()
    for j in scan_ends(data, word, k + i - 1, n - 1):
        z = tuple(int(s) for s in data[j - k - i + 1 : j - k + 1])
        x = int(data[j + 1])
        seen.add((z, x))
    out = set()
    for z, x in seen:
        full = list(z) + list(word) + [x]
        if l_count(data, full) > thr:
            out.add((z, x))
    return out


def discrepancy(data, word, gamma):
    """Largest conditional gap over frequent extensions, scanned directly."""
    data = np.asarray(data)
    n = len(data) - 1
    k = len(word)
    best = 0.0
    for i in range(1, n + 1):
        if k + i + 1 > n + 1:
            break
        exts = frequent_extensions(data, word, i, gamma)
        if not exts:
            break
        for z, x in exts:
            zw = list(z) + list(word)
            d = abs(cond_prob(data, word, x) - cond_prob(data, zw, x))
            best = max(best, d)
    return best


def chi(data, gamma, beta):
    """Shortest suffix passing the test, by direct scanning."""
    data = np.asarray(data)
    n = len(data) - 1
    thr = n ** (-beta) if n > 0 else np.inf
    for k in range(0, n):
        w = list(data[len(data) - k :]) if k else []
        if discrepancy(data, w, gamma) <= thr:
            return k
    return n


def recurrences_before(data, end, k, count):
    """Offsets t = 1, 2, ... (at most ``count``) at which the length-k block
    ending at ``end`` recurs ending at end - t, scanned one step at a time;
    the empty block recurs everywhere, down to the block ending at -1."""
    out = []
    t = 1
    while len(out) < count and end - t - k + 1 >= 0:
        if all(data[end - t - k + 1 + s] == data[end - k + 1 + s] for s in range(k)):
            out.append(t)
        t += 1
    return out


def recurrences_after(data, end, k, count):
    """Offsets t = 1, 2, ... (at most ``count``) at which the block recurs
    ending at end + t, within the data."""
    out = []
    t = 1
    n = len(data) - 1
    while len(out) < count and end + t <= n:
        if all(data[end + t - k + 1 + s] == data[end - k + 1 + s] for s in range(k)):
            out.append(t)
        t += 1
    return out


def reconstruct(data, anchor, horizon):
    """Recurrence times and symbols of the reconstruction at ``anchor`` from
    data[0 .. horizon]: level m is the first forward recurrence of the
    length-m block ending where level m - 1 recurred."""
    data = np.asarray(data)[: horizon + 1]
    times, symbols = [0], [int(data[anchor])]
    while True:
        m = len(times)
        offs = recurrences_after(data, anchor + times[-1], m, 1)
        if not offs:
            return times, symbols
        times.append(times[-1] + offs[0])
        symbols.append(int(data[anchor + times[-1] - m]))

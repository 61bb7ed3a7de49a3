"""numpy's spawned Philox multinomial streams, bit for bit, without numpy.

`spawned_multinomials(seed, n)` gives the `multinomial` of
`Generator(Philox(child))` for each child of `SeedSequence(seed).spawn(n)`:
O'Neill's seed_seq mixing, Philox4x64-10 (Salmon et al., SC'11), and numpy's
binomial, inversion for small means and otherwise BTPE (Kachitvichyanukul &
Schmeiser, CACM 31(2), 1988) in numpy's step order.
"""

from __future__ import annotations

import functools
import itertools
import math

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1


def _words(n: int) -> list:
    """`n` (>= 0) as little-endian 32-bit words, as SeedSequence reads an int."""
    return [n >> s & _M32 for s in range(0, max(n.bit_length(), 1), 32)]


def _hash(value, h: int, mult: int = 0x931E8875) -> tuple:
    """SeedSequence's hashmix (generate_state's with its `mult`): (word, next h)."""
    value = value ^ h  # not ^=, which would overwrite a caller's uint64 array
    h = h * mult & _M32
    value = value * h & _M32
    return value ^ value >> 16, h


def _mix(x, y):
    x = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return x ^ x >> 16


def _seed_pool(seed: int) -> tuple:
    """SeedSequence(seed)'s pool and hash constant after the seed's words, which every
    spawned child shares: its spawn key is mixed in after them."""
    entropy = _words(seed)
    entropy += [0] * (4 - len(entropy))  # padded to the pool size before a spawn key
    pool, h = [], 0x43B0D7E5
    for w in entropy[:4]:
        w, h = _hash(w, h)
        pool.append(w)
    for src, dst in itertools.permutations(range(4), 2):
        w, h = _hash(pool[src], h)
        pool[dst] = _mix(pool[dst], w)
    for extra in entropy[4:]:
        for dst in range(4):
            w, h = _hash(extra, h)
            pool[dst] = _mix(pool[dst], w)
    return pool, h


def _child_key(pool: list, h: int, child) -> tuple:
    """Spawn key (child,)'s Philox key, generate_state(2, uint64), from `_seed_pool`'s pool
    and h: for an int child < 2**32 (one word), or elementwise for a uint64 array of them."""
    out, h_out = [], 0x8B51F9DD
    for p in pool:  # with one spawn word, a pool word is final once it is mixed in
        w, h = _hash(child, h)
        w, h_out = _hash(_mix(p, w), h_out, 0x58F38DED)
        out.append(w)
    return out[0] | out[1] << 32, out[2] | out[3] << 32


def _doubles(k0: int, k1: int):
    """Philox4x64-10 words as doubles (u64 >> 11) 2**-53.  The counter is incremented
    before each block; its upper three words stay 0 for the first 2**64 - 1 blocks."""
    # round i's key: bumped i times by the Weyl constants
    keys = [((k0 + i * 0x9E3779B97F4A7C15) & _M64, (k1 + i * 0xBB67AE8584CAA73B) & _M64)
            for i in range(10)]
    for block in range(1, 1 << 64):
        c0, c1, c2, c3 = block, 0, 0, 0
        for a, b in keys:
            m0, m1 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
            c0, c1, c2, c3 = m1 >> 64 ^ c1 ^ a, m1 & _M64, m0 >> 64 ^ c3 ^ b, m0 & _M64
        for c in (c0, c1, c2, c3):
            yield (c >> 11) * 2.0**-53


def _inversion(rand, n: int, p: float) -> int:
    q = 1.0 - p
    qn = math.exp(n * math.log(q))
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    x, px, left = 0, qn, rand()
    while left > px:
        x += 1
        if x > bound:
            x, px, left = 0, qn, rand()
        else:
            left -= px
            px = (n - x + 1) * p * px / (x * q)
    return x


def _stirling(x: float) -> float:
    x2 = x * x
    return (13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2) / x / 166320.


def _btpe(rand, n: int, p: float) -> int:
    """BTPE for p <= 1/2, so numpy's reflection inside it is never taken."""
    r, q = p, 1.0 - p
    fm = n * r + r
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl, xr = xm - p1, xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    nrq = n * r * q
    while True:  # each `continue` is numpy's "goto Step10"
        u, v = rand() * p4, rand()
        if u <= p1:
            return math.floor(xm - p1 * v + u)
        if u <= p2:
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            if v > 1.0:
                continue
            y = math.floor(x)
        elif u <= p3:
            if v == 0.0 or (y := math.floor(xl + math.log(v) / laml)) < 0:
                continue
            v = v * (u - p2) * laml
        else:
            if v == 0.0 or (y := math.floor(xr - math.log(v) / lamr)) > n:
                continue
            v = v * (u - p3) * lamr
        k = abs(y - m)
        if not (k > 20 and k < nrq / 2.0 - 1):
            s = r / q
            a, f = s * (n + 1), 1.0
            for i in range(m + 1, y + 1):
                f *= a / i - s
            for i in range(y + 1, m + 1):
                f /= a / i - s
            if v > f:
                continue
            return y
        rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
        t = -k * k / (2 * nrq)
        big_a = math.log(v) if v > 0.0 else -math.inf
        if big_a < t - rho:
            return y
        if big_a > t + rho:
            continue
        x1, f1, z, w = float(y + 1), float(m + 1), float(n + 1 - m), float(n - y + 1)
        if big_a > (xm * math.log(f1 / x1) + (n - m + 0.5) * math.log(z / w)
                    + (y - m) * math.log(w * r / (x1 * q))
                    + _stirling(f1) + _stirling(z) + _stirling(x1) + _stirling(w)):
            continue
        return y


def _binomial(rand, n: int, p: float) -> int:
    q = min(p, 1.0 - p)  # drawn for p > 1/2 as n minus a draw at 1 - p
    x = _inversion(rand, n, q) if q * n <= 30.0 else _btpe(rand, n, q)
    return x if p <= 0.5 else n - x


def _multinomial(rand, n: int, pvals) -> list:
    """Sequential binomials on p_j / remaining p, stopping once no trials are left."""
    out = [0] * len(pvals)
    remaining = 1.0
    for j, p in enumerate(pvals[:-1]):
        out[j] = x = _binomial(rand, n, p / remaining)
        n -= x
        if n <= 0:
            return out
        remaining -= p
    out[-1] = n
    return out


def spawned_multinomials(seed: int, children: int):
    """Per child, `multinomial(n, pvals)` as a list of ints."""
    pool, h = _seed_pool(seed)
    for child in range(children):
        yield functools.partial(_multinomial, _doubles(*_child_key(pool, h, child)).__next__)

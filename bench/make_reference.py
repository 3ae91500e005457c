"""Write the exact reference solutions that the design_sweep workload checks.

For every move sequence of 2-12 players, and for the long sequences the
float solver is known to get wrong, this script solves the normalised game
(unit prize) independently of the library:

* the ladder f_T = x, f_{t-1} = f_t - n_t f_t' x (1 - x) is built with exact
  integers;
* in u = 1 - x, the smallest positive root of g(u) = f_0(1 - u) (the largest
  root X of f_0) is isolated with a Sturm sequence over exact fractions, then
  bisected at 120 significant digits;
* stage investments come from the identity x_t = f_t'(X) X (1 - X), which
  needs no subtraction of nearly equal numbers.

The output holds each value rounded to the nearest double. Run it with

    python3 bench/make_reference.py

which rewrites bench/reference.json.gz (about a minute on one core).
"""

from __future__ import annotations

import gzip
import json
import os
import sys
from fractions import Fraction
from math import comb

import mpmath

DIGITS = 120
MAX_PLAYERS = 12
LONG_SEQUENCES = ((1,) * 16, (1,) * 20, (1,) * 25, (5,) * 20, (2, 1) * 15)
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json.gz")


def compositions(n: int):
    """All ordered ways to write n as a sum of positive parts."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def sweep_sequences() -> list[tuple[int, ...]]:
    return [c for n in range(2, MAX_PLAYERS + 1) for c in compositions(n)]


def ladder(stages) -> list[list[int]]:
    """[f_0, ..., f_T] as ascending integer coefficient lists."""
    polys = [[0, 1]]
    for count in reversed(stages):
        f = polys[-1]
        d = [i * c for i, c in enumerate(f)][1:] or [0]
        step = [0] * (len(d) + 2)
        for i, c in enumerate(d):  # d * (x - x^2)
            step[i + 1] += c
            step[i + 2] -= c
        nxt = [0] * max(len(f), len(step))
        for i, c in enumerate(f):
            nxt[i] += c
        for i, c in enumerate(step):
            nxt[i] -= count * c
        while len(nxt) > 1 and nxt[-1] == 0:
            nxt.pop()
        polys.append(nxt)
    polys.reverse()
    return polys


def shift_to_deficit(f: list[int]) -> list[int]:
    """Coefficients of g(u) = f(1 - u)."""
    g = [0] * len(f)
    for k, c in enumerate(f):
        for j in range(k + 1):
            g[j] += c * comb(k, j) * (-1) ** j
    while len(g) > 1 and g[-1] == 0:
        g.pop()
    return g


def _trim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while len(a) >= len(b) and any(a):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[i + shift] -= q * c
        a.pop()
    return _trim(a or [Fraction(0)])


def sturm_chain(g: list[int]) -> list[list[mpmath.mpf]]:
    p0 = [Fraction(c) for c in g]
    p1 = _trim([Fraction(i * c) for i, c in enumerate(g)][1:])
    chain = [p0, p1]
    while len(chain[-1]) > 1:
        r = _rem(chain[-2], chain[-1])
        if not any(r):
            break
        chain.append([-c for c in r])
    return [[mpmath.mpf(c.numerator) / c.denominator for c in p] for p in chain]


def horner(p, x):
    acc = mpmath.mpf(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def sign_changes(chain, x) -> int:
    signs = [s for s in (mpmath.sign(horner(p, x)) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def smallest_positive_root(g: list[int]):
    """Smallest root of g in (0, 1), isolated by Sturm counts, then bisected."""
    chain = sturm_chain(g)
    lo, hi = mpmath.mpf(0), 1 - mpmath.mpf(10) ** -40
    v_lo = sign_changes(chain, lo)
    if v_lo - sign_changes(chain, hi) < 1:
        raise ValueError(f"no root in (0, 1) for {g}")
    while v_lo - sign_changes(chain, hi) > 1:
        mid = (lo + hi) / 2
        if v_lo - sign_changes(chain, mid) >= 1:
            hi = mid
        else:
            lo, v_lo = mid, sign_changes(chain, mid)
    g_lo = horner(g, lo)
    if mpmath.sign(g_lo) == mpmath.sign(horner(g, hi)):
        raise ValueError(f"isolated root of {g} has no sign change")
    for _ in range(4 * DIGITS):
        mid = (lo + hi) / 2
        g_mid = horner(g, mid)
        if g_mid == 0:
            return mid
        if mpmath.sign(g_mid) == mpmath.sign(g_lo):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return (lo + hi) / 2


def solve(stages) -> dict:
    polys = ladder(stages)
    u = smallest_positive_root(shift_to_deficit(polys[0]))
    x = 1 - u
    out = []
    for t in range(1, len(stages) + 1):
        f = polys[t]
        d = [i * c for i, c in enumerate(f)][1:] or [0]
        out.append(horner(d, x) * x * u)
    total = sum(k * s for k, s in zip(stages, out))
    if abs(total - x) > mpmath.mpf(10) ** (-DIGITS // 2) or min(out) < 0:
        raise ValueError(f"reference check failed for {stages}")
    return {"X": float(x), "deficit": float(u), "stages": [float(s) for s in out]}


def main() -> int:
    mpmath.mp.dps = DIGITS
    sequences = sweep_sequences() + list(LONG_SEQUENCES)
    solutions = {}
    for i, stages in enumerate(sequences):
        solutions[",".join(map(str, stages))] = solve(stages)
        if i % 500 == 0:
            print(f"{i}/{len(sequences)}", file=sys.stderr)
    payload = {
        "schema": 1,
        "digits": DIGITS,
        "max_players": MAX_PLAYERS,
        "long_sequences": [",".join(map(str, s)) for s in LONG_SEQUENCES],
        "solutions": solutions,
    }
    with gzip.open(OUT, "wt", encoding="utf-8", compresslevel=9) as fh:
        json.dump(payload, fh, separators=(",", ":"))
    print(f"wrote {len(solutions)} solutions to {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

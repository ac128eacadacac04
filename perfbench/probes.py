"""Fixed-instance micro probes of the scalar, element and matrix kernels.

The instances never depend on the workload seed, so the figures compare
across runs and commits.  Each probe reports microseconds per call: the
median of five timed batches, each batch long enough to last 20 ms.
"""

from __future__ import annotations

import random
import statistics
import time

import moca.algebra as algebra
import moca.fields as fields
import moca.finiteness as finiteness
import moca.monoids as monoids
import moca.randomized as randomized


def _time_us(fn, repeat=5, min_batch_s=0.02):
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - t0 >= min_batch_s:
            break
        number *= 2
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples) * 1e6


def _elem(field, monoid, pairs):
    return algebra.alg_from_terms(field, monoid,
                                  [(monoid.elem(k), field.unrank(r)) for k, r in pairs])


def run_probes():
    gf3 = fields.field_make(3)
    gf4 = fields.field_make(2, 2)
    q = fields.rationals()
    x3, y3 = gf3.unrank(2), gf3.unrank(1)
    x4, y4 = gf4.unrank(2), gf4.unrank(3)
    xq, yq = q.parse_literal("3/7"), q.parse_literal("-5/4")
    f1, f2 = fields.field_make(2, 2), fields.field_make(2, 2)

    bic = monoids.bicyclic()
    bx, by = bic.elem((1, 2)), bic.elem((2, 1))
    t3 = monoids.enumerate_monoids(3)[5]
    tx, ty = t3.elements()[1], t3.elements()[2]

    ea = _elem(gf4, bic, [((0, 0), 1), ((1, 0), 2), ((0, 1), 3), ((1, 2), 1)])
    eb = _elem(gf4, bic, [((0, 0), 3), ((2, 0), 1), ((0, 2), 2), ((2, 1), 1)])

    rng = random.Random(2405)
    c4 = monoids.cyclic(4)
    pool = randomized.element_pool(c4)
    ma = randomized.random_matrix(rng, c4, gf3, 3, pool)
    mb = randomized.random_matrix(rng, c4, gf3, 3, pool)
    rank_gf3 = randomized.random_matrix(rng, c4, gf3, 3, pool)
    rank_q = randomized.random_matrix(rng, c4, q, 3, pool)

    return {
        "fields.scalar_mul_us.gf3": _time_us(lambda: x3 * y3),
        "fields.scalar_mul_us.gf4": _time_us(lambda: x4 * y4),
        "fields.scalar_mul_us.q": _time_us(lambda: xq * yq),
        "fields.carrier_eq_us": _time_us(lambda: f1 == f2),
        "monoids.elem_mul_us.bicyclic": _time_us(lambda: bx * by),
        "monoids.elem_mul_us.table3": _time_us(lambda: tx * ty),
        "algebra.elem_mul_us.bicyclic4": _time_us(lambda: ea * eb),
        "algebra.mat_mul_us.gf3c4": _time_us(lambda: ma * mb),
        # flatten + gauss_rank of a 3x3 matrix over K[C4], a 12x12 flattening
        "finiteness.rank_us.gf3": _time_us(
            lambda: finiteness.gauss_rank(finiteness.flatten(rank_gf3))),
        "finiteness.rank_us.q": _time_us(
            lambda: finiteness.gauss_rank(finiteness.flatten(rank_q))),
    }

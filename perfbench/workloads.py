"""Seeded operation generators for the benchmark workloads.

A generator turns (workload, seed) into an endless stream of plain-data
operations; the package only ever sees those generated inputs.  A run takes
a fixed number of blocks from it (``run_blocks``).  Operations
come in blocks that hold every query shape of the workload once, in seeded
order.  The k-th (L, eta) of one shape is the k-th point of a Halton
sequence under a seeded random shift, so the few points a run gives each
shape cover the parameter box evenly, and two seeds put comparable work into
a run.

This module never imports the package.
"""

from __future__ import annotations

import random

WORKLOADS = ("radius-table", "zero-scan", "cli-requests")

# eta below this bound is the large-|eta| slice (reported per run)
LARGE_ETA = -3.0

# radius-table: the shapes are every (kind, property, beta, form); a quarter of
# them take eta from the large slice [-12, -3)
RADIUS_SHAPES = [(kind, prop, beta, form)
                 for kind in ("f", "g")
                 for prop in ("starlike", "convex", "univalent")
                 for beta in (0.0, 0.25, 0.5)
                 for form in ("ratio", "direct")]
RADIUS_ETA_LARGE = (-12.0, -3.0)
RADIUS_LARGE_SHARE = 0.25

# zero-scan: per target, ten (count_pos, count_neg) shapes; two of them take
# eta from the large slice [-25, -3).  The heaviest fifth of a block is the
# (10, 8)/(10, 10) class, so the 90th percentile falls inside one class and
# not on the edge between two; (10, 10) is the find_zeros(F, 10, 10) of the
# layer baseline.
ZERO_TARGETS = ("F", "F_prime", "g_prime")
ZERO_COUNTS = ((1, 0), (1, 1), (2, 0), (2, 2), (3, 1), (4, 0), (5, 3), (6, 4), (10, 8), (10, 10))
ZERO_LARGE_SHAPES = (3, 7)
ZERO_SHAPES = [(target, pos, neg, j in ZERO_LARGE_SHAPES)
               for target in ZERO_TARGETS
               for j, (pos, neg) in enumerate(ZERO_COUNTS)]
ZERO_ETA_LARGE = (-25.0, -3.0)

# cli-requests: (L, eta) from fixed pools, so parameters repeat across requests
CLI_POOL = ((0.0, 0.0), (0.0, -1.0), (0.5, -1.0), (1.0, -0.5), (2.5, -2.0),
            (-0.4, -0.25), (1.5, -3.0), (3.0, -1.5))
CLI_REGION_POOL = (("4+1i", "0.5"), ("3+1i", "0.25"), ("5+2i", "1"), ("2+0.5i", "-0.5"))
CLI_Z_GRID = tuple(0.25 * j for j in range(1, 33))  # |z| <= 8
# per block of 40: 6 bounds and 6 region requests (the fastest), then eval over
# 8, 16, 24 and 32 points; latency grows with the point count, so the median
# falls in the middle of the 16-point class and the 90th percentile in the
# middle of the 32-point class, not on the edge between two classes
CLI_EVAL_SIZES = (8,) * 4 + (16,) * 8 + (24,) * 8 + (32,) * 8
CLI_OUTPUTS = ("json", "csv", "table")
CLI_BLOCK = ("eval",) * len(CLI_EVAL_SIZES) + ("bounds",) * 6 + ("region",) * 6


def _halton(k: int, base: int) -> float:
    f, r = 1.0, 0.0
    while k:
        f /= base
        r += f * (k % base)
        k //= base
    return r


class _ShapePoints:
    """Per-shape points in [0, 1)^2: a Halton sequence under a seeded random shift."""

    def __init__(self, rng: random.Random, n_shapes: int):
        self._shift = [(rng.random(), rng.random()) for _ in range(n_shapes)]
        self._count = [0] * n_shapes

    def next(self, shape: int) -> tuple[float, float]:
        self._count[shape] += 1
        k = self._count[shape]
        du, dv = self._shift[shape]
        return (_halton(k, 2) + du) % 1.0, (_halton(k, 3) + dv) % 1.0


def _L(u: float, lo: float = -1.0) -> float:
    return 5.0 - (5.0 - lo) * u  # (lo, 5]


def _eta(v: float, large: bool, large_range: tuple[float, float]) -> float:
    if large:
        lo, hi = large_range
        return lo + (hi - lo) * v  # [lo, hi)
    return -3.0 * v  # (-3, 0]


def radius_ops(seed):
    rng = random.Random(f"radius-table:{seed}")
    shapes = RADIUS_SHAPES
    n_large = round(RADIUS_LARGE_SHARE * len(shapes))
    points = _ShapePoints(rng, len(shapes))
    while True:
        order = list(range(len(shapes)))
        rng.shuffle(order)
        for i in order:
            kind, prop, beta, form = shapes[i]
            u, v = points.next(i)
            # the f-form convexity equation is certified only for L > -1/2
            lo = -0.5 if (prop == "convex" and kind == "f") else -1.0
            # a fixed quarter of the shapes, spread over kinds, properties and forms
            large = (5 * i) % len(shapes) < n_large
            yield {
                "L": _L(u, lo),
                "eta": _eta(v, large, RADIUS_ETA_LARGE),
                "kind": kind,
                "property": prop,
                "beta": 0.0 if prop == "univalent" else beta,
                "form": form,
                "m": rng.choice((2, 4)),
            }


def zero_ops(seed):
    rng = random.Random(f"zero-scan:{seed}")
    shapes = ZERO_SHAPES
    points = _ShapePoints(rng, len(shapes))
    while True:
        order = list(range(len(shapes)))
        rng.shuffle(order)
        for i in order:
            target, count_pos, count_neg, large = shapes[i]
            u, v = points.next(i)
            yield {
                "L": _L(u),
                "eta": _eta(v, large, ZERO_ETA_LARGE),
                "target": target,
                "count_pos": count_pos,
                "count_neg": count_neg,
            }


def cli_ops(seed):
    rng = random.Random(f"cli-requests:{seed}")
    while True:
        block = list(CLI_BLOCK)
        rng.shuffle(block)
        eval_sizes = list(CLI_EVAL_SIZES)
        rng.shuffle(eval_sizes)
        grids = [32, 64] * (CLI_BLOCK.count("region") // 2)
        rng.shuffle(grids)
        for command in block:
            output = rng.choice(CLI_OUTPUTS)
            if command == "region":
                L, eta = rng.choice(CLI_REGION_POOL)
                argv = ["region", f"--L={L}", f"--eta={eta}",
                        "--disk", rng.choice(("g", "zgpg")),
                        "--grid-n", str(grids.pop())]
            else:
                L, eta = rng.choice(CLI_POOL)
                kind = rng.choice(("f", "g"))
                if command == "eval":
                    zs = rng.sample(CLI_Z_GRID, eval_sizes.pop())
                    argv = ["eval", f"--L={L!r}", f"--eta={eta!r}",
                            "--z=" + ",".join(repr(z) for z in zs),
                            "--quantity", rng.choice(("series", "star", "conv")),
                            "--kind", kind]
                else:
                    m = rng.choice((2, 4))
                    method = rng.choice(("extracted", "closed_form", "both")) if m == 2 \
                        else "extracted"
                    argv = ["bounds", f"--L={L!r}", f"--eta={eta!r}", "--kind", kind,
                            "--m", str(m), "--method", method]
            yield {"command": command, "L": str(L), "eta": str(eta),
                   "argv": argv + ["--output", output]}


GENERATORS = {"radius-table": radius_ops, "zero-scan": zero_ops, "cli-requests": cli_ops}
# operations per block; a run is a whole number of blocks, so every run weighs
# the shapes of its workload alike
BLOCK = {"radius-table": len(RADIUS_SHAPES), "zero-scan": len(ZERO_SHAPES),
         "cli-requests": len(CLI_BLOCK)}
# seconds one block takes on the seed at the reference speed of speed.py;
# they turn --seconds into a fixed number of blocks
BLOCK_REF_S = {"radius-table": 1.3, "zero-scan": 4.0, "cli-requests": 0.87}
MIN_OPS = 110  # leaves >= 10 samples above the 90th percentile


def run_blocks(workload: str, seconds: float) -> int:
    """Blocks in a run of about `seconds` on the seed: a function of its arguments alone,
    so a seed always gives the same operations and the same failures."""
    block = BLOCK[workload]
    return max(-(-MIN_OPS // block), round(seconds / BLOCK_REF_S[workload]))


def param_key(op: dict) -> tuple:
    """The (L, eta) an operation runs at, for the repeated-parameter share."""
    return (op["L"], op["eta"])


def is_large_eta(op: dict) -> bool:
    return isinstance(op["eta"], float) and op["eta"] < LARGE_ETA

"""Recompute the benchmark's pins without running fsig's solvers.

    python3 perfbench/pin_sources.py

Closed forms are checked directly.  The cusp rows (no closed form) come from
a dense rank per weighted-degree block of multiplication by f^N on
F_p[a,b]/(a^q, b^q), using the brute-force helpers in tests/_oracles.py;
deg a = 2, deg b = 3 makes f = a^3 - b^2 homogeneous of degree 6.  The
monomial volumes (no closed form) are compared with a floating-point qhull
volume of [0,1]^n cap conv(t*A + {0,2}^n), which equals the clipped scaled
Newton polyhedron; that part needs scipy and is skipped without it.
Exits 1 if any pin disagrees.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

from cases import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from _oracles import dense_rank_modp, repeated_product  # noqa: E402

CLOSED_FORMS = {
    "whitney-p3-ratio": lambda q: (q + 1) // 2,
    "whitney-p2-fpure": lambda q: 0,
    "cone-p2": lambda q: q * q // 2,
    "snc-p5": lambda q: ((q + 1) // 2) ** 2,
    "twisted-cubic-p3": lambda q: q * q // 3,
}


def cusp_a_e(p: int, e: int, t: Fraction) -> int:
    q = p**e
    N = math.ceil(t * (q - 1))
    power = repeated_product({(3, 0): 1, (0, 2): p - 1}, N, p)
    power = {m: c for m, c in power.items() if m[0] < q and m[1] < q}
    blocks = {}
    for i, j in itertools.product(range(q), repeat=2):
        blocks.setdefault(2 * i + 3 * j, []).append((i, j))
    total = 0
    for d, sources in blocks.items():
        column = {m: k for k, m in enumerate(blocks.get(d + 6 * N, []))}
        rows = []
        for i, j in sources:
            row = [0] * len(column)
            for (a, b), c in power.items():
                k = column.get((a + i, b + j))
                if k is not None:
                    row[k] = c
            if any(row):
                rows.append(row)
        if rows:
            total += dense_rank_modp(rows, p)
    return total


def qhull_volume(exps, t: Fraction) -> float:
    import numpy as np
    from scipy.optimize import linprog
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    n = len(exps[0])
    cloud = [[float(t) * a + 2 * v for a, v in zip(ex, corner)]
             for ex in exps for corner in itertools.product((0, 1), repeat=n)]
    halfspaces = list(ConvexHull(np.array(cloud)).equations)
    for i in range(n):
        upper, lower = np.zeros(n + 1), np.zeros(n + 1)
        upper[i], upper[n], lower[i] = 1, -1, -1
        halfspaces += [upper, lower]
    hs = np.array(halfspaces)
    A, b = hs[:, :n], -hs[:, n]
    # Chebyshev centre: an interior point, or radius 0 for a flat region
    res = linprog(np.r_[np.zeros(n), -1], A_ub=np.c_[A, np.linalg.norm(A, axis=1)],
                  b_ub=b, bounds=[(None, None)] * n + [(0, None)])
    if res.x[n] < 1e-9:
        return 0.0
    return ConvexHull(HalfspaceIntersection(hs, res.x[:n]).intersections).volume


def main() -> int:
    bad = 0
    for case in (c for cases in WORKLOADS.values() for c in cases):
        pins = case.pins
        if case.name in CLOSED_FORMS:
            want = tuple(CLOSED_FORMS[case.name](case.p**e) for e in range(1, len(pins.a_e) + 1))
            source = "closed form"
        elif case.name.startswith("cusp"):
            want = tuple(cusp_a_e(case.p, e, case.system[2]) for e in range(1, len(pins.a_e) + 1))
            source = "weighted-degree block rank"
        else:
            try:
                exps = [terms[0][1] for terms in case.system[1]]
                worst = max(abs(qhull_volume(exps, t) - float(v)) for t, v in pins.exact)
            except ImportError:
                print(f"SKIP {case.name}: scipy not available")
                continue
            ok = worst < 1e-9
            bad += not ok
            print(f"{'OK ' if ok else 'BAD'} {case.name}: qhull volume within {worst:.1e}")
            continue
        ok = want == pins.a_e
        bad += not ok
        print(f"{'OK ' if ok else 'BAD'} {case.name}: a_e {pins.a_e} ({source}: {want})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

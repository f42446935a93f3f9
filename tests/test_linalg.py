import random

import pytest

from _oracles import dense_rank_modp
from fsig._linalg import Echelon, vector_from_items


def _random_rows(rng, p, count):
    # a small pool of far-apart columns, so rows collide and dependencies occur
    pool = rng.sample(range(10**6), rng.randint(3, 8))
    rows = []
    for _ in range(count):
        rows.append([(rng.choice(pool), rng.randint(0, 2 * p)) for _ in range(rng.randint(1, 4))])
    return rows


def _dense(rows, p):
    columns = sorted({idx for items in rows for idx, _ in items})
    where = {idx: k for k, idx in enumerate(columns)}
    dense = []
    for items in rows:
        row = [0] * len(columns)
        for idx, c in items:
            row[where[idx]] += c
        dense.append(row)
    return dense


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_echelon_rank_and_dependencies_randomized(p):
    rng = random.Random(900 + p)
    for _ in range(40):
        rows = _random_rows(rng, p, rng.randint(1, 12))
        plain = Echelon(p)
        tracked = Echelon(p, track=True)
        vectors = {}
        for label, items in enumerate(rows):
            vec = vector_from_items(p, items)
            assert all(0 < c < p for c in vec.values())
            plain.insert(vector_from_items(p, items))
            dep = tracked.insert(vector_from_items(p, items), label=label)
            if dep is None:
                vectors[label] = vec
                continue
            rebuilt = vector_from_items(
                p, [(idx, c * v) for k, c in dep.items() for idx, v in vectors[k].items()]
            )
            assert set(dep) <= set(vectors)
            assert rebuilt == vec
        expected = dense_rank_modp(_dense(rows, p), p)
        assert plain.rank == tracked.rank == len(vectors) == expected

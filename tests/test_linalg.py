import itertools
import math
import random

import pytest

from _oracles import dense_rank_modp
from fsig._linalg import Echelon, box_rows


def vector_from_items(p, items):
    """Sparse vector from (index, coefficient) pairs; indices may repeat."""
    out = {}
    for idx, c in items:
        out[idx] = (out.get(idx, 0) + c) % p
    return {idx: c for idx, c in out.items() if c}


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


def _check_echelon(p, rows):
    """Plain and labelled rank against dense elimination; every dependency rebuilt.

    The labelled echelon tags row k with label column ~k, so a dependent row
    reduces to its own label minus the earlier rows' labels it depends on.
    """
    plain = Echelon(p)
    labelled = Echelon(p)
    vectors = {}
    for label, items in enumerate(rows):
        vec = vector_from_items(p, items)
        assert all(0 < c < p for c in vec.values())
        plain.insert(vector_from_items(p, items))
        tagged = vector_from_items(p, items + [(~label, 1)])
        if labelled.insert(tagged):
            vectors[label] = vec
            continue
        assert all(idx < 0 for idx in tagged), (rows, label)
        assert tagged[~label] == 1, (rows, label)
        dep = {~idx: (-c) % p for idx, c in tagged.items() if idx != ~label}
        rebuilt = vector_from_items(
            p, [(idx, c * v) for k, c in dep.items() for idx, v in vectors[k].items()]
        )
        assert set(dep) <= set(vectors)
        assert rebuilt == vec, (rows, label)
    expected = dense_rank_modp(_dense(rows, p), p)
    assert plain.rank == labelled.rank == len(vectors) == expected


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_echelon_rank_and_dependencies_randomized(p):
    rng = random.Random(900 + p)
    for _ in range(40):
        _check_echelon(p, _random_rows(rng, p, rng.randint(1, 12)))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_echelon_repeats_and_scalar_multiples_randomized(p):
    # rows that repeat an earlier row exactly, or scale it by a unit (the same
    # or a different lead coefficient), with fresh rows mixed in
    rng = random.Random(1700 + p)
    for _ in range(60):
        fresh = iter(_random_rows(rng, p, 16))  # one column pool, so leads collide
        rows = []
        for _ in range(rng.randint(1, 16)):
            kind = rng.random()
            if rows and kind < 0.3:
                rows.append(list(rng.choice(rows)))
            elif rows and kind < 0.6:
                unit = rng.randint(1, p - 1)
                rows.append([(idx, unit * c) for idx, c in rng.choice(rows)])
            else:
                rows.append(next(fresh))
        _check_echelon(p, rows)


def _random_polys(rng, box):
    """1-3 polys of up to 4 terms with exponents up to one past the box."""
    polys = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            # exponents up to one past the box side, so some terms never land
            terms[tuple(rng.randint(0, b + 1) for b in box)] = rng.randint(1, 6)
        polys.append(terms)
    return polys


def _random_box_problem(rng):
    """n = 1-3, box sides 0-4, and _random_polys on that box."""
    n = rng.randint(1, 3)
    box = [rng.choice([0, 1, 2, 3, 4]) for _ in range(n)]
    return box, _random_polys(rng, box)


def test_box_rows_match_brute_force_randomized():
    rng = random.Random(4242)
    for _ in range(200):
        box, polys = _random_box_problem(rng)
        cells = list(itertools.product(*(range(b) for b in box)))
        position = {t: k for k, t in enumerate(cells)}  # enumeration order = column order
        row, _ = box_rows(box, polys)
        # every cell of the box and every cell up to one step outside it
        for g in itertools.product(*(range(b + 2) for b in box)):
            expected = {}
            for j, terms in enumerate(polys):
                for m, c in terms.items():
                    t = tuple(a + b for a, b in zip(g, m))
                    if t in position:
                        expected[j * len(cells) + position[t]] = c
            got = row(g)
            assert got == expected, (box, polys, g)
            assert all(got.values())


def _check_slabs(box, row, got, walked):
    """The slabs hold the index and row of each walked cell with a non-empty
    row, in cell order, and each slab the cells of one first exponent."""
    index = {g: k for k, g in enumerate(itertools.product(*(range(b) for b in box)))}
    expected = [(index[g], row(g)) for g in walked if row(g)]
    pairs = [(first + k, r) for first, offsets, rows in got for k, r in zip(offsets, rows)]
    assert pairs == expected, (box, walked)
    per_slab = math.prod(box[1:])
    assert all(first % per_slab == 0 and max(offsets, default=0) < per_slab for first, offsets, _ in got)


def test_box_slabs_match_rows_randomized():
    # the walk of the lifts s*d + r, r in [0, s)^n, of random parent cells d
    # of the box with sides box_i / s (s = 1 walks the parents themselves);
    # every third draw lifts the one cell of the all-1 box: the whole box
    rng = random.Random(4343)
    whole_shapes = set()
    for draw in range(450):
        n = rng.randint(1, 3)
        whole = draw % 3 == 0
        if whole:
            s, pbox = rng.randint(1, 4), [1] * n
            whole_shapes.add((n, s))
        else:
            s, pbox = rng.choice([1, 2, 3]), [rng.randint(0, 3) for _ in range(n)]
        box = [s * b for b in pbox]
        polys = _random_polys(rng, box)
        pcells = list(itertools.product(*(range(b) for b in pbox)))
        chosen = [0] if whole else sorted(rng.sample(range(len(pcells)), rng.randint(0, len(pcells))))
        walked = sorted(
            tuple(s * u + v for u, v in zip(pcells[k], r))
            for k in chosen
            for r in itertools.product(range(s), repeat=n)
        )
        row, slabs = box_rows(box, polys)
        got = list(slabs(chosen, s))
        _check_slabs(box, row, got, walked)
        if whole:
            cells = list(itertools.product(*(range(b) for b in box)))
            assert walked == cells
            # slab a holds exactly the non-empty rows of the cells with first exponent a
            assert [rows for _, _, rows in got] == [
                [row(g) for g in cells if g[0] == a and row(g)] for a in range(len(got))
            ]
    assert whole_shapes == {(n, s) for n in (1, 2, 3) for s in (1, 2, 3, 4)}

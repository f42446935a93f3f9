import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

import _oracles
from _oracles import box_blocks, box_row, dense_rank_modp, fraction_rref, torus_grading
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
        row = box_rows(box, polys)
        # every cell of the box and every cell up to one step outside it
        for g in itertools.product(*(range(b + 2) for b in box)):
            expected = box_row(box, polys, g)
            got = row(g)
            assert got == expected, (box, polys, g)
            assert all(got.values())


def _check_blocks(box, polys, got, walked, single):
    """The blocks hold the index and row of each walked cell with a non-empty
    row, each block in cell order; no column is shared by two blocks; a
    block is the cells of consecutive degrees under the first row of the
    grading of the in-box terms, taken by increasing degree, and of one
    degree when single."""
    cells = list(itertools.product(*(range(b) for b in box)))
    index = {g: k for k, g in enumerate(cells)}
    rows = {g: box_row(box, polys, g) for g in walked}
    expected = sorted((index[g], rows[g]) for g in walked if rows[g])
    pairs = [(k, r) for block in got for k, r in block]
    assert sorted(pairs, key=lambda t: t[0]) == expected, (box, walked)
    assert all([k for k, _ in block] == sorted(k for k, _ in block) for block in got)
    columns = [set().union(*(r for _, r in block)) for block in got]
    assert sum(map(len, columns)) == len(set().union(*columns)), (box, polys)
    inbox = [[m for m in f if all(u < b for u, b in zip(m, box))] for f in polys]
    W = torus_grading(inbox, len(box))
    w = W[0] if W else [0] * len(box)
    degrees = [sorted({sum(a * b for a, b in zip(w, cells[k])) for k, _ in block}) for block in got if block]
    assert all(a[-1] < b[0] for a, b in zip(degrees, degrees[1:])), (box, polys)
    assert not single or all(len(d) == 1 for d in degrees), (box, polys)


def test_box_slabs_match_rows_randomized(monkeypatch):
    # the walk of the lifts s*d + r, r in [0, s)^n, of random parent cells d
    # of the box with sides box_i / s (s = 1 walks the parents themselves),
    # block by block, with the default merging of degrees (one block at this
    # size) and with one block per degree; every third draw lifts the one
    # cell of the all-1 box: the whole box
    rng = random.Random(4343)
    whole_shapes = set()
    shapes = [0, 0, 0]  # draws with no row, one block with rows, several
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
        _check_blocks(box, polys, [list(block) for block in box_blocks(box, polys, chosen, s)], walked, False)
        monkeypatch.setattr(_oracles, "BLOCK_LIFTS", 1)
        got = [list(block) for block in box_blocks(box, polys, chosen, s)]
        monkeypatch.undo()
        _check_blocks(box, polys, got, walked, True)
        shapes[min(sum(1 for block in got if block), 2)] += 1
        if whole:
            cells = list(itertools.product(*(range(b) for b in box)))
            assert walked == cells
            assert sorted(k for block in got for k, _ in block) == [
                k for k, g in enumerate(cells) if box_row(box, polys, g)
            ]
    assert whole_shapes == {(n, s) for n in (1, 2, 3) for s in (1, 2, 3, 4)}
    assert min(shapes) >= 50, shapes


def _rank_q(rows):
    """Rank over the rationals, by exact elimination."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_torus_grading_is_the_kernel_of_the_term_differences_randomized():
    # W is orthogonal to every difference of two exponents of one group, and
    # spans the whole kernel: rank W = n - rank(differences)
    rng = random.Random(5151)
    ranks = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        groups = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:  # homogeneous for a random weight: terms of one degree
                w = [rng.randint(1, 3) for _ in range(n)]
                pool = [m for m in itertools.product(range(5), repeat=n) if sum(map(operator.mul, w, m)) == 6]
                groups.append(rng.sample(pool, min(len(pool), rng.randint(1, 4))))
            else:
                groups.append([tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 4))])
        W = torus_grading(groups, n)
        diffs = [[a - b for a, b in zip(m, ms[0])] for ms in groups for m in ms]
        assert all(sum(map(operator.mul, v, d)) == 0 for v in W for d in diffs), (groups, W)
        assert len(W) == _rank_q(W) == n - _rank_q(diffs), (groups, W)
        assert all(isinstance(x, int) for v in W for x in v)
        # exactly the primitive kernel rows of the rational RREF, one per free
        # column, each positive there: W fixes the blocks
        rref, pivots = fraction_rref([[Fraction(x) for x in d] for d in diffs])
        expected = []
        for f in (k for k in range(n) if k not in pivots):
            vec = [Fraction(int(k == f)) for k in range(n)]
            for row, pc in zip(rref, pivots):
                vec[pc] = -row[f]
            ints = [int(v * math.lcm(*(u.denominator for u in vec))) for v in vec]
            expected.append(tuple(x // math.gcd(*ints) for x in ints))
        assert W == expected, (groups, W)
        ranks.add(len(W))
    assert {0, 1, 2} <= ranks


def test_ungraded_generator_walks_one_block():
    # x^2 + y^3 + x*y: the differences (2, -3) and (1, -2) have rank 2, so no
    # grading; the whole box is then a single block in cell order
    poly = {(2, 0): 1, (0, 3): 1, (1, 1): 2}
    assert torus_grading([list(poly)], 2) == []
    got = [list(block) for block in box_blocks([9, 9], [poly], range(9), 3)]
    assert len(got) == 1
    rows = [box_row([9, 9], [poly], g) for g in itertools.product(range(9), repeat=2)]
    assert got[0] == [(k, row) for k, row in enumerate(rows) if row]
    # a binomial is graded: its blocks are the diagonals 2a + 3b = const
    # (weights orthogonal to (3, -2)), merged until a block holds
    # BLOCK_LIFTS lifts
    assert torus_grading([[(3, 0), (0, 2)]], 2) == [(2, 3)]
    sizes = [len(list(b)) for b in box_blocks([81, 81], [{(3, 0): 1, (0, 2): 2}], range(27 * 27), 3)]
    assert len(sizes) > 1 and all(k >= _oracles.BLOCK_LIFTS for k in sizes[:-1])

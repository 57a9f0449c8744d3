import pytest
from hypothesis import given
from hypothesis import strategies as st

from cayley_qmc.errors import DomainError
from cayley_qmc.tree import ROOT, TreeCoord, ball_vertices, concat, level_vertices

coords = st.builds(TreeCoord, st.lists(st.integers(1, 2), max_size=6).map(tuple))


def test_level_zero_is_the_root():
    assert level_vertices(0) == [ROOT]


def test_level_two_order_two():
    assert [c.digits for c in level_vertices(2)] == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_level_three_fourth_vertex():
    verts = level_vertices(3)
    assert len(verts) == 8
    assert verts[3].digits == (1, 2, 2)


# k: the branching the level must show (level 0 is the root alone, for any k)
@pytest.mark.parametrize("n,k", [(0, 1), (3, 2), (4, 2)])
def test_level_count_and_order(n, k):
    verts = level_vertices(n)
    assert len(verts) == k**n
    assert all(a.digits < b.digits for a, b in zip(verts, verts[1:]))
    if n > 0:
        assert verts[0].digits == (1,) * n
        assert verts[-1].digits == (k,) * n


@pytest.mark.parametrize("n,k,size", [(0, 2, 1), (1, 2, 3), (2, 2, 7), (3, 2, 15)])
def test_ball_sizes(n, k, size):
    ball = ball_vertices(n)
    assert len(ball) == size == (k ** (n + 1) - 1) // (k - 1)
    keys = [(v.level, v.digits) for v in ball]
    assert keys == sorted(keys)


def test_concat_examples():
    assert concat(TreeCoord((1,)), TreeCoord((2, 1))).digits == (1, 2, 1)
    assert concat(ROOT, TreeCoord((2, 2))).digits == (2, 2)
    assert concat(TreeCoord((1, 2)), TreeCoord((1,))).digits == (1, 2, 1)


def test_derived_vertices_equal_checked_ones():
    # level_vertices and concat skip the digit check on digits they derive from valid ones
    derived = ball_vertices(3) + [concat(TreeCoord((2, 1)), TreeCoord((d,))) for d in (1, 2)] + [
        concat(TreeCoord((1,)), TreeCoord((2, 2)))
    ]
    lookup = {TreeCoord(list(x.digits)): x for x in derived}
    for x in derived:
        assert lookup[x] == x and hash(x) == hash(TreeCoord(x.digits)) and repr(x) == repr(TreeCoord(x.digits))
        assert all(type(d) is int for d in x.digits)


def test_invalid_digits_rejected():
    # the tree has order two: a digit is 1 or 2, nothing else
    for digits in [(0,), (3,), (1.5,), (0, 1), (1, 2, 3), ("1",), (float("nan"),)]:
        with pytest.raises(DomainError):
            TreeCoord(digits)
    with pytest.raises(DomainError):
        level_vertices(-1)


@given(coords, coords, coords)
def test_concat_associative(x, y, z):
    assert concat(concat(x, y), z) == concat(x, concat(y, z))


@given(coords)
def test_root_is_two_sided_identity(x):
    assert concat(x, ROOT) == x
    assert concat(ROOT, x) == x


@given(coords, coords)
def test_translate_adds_levels(g, x):
    # the translation by g is left concatenation
    assert concat(g, x).level == g.level + x.level

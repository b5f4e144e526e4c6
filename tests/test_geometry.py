import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

from ball import ball_adjacency
from reference import distance
from treeheat.geometry import (
    ROOT,
    TreeGeometry,
    ball_distances,
    cross_distance_counts,
    depth,
    enumerate_ball,
    neighbors,
    sphere_size,
    validate_word,
)


@pytest.mark.parametrize("q,radius", [(1, 6), (2, 5), (3, 4)])
def test_distance_matches_bfs(q, radius):
    geom = TreeGeometry(q, radius)
    verts, _, adj = ball_adjacency(geom)
    d = shortest_path(adj, method="D", unweighted=True)
    for i, u in enumerate(verts):
        assert ball_distances(geom, u).tolist() == d[i].astype(int).tolist(), u
        for j, v in enumerate(verts):
            assert distance(u, v) == int(d[i, j])


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("radius", range(6))
def test_ball_distances_match_distance(q, radius):
    geom = TreeGeometry(q, radius)
    ball = enumerate_ball(geom)
    rng = np.random.default_rng(10 * q + radius)
    inside = ball if len(ball) <= 60 else [ball[i] for i in rng.choice(len(ball), 60, replace=False)]
    outside = [  # random words one to three levels past the ball
        (int(rng.integers(q + 1)), *rng.integers(q, size=radius + int(rng.integers(3))).tolist())
        for _ in range(20)
    ]
    for x in [*inside, ball[-1], *outside]:
        assert ball_distances(geom, x).tolist() == [distance(x, y) for y in ball], x


@pytest.mark.parametrize("q", [1, 2, 3, 5])
def test_sphere_sizes(q):
    geom = TreeGeometry(q, 6)
    assert sphere_size(geom, 0) == 1
    for k in range(1, 7):
        assert sphere_size(geom, k) == (q + 1) * q ** (k - 1)
    verts = enumerate_ball(geom)
    assert len(verts) == sum(sphere_size(geom, k) for k in range(7))
    for k in range(7):
        assert sum(1 for v in verts if depth(v) == k) == sphere_size(geom, k)


def test_enumerate_ball_order():
    geom = TreeGeometry(2, 3)
    verts = enumerate_ball(geom)
    assert verts[0] == ROOT
    depths = [depth(v) for v in verts]
    assert depths == sorted(depths)
    for a, b in zip(verts, verts[1:]):
        assert (depth(a), a) < (depth(b), b)


@pytest.mark.parametrize("q", [1, 2, 4])
def test_neighbors(q):
    geom = TreeGeometry(q, 4)
    index = {w: i for i, w in enumerate(enumerate_ball(geom))}
    for v in enumerate_ball(TreeGeometry(q, 3)):
        ns = neighbors(v, q)
        assert len(ns) == q + 1
        assert len(set(ns)) == q + 1
        assert ball_distances(geom, v)[[index[y] for y in ns]].tolist() == [1] * (q + 1)


def test_validate_word_rejects_bad_labels():
    with pytest.raises(ValueError):
        validate_word((0, 3), 2)  # labels must be in 0..q
    with pytest.raises(ValueError):
        validate_word((0, 0, 0), 0)


@pytest.mark.parametrize("q,k", [(2, 0), (2, 3), (3, 2), (1, 4)])
def test_distance_census_against_enumeration(q, k):
    # census of {y : d(o,y)=i, d(x,y)=j} for one x at depth k, versus brute force
    radius = 5
    geom = TreeGeometry(q, radius)
    x = tuple([0] * k)
    brute = {}
    for y, j in zip(enumerate_ball(geom), ball_distances(geom, x).tolist()):
        brute[depth(y), j] = brute.get((depth(y), j), 0) + 1
    census = list(cross_distance_counts(q, k, radius))
    assert len({(i, j) for i, j, _ in census}) == len(census)  # each (i, j) once
    assert {(i, j): n for i, j, n in census} == brute


def test_distance_census_row_sums():
    q, k, r = 2, 3, 6
    geom = TreeGeometry(q, r)
    rows = {}
    for i, _, n in cross_distance_counts(q, k, r):
        rows[i] = rows.get(i, 0) + n
    assert rows == {i: sphere_size(geom, i) for i in range(r + 1)}


@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=4), max_size=5),
    st.lists(st.integers(min_value=0, max_value=4), max_size=5),
)
def test_distance_metric_properties(q, a, b):
    # normalize to valid words: first label in 0..q, later labels in 0..q-1
    def norm(w):
        return tuple(
            min(c, q) if i == 0 else min(c, q - 1) for i, c in enumerate(w)
        )

    u, v = norm(a), norm(b)
    geom = TreeGeometry(q, 5)
    index = {w: i for i, w in enumerate(enumerate_ball(geom))}
    du, dv = ball_distances(geom, u), ball_distances(geom, v)
    assert du[index[v]] == dv[index[u]]
    assert (du[index[v]] == 0) == (u == v)
    assert du[index[v]] <= (du + dv).min()  # the triangle inequality through every w
    assert du[index[ROOT]] == len(u)

"""Homogeneous tree of degree q+1: vertex addressing, distances, balls.

Vertices are words (tuples of branch labels). The root is the empty word, a
first-generation label lies in {0..q} and every later label in {0..q-1}, so a
word is a non-backtracking path from the root and the longest common prefix of
two words is their lowest common ancestor. q = 1 gives the integer line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Word = tuple[int, ...]

ROOT: Word = ()


@dataclass(frozen=True)
class TreeGeometry:
    """Degree parameter q and truncation radius of the ball around the root."""

    q: int
    radius: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")

    def sphere_size(self, k: int) -> int:
        return sphere_size(self, k)

    def ball_size(self) -> int:
        q, r = self.q, self.radius
        if q == 1:
            return 1 + 2 * r
        return 1 + (q + 1) * (q**r - 1) // (q - 1)


def validate_word(word, q: int) -> Word:
    word = tuple(int(c) for c in word)
    if word:
        if not 0 <= word[0] <= q:
            raise ValueError(f"first label {word[0]} outside 0..{q}")
        for c in word[1:]:
            if not 0 <= c <= q - 1:
                raise ValueError(f"label {c} outside 0..{q - 1}")
    return word


def sphere_size(geom: TreeGeometry, k: int) -> int:
    """|{y : d(o, y) = k}| on the truncated ball."""
    if not 0 <= k <= geom.radius:
        raise ValueError(f"k={k} outside 0..{geom.radius}")
    if k == 0:
        return 1
    return (geom.q + 1) * geom.q ** (k - 1)


def depth(word: Word) -> int:
    return len(word)


def ball_distances(geom: TreeGeometry, x) -> np.ndarray:
    """d(x, y) for every ball vertex y, in enumerate_ball's order; x may lie
    outside the ball.

    Built one level at a time: each vertex has q + 1 children at level 1 and
    q after, each one step further from x than its parent, except the one on
    the path from o to x, which is |x| - level from it.
    """
    x = validate_word(x, geom.q)
    level = np.array([len(x)], dtype=np.int64)
    out, on_path = [level], 0
    for n in range(1, geom.radius + 1):
        fan = geom.q + 1 if n == 1 else geom.q
        level = np.repeat(level + 1, fan)
        if n <= len(x):
            on_path = on_path * fan + x[n - 1]
            level[on_path] = len(x) - n
        out.append(level)
    return np.concatenate(out)


def neighbors(word: Word, q: int) -> list[Word]:
    """The q+1 neighbors of a vertex in the infinite tree."""
    word = tuple(word)
    out = []
    if word:
        out.append(word[:-1])
        out.extend(word + (c,) for c in range(q))
    else:
        out.extend(((c,) for c in range(q + 1)))
    return out


def enumerate_ball(geom: TreeGeometry) -> list[Word]:
    """All ball vertices, ordered by depth then lexicographically."""
    out: list[Word] = [ROOT]
    layer: list[Word] = [ROOT]
    for _ in range(geom.radius):
        nxt = []
        for w in layer:
            labels = range(geom.q + 1) if w == ROOT else range(geom.q)
            nxt.extend(w + (c,) for c in labels)
        nxt.sort()
        out.extend(nxt)
        layer = nxt
    return out


def cross_distance_counts(q: int, k: int, max_i: int):
    """Joint distance census against the root and a vertex x with d(o, x) = k.

    Yields (i, j, count): the number of vertices z with d(o, z) = i and
    d(x, z) = j, for i <= max_i. Every z hangs off the o-x geodesic at the
    path vertex a edges from o, at off-path distance r, so i = a + r and
    j = (k - a) + r; the branch count depends on whether the attachment point
    is an endpoint of the geodesic.
    """
    if k < 0 or max_i < 0:
        raise ValueError("negative distance")
    if k == 0:
        yield 0, 0, 1
        for r in range(1, max_i + 1):
            yield r, r, (q + 1) * q ** (r - 1)
        return
    for a in range(min(k, max_i) + 1):
        yield a, k - a, 1
        max_r = max_i - a
        interior = 0 < a < k
        for r in range(1, max_r + 1):
            if interior:
                cnt = (q - 1) * q ** (r - 1)
            else:
                cnt = q**r
            if cnt:
                yield a + r, k - a + r, cnt


"""The materialized ball, for oracles that need the whole adjacency."""

import numpy as np
from scipy import sparse

from treeheat.geometry import TreeGeometry, enumerate_ball


def ball_adjacency(geom: TreeGeometry):
    """(ordered vertices, index map, sparse adjacency) of the ball."""
    verts = enumerate_ball(geom)
    index = {w: i for i, w in enumerate(verts)}
    rows, cols = [], []
    for w, i in index.items():
        if w:
            j = index[w[:-1]]
            rows += [i, j]
            cols += [j, i]
    data = np.ones(len(rows))
    adj = sparse.csr_matrix((data, (rows, cols)), shape=(len(verts), len(verts)))
    return verts, index, adj

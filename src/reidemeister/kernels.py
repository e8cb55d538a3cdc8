"""Hot kernels: breadth-first closure under generators, the element index it
builds, and batched group-action tables.

The element index is a dict from an element's raw row-major int64 bytes to
its id.  closure fills it once; every batch lookup goes through lookup(),
scalar lookups index the dict directly.
"""

from itertools import repeat

import numpy as np

from .errors import CapacityError, IntegrityError

CHUNK = 1 << 12  # frontier elements multiplied per batched matmul; bounds peak memory


def _row_keys(mats) -> np.ndarray:
    """Index keys of a (n, d, d) stack: one np.void row of raw int64 bytes each."""
    flat = np.ascontiguousarray(mats, dtype=np.int64).reshape(len(mats), -1)
    return flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize))).ravel()


def lookup(mats, index) -> np.ndarray:
    """Element ids of a (n, d, d) stack of matrices; -1 where one is not indexed."""
    keys = _row_keys(mats).tolist()  # void rows come out as bytes
    return np.fromiter(map(index.get, keys, repeat(-1)), dtype=np.int64, count=len(keys))


def closure(gens, m, cap):
    """Breadth-first closure of the identity under right-multiplication by gens.

    gens: (k, d, d) int64 array of move matrices (already inverse-augmented).
    Returns (elements, parents, parent_gens, index) where
    elements[i] = elements[parents[i]] @ gens[parent_gens[i]] mod m,
    element 0 is the identity (parents[0] = parent_gens[0] = -1), and index
    maps each element's raw bytes to its id.

    The frontier is expanded a level at a time, in chunks.  A sequential BFS
    scans a level's products frontier-major, generator-minor, and gives a new
    element the next id and the parent of its first occurrence; taking the
    first occurrences of the unseen products in that order reproduces its
    ids, parents and parent_gens exactly.
    """
    k, d, _ = gens.shape
    gens = gens % m
    ident = np.eye(d, dtype=np.int64)
    index = {ident.tobytes(): 0}
    root = np.array([-1], dtype=np.int64)
    elements, parents, parent_gens = [ident[None]], [root], [root]
    frontier, frontier_start = elements[0], 0
    while len(frontier):
        level_start, level = len(index), []
        for lo in range(0, len(frontier), CHUNK):
            prods = (np.matmul(frontier[lo:lo + CHUNK, None], gens) % m).reshape(-1, d, d)
            keys = _row_keys(prods)
            known = np.fromiter(map(index.__contains__, keys.tolist()), dtype=bool,
                                count=len(keys))
            unseen = np.flatnonzero(~known)
            _, first = np.unique(keys[unseen], return_index=True)
            new = unseen[np.sort(first)]
            count = len(index)
            if count + len(new) > cap:
                raise CapacityError(cap, max(count, cap))
            index.update(zip(keys[new].tolist(), range(count, count + len(new))))
            level.append(prods[new])
            parents.append(frontier_start + lo + new // k)
            parent_gens.append(new % k)
        elements += level
        frontier, frontier_start = np.concatenate(level), level_start
    return (np.concatenate(elements), np.concatenate(parents),
            np.concatenate(parent_gens), index)


def action_table(elems, left, right, m, index) -> np.ndarray:
    """ids of (left @ x @ right) mod m for every x in elems.

    Raises IntegrityError naming the first x whose image is not indexed.
    """
    prods = np.matmul(np.matmul(left % m, elems) % m, right % m) % m
    ids = lookup(prods, index)
    bad = np.flatnonzero(ids < 0)
    if len(bad):
        raise IntegrityError(f"action image of element {bad[0]} is not in the group")
    return ids

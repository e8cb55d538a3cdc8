"""Hot kernels: breadth-first closure under generators, the element index and
right Cayley table it builds, batched group-action tables and orbits of
permutation moves.

The element index is a dict from an element's raw row-major int64 bytes to
its id.  closure fills it once; every batch lookup goes through lookup(),
scalar lookups index the dict directly.
"""

from itertools import repeat

import numpy as np

from .errors import CapacityError, IntegrityError

CHUNK = 1 << 12  # frontier elements multiplied per batched matmul; bounds peak memory
ID_LIMIT = np.iinfo(np.int32).max  # element ids and the Cayley table are int32


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
    Returns (elements, parents, parent_gens, index, right, levels) where
    elements[i] = elements[parents[i]] @ gens[parent_gens[i]] mod m,
    element 0 is the identity (parents[0] = parent_gens[0] = -1), index
    maps each element's raw bytes to its id, right is the (n, k) int32
    right Cayley table (right[x, c] is the id of elements[x] @ gens[c]) and
    BFS level L holds the ids levels[L] <= x < levels[L + 1].

    The frontier is expanded a level at a time, in chunks.  A sequential BFS
    scans a level's products frontier-major, generator-minor, and gives a new
    element the next id and the parent of its first occurrence; taking the
    first occurrences of the unseen products in that order reproduces its
    ids, parents and parent_gens exactly.  Each product's id goes into the
    Cayley table; a product that leads back to its factor's BFS parent
    needs no probe.  The ids are int32, so the closure stops at ID_LIMIT
    elements whatever the cap.
    """
    k, d, _ = gens.shape
    gens = gens % m
    cap = min(cap, ID_LIMIT)
    ident = np.eye(d, dtype=np.int64)
    # inv_col[c]: the column of gens[c]^-1, -1 if absent; inv_col[-1] = -1 for the root
    pairs = np.all(np.matmul(gens[:, None], gens) % m == ident, axis=(2, 3))
    inv_col = np.append(np.where(pairs.any(axis=1), pairs.argmax(axis=1), -1), -1)
    index = {ident.tobytes(): 0}
    root = np.array([-1], dtype=np.int64)
    elements, parents, parent_gens, right = [ident[None]], [root], [root], []
    frontier, frontier_start, levels = elements[0], 0, [0]
    up, up_gens = root, root  # the frontier's parents and parent_gens
    while len(frontier):
        level_start, level, pieces = len(index), [], len(parents)
        levels.append(level_start)
        for lo in range(0, len(frontier), CHUNK):
            prods = (np.matmul(frontier[lo:lo + CHUNK, None], gens) % m).reshape(-1, d, d)
            keys = _row_keys(prods)
            # x g_c^-1 is x's parent when x = parent g_c: no probe needed
            back = inv_col[up_gens[lo:lo + CHUNK]]
            rows = np.flatnonzero(back >= 0)
            ids = np.full(len(keys), -1, dtype=np.int32)
            ids[rows * k + back[rows]] = up[lo:lo + CHUNK][rows]
            probe = np.flatnonzero(ids < 0)
            ids[probe] = np.fromiter(map(index.get, keys[probe].tolist(), repeat(-1)),
                                     dtype=np.int32, count=len(probe))
            unseen = np.flatnonzero(ids < 0)
            unseen_keys = keys[unseen].tolist()
            # filled in reverse, each key keeps the last position written: its first
            first = dict(zip(reversed(unseen_keys), reversed(unseen.tolist())))
            new = np.sort(np.fromiter(first.values(), dtype=np.int64, count=len(first)))
            count = len(index)
            if count + len(new) > cap:
                raise CapacityError(cap, max(count, cap))
            new_ids = dict(zip(keys[new].tolist(), range(count, count + len(new))))
            index.update(new_ids)
            ids[unseen] = np.fromiter(map(new_ids.__getitem__, unseen_keys), dtype=np.int32,
                                      count=len(unseen_keys))
            level.append(prods[new])
            parents.append(frontier_start + lo + new // k)
            parent_gens.append(new % k)
            right.append(ids.reshape(-1, k))
        elements += level
        frontier, frontier_start = np.concatenate(level), level_start
        up = np.concatenate(parents[pieces:])
        up_gens = np.concatenate(parent_gens[pieces:])
    return (np.concatenate(elements), np.concatenate(parents),
            np.concatenate(parent_gens), index, np.concatenate(right),
            np.array(levels, dtype=np.int64))


def action_table(elems, left, right, m, index) -> np.ndarray:
    """ids of (left @ x @ right) mod m for every x in elems.

    Raises IntegrityError naming the first x whose image is not indexed.
    Built CHUNK elements at a time, which bounds the transient products
    and lookup keys.
    """
    left, right = left % m, right % m
    ids = np.concatenate([
        lookup(np.matmul(np.matmul(left, elems[lo:lo + CHUNK]) % m, right) % m, index)
        for lo in range(0, len(elems), CHUNK)])
    bad = np.flatnonzero(ids < 0)
    if len(bad):
        raise IntegrityError(f"action image of element {bad[0]} is not in the group")
    return ids


def orbits(moves, n):
    """Orbits on range(n) of the group generated by the permutations in moves.

    moves: list of (n,) id arrays, each a permutation of range(n); it need
    not be closed under inverses.  Returns (labels, count) with orbits
    numbered in the order of their least element.

    Min-label propagation with root hooking and pointer jumping
    (Shiloach-Vishkin 1982): for each move t, every x, its root label[x]
    and its image's root label[t[x]] take the least of label[x] and
    label[t[x]]; then label = label[label] runs to a fixed point, and the
    rounds stop when the labels do.  Hooking the image's root turns a cycle
    whose ids rise along the move into a chain that pointer jumping
    collapses in one round.  A label always names an element of the same
    orbit that is no larger, so at the fixed point every element is
    labelled with its orbit's least element (a permutation's cycle reaches
    back to its start, so forward moves alone connect an orbit).
    """
    label = np.arange(n, dtype=np.int64)
    while True:
        new = label.copy()
        for t in moves:
            image = label[t]
            np.minimum(new, image, out=new)
            np.minimum.at(new, label, image)
            np.minimum.at(new, image, label)
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, label):
            break
        label = new
    roots, labels = np.unique(label, return_inverse=True)
    return labels, len(roots)

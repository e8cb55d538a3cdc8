"""Hot kernels: breadth-first closure under generators, the element index and
right Cayley table it builds, chunked products looked up in the index, and
orbits of permutation moves.

The element index keys each matrix by its radix code: the row-major
entries as the digits of one number, most significant first, so codes
ascend as canonical_key does.  It keeps the sorted codes and their
argsort, the int32 ids, and lookup() finds a stack of matrices by binary search
with np.searchsorted.  Where a code reaches 2**63, the digits are packed
into big-endian uint64 words, each row's words one np.void key that
sorts, searches and compares the same way.

Elements are stored at entry_dtype(m) (one byte per entry for m <= 256),
ids and parents as int32, and every matmul is modring.matmul_mod, in the
narrowest dtype in which it is exact.  Within the row-table bound (m**d <=
ROW_CODES, m**(d*d) < 2**63) the closure multiplies by row tables built
with it instead: the rows of x g are the rows of x times g.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, StructuralError
from .modring import entry_dtype, matmul_mod

CHUNK = 1 << 12  # frontier elements multiplied per batched matmul; bounds peak memory
ID_LIMIT = np.iinfo(np.int32).max  # element ids and the Cayley table are int32
ROW_CODES = 1 << 16  # row codes a uint16 row table holds (closure's table bound)


def _codes(flat, m) -> np.ndarray:
    """Radix codes of the rows of an (n, D) integer array with entries in [0, m);
    they ascend as the rows' canonical_key does.

    Each entry is one digit, most significant first: the entry in base m
    for m <= 256, else its entry_dtype(m) bytes read big-endian (canonical_key
    stores them little-endian).  Digits are packed `per` at a time into int64
    words, base**per < 2**63, by Horner's rule over the digit columns.  One
    word is the code itself.  Several are stored big-endian and each row's
    words viewed as one np.void key, which compares bytewise as the words
    do, first word first.
    """
    n, width = flat.shape
    if m > 256:
        flat = flat.astype(entry_dtype(m)).byteswap()
    base = 256**flat.itemsize if m > 256 else m
    per = 1
    while per < width and base ** (per + 1) < 2**63:
        per += 1
    words = -(-width // per)
    if words * per > width:
        flat = np.pad(flat, ((0, 0), (0, words * per - width)))
    code = np.zeros(n * words, dtype=np.int64)
    for digit in flat.reshape(n * words, per).T:
        code *= base
        code += digit
    if words == 1:
        return code
    return code.astype(">u8").view(np.dtype((np.void, 8 * words)))


@dataclass(frozen=True)
class Index:
    """The element index of a group of dim x dim matrices over Z_m: keys
    holds every element's radix code in ascending order, ids[i] the int32
    id of keys[i], so ids lists the elements by ascending canonical_key.
    Both arrays are read-only."""

    m: int
    dim: int
    keys: np.ndarray
    ids: np.ndarray


def build_index(elements, m) -> Index:
    """The Index of a (n, d, d) stack of distinct reduced matrices; id i is row i."""
    n, d, _ = elements.shape
    keys = _codes(elements.reshape(n, d * d), m)
    ids = np.argsort(keys).astype(np.int32)
    keys = keys[ids]
    keys.flags.writeable = ids.flags.writeable = False
    return Index(m, d, keys, ids)


def _search(keys, ids, needles) -> np.ndarray:
    """ids of the needles among the sorted keys (ids[i] is keys[i]'s); -1 where absent."""
    if not len(keys):
        return np.full(len(needles), -1, dtype=np.int32)
    pos = np.searchsorted(keys, needles)
    np.minimum(pos, len(keys) - 1, out=pos)
    return np.where(keys[pos] == needles, ids[pos], -1)


def lookup(mats, index) -> np.ndarray:
    """Element ids of a (n, d, d) stack of matrices; -1 where one is not an
    element, including any matrix with an entry outside [0, m), which the
    index does not hold (a radix code would carry it into the next digit)."""
    mats = np.asarray(mats)
    d, m = index.dim, index.m
    if mats.shape[1:] != (d, d):
        return np.full(len(mats), -1, dtype=np.int32)
    flat = mats.reshape(len(mats), d * d)
    ids = _search(index.keys, index.ids, _codes(flat, m))
    ids[~((flat >= 0) & (flat < m)).all(axis=1)] = -1
    return ids


def _row_tables(gens, m):
    """(table, digits) for right multiplication by the (k, d, d) gens one row
    at a time, or (None, None) past the bound.  A row's code is its d entries
    in base m, most significant first; digits[r] is the row with code r, at
    entry_dtype(m), and table[c, r] the uint16 code of digits[r] @ gens[c]
    mod m.  The bound: every row code below ROW_CODES, and every element's
    code, its row codes in base m**d, below 2**63, one int64 word."""
    k, d, _ = gens.shape
    if m**d > ROW_CODES or m ** (d * d) >= 2**63:
        return None, None
    place = m ** np.arange(d - 1, -1, -1)
    digits = (np.arange(m**d)[:, None] // place % m).astype(entry_dtype(m))
    return (matmul_mod(m, digits, gens) @ place).astype(np.uint16), digits


def closure(gens, m, cap):
    """Breadth-first closure of the identity under right-multiplication by gens.

    gens: (k, d, d) int64 array of move matrices, closed under inverses.
    Returns (elements, parents, parent_gens, index, right, levels) where
    elements[i] = elements[parents[i]] @ gens[parent_gens[i]] mod m,
    element 0 is the identity (parents[0] = parent_gens[0] = -1), index is
    the elements' Index, right is the (n, k) int32 right Cayley table
    (right[x, c] is the id of elements[x] @ gens[c]) and BFS level L holds
    the ids levels[L] <= x < levels[L + 1].  elements are entry_dtype(m),
    parents int32 and parent_gens the narrowest signed dtype holding k.

    The frontier is expanded a level at a time.  Right multiplication acts
    on each row alone, (x g)_i = x_i g (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 2005), so within _row_tables' bound the
    frontier is held as its elements' row codes x_i: the code of x g_c is
    sum_i table[c, x_i] (m**d)**(d - 1 - i), d gathers, the next frontier's
    rows are gathered from the table, and the elements are decoded once at
    the end.  Past the bound the frontier is held as matrices, and each
    level's products are taken by matmul_mod and coded by _codes, CHUNK
    frontier elements at a time; the rest of the level loop is shared.

    The generators are closed under inverses, so a product x g of a level-L
    element lies in level L - 1, L or L + 1: each level's codes are sorted
    once and searched among the sorted codes of levels L - 1 and L only
    (frontier search; Korf, Zhang, Thayer and Hohwald, J. ACM 52, 2005).
    The misses are the new elements, and equal codes among them form runs.
    A sequential BFS scans a level's products frontier-major,
    generator-minor, and gives a new element the next id and the parent of
    its first occurrence; ranking each run's least scan position reproduces
    its ids, parents and parent_gens exactly.  A product that leads back to
    its factor's BFS parent needs no search.  The ids are int32, so the
    closure stops at ID_LIMIT elements whatever the cap.
    """
    k, d, _ = gens.shape
    store, gen_dtype = np.dtype(entry_dtype(m)), np.min_scalar_type(-k)
    gens = (gens % m).astype(store)  # the frontier recompute gathers its rows
    cap = min(cap, ID_LIMIT)
    ident = np.eye(d, dtype=store)
    # inv_col[c]: the column of gens[c]^-1; inv_col[-1] = -1 for the root
    pairs = np.all(matmul_mod(m, gens[:, None], gens) == ident, axis=(2, 3))
    if not pairs.any(axis=1).all():
        raise StructuralError("closure needs a generator set closed under inverses")
    inv_col = np.append(pairs.argmax(axis=1), -1)
    table, digits = _row_tables(gens, m)
    # the frontier, as its elements or as their row codes, and the identity's code
    if table is None:
        frontier, code = ident[None], _codes(ident.reshape(1, -1), m)
    else:
        frontier = (m ** np.arange(d - 1, -1, -1)).astype(np.uint16)[None]  # e_i: m**(d-1-i)
        code = frontier.astype(np.int64) @ (m**d) ** np.arange(d - 1, -1, -1)
    root, root_gen = np.array([-1], dtype=np.int32), np.array([-1], dtype=gen_dtype)
    elements, parents, parent_gens, right = [frontier], [root], [root_gen], []
    # the sorted codes of levels L - 1 and L, and their ids
    cur = (code, np.zeros(1, dtype=np.int32))
    prev = (cur[0][:0], cur[1][:0])
    frontier_start, count, levels = 0, 1, [0]
    up, up_gens = root, root_gen  # the frontier's parents and parent_gens
    while len(frontier):
        levels.append(count)
        ids = np.full(len(frontier) * k, -1, dtype=np.int32)
        # x g_c^-1 is x's parent when x = parent g_c: no search needed
        back = inv_col[up_gens]
        rows = np.flatnonzero(back >= 0)
        ids[rows * k + back[rows]] = up[rows]
        # scan positions x k + c of the products x g_c left to search
        at = np.flatnonzero(ids < 0).astype(np.int32 if len(ids) <= ID_LIMIT else np.int64)
        if table is None:
            needles = np.concatenate([
                _codes(matmul_mod(m, frontier[lo:lo + CHUNK, None], gens).reshape(-1, d * d), m)
                for lo in range(0, len(frontier), CHUNK)])[at]
        else:
            needles = np.zeros((len(frontier), k), dtype=np.int64)
            for i in range(d):  # Horner's rule over the products' row codes
                needles *= m**d
                needles += table.T[frontier[:, i]]
            needles = needles.reshape(-1)[at]
        order = np.argsort(needles)
        needles, at = needles[order], at[order]
        del order
        found = _search(*prev, needles)
        miss = found < 0
        found[miss] = _search(*cur, needles[miss])
        miss = np.flatnonzero(found < 0)
        fresh = needles[miss]
        starts = np.ones(len(fresh), dtype=bool)
        starts[1:] = fresh[1:] != fresh[:-1]
        run = np.flatnonzero(starts)
        first = np.minimum.reduceat(at[miss], run)
        if count + len(first) > cap:
            raise CapacityError(cap, max(count, cap))
        rank = np.argsort(first)  # the new elements in sequential BFS order
        new_ids = np.empty(len(first), dtype=np.int32)
        new_ids[rank] = np.arange(count, count + len(first))
        found[miss] = np.repeat(new_ids, np.diff(np.append(run, len(miss))))
        ids[at] = found
        right.append(ids.reshape(-1, k))
        prev, cur = cur, (fresh[run], new_ids)
        del needles, at, found, miss, fresh, starts, run  # before the next level allocates
        x, c = np.divmod(first[rank], k)
        if table is None:
            frontier = matmul_mod(m, frontier[x], gens[c]).astype(store)
        else:
            frontier = table[c[:, None], frontier[x]]
        up, up_gens = (frontier_start + x).astype(np.int32), c.astype(gen_dtype)
        elements.append(frontier)
        parents.append(up)
        parent_gens.append(up_gens)
        frontier_start, count = count, count + len(first)
    elements = np.concatenate(elements)
    if table is not None:
        elements = digits[elements]
    return (elements, np.concatenate(parents), np.concatenate(parent_gens),
            build_index(elements, m), np.concatenate(right),
            np.array(levels, dtype=np.int64))


def product_ids(index, *factors) -> np.ndarray:
    """ids of the products over Z_m of the factors, by matmul_mod and lookup
    CHUNK rows at a time; -1 where a product is not an element.  Each factor
    is a (n, d, d) stack, all of one length n, or a single (d, d) matrix that
    multiplies every row; entries lie in [0, m).  The right Cayley table is
    never read, so the oracles built on this stay disjoint from the gathers."""
    n = next(len(f) for f in factors if f.ndim == 3)
    if not n:
        return np.empty(0, dtype=np.int32)
    return np.concatenate([
        lookup(matmul_mod(index.m, *(f[lo:lo + CHUNK] if f.ndim == 3 else f
                                     for f in factors)), index)
        for lo in range(0, n, CHUNK)])


def orbits(moves, n):
    """Orbits on range(n) of the group generated by the permutations in moves.

    moves: list of (n,) id arrays, each a permutation of range(n); it need
    not be closed under inverses.  Returns (labels, count): int32 labels,
    the orbits numbered in the order of their least element.

    Min-label propagation with root hooking and pointer jumping
    (Shiloach-Vishkin 1982): for each move t, the roots label[x] and
    label[t[x]] of every x and its image take the least of the two; then
    label = label[label] runs to a fixed point, which lowers x to its root's
    label, and the rounds stop when the labels do.  Hooking the image's
    root turns a cycle whose ids rise along the move into a chain that
    pointer jumping collapses in one round.  A label always names an
    element of the same orbit that is no larger, so at the fixed point
    every element is labelled with its orbit's least element (a
    permutation's cycle reaches back to its start, so forward moves alone
    connect an orbit).
    """
    label = np.arange(n, dtype=np.int32)
    while True:
        new = label.copy()
        for t in moves:
            image = label[t]
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
    roots = np.flatnonzero(label == np.arange(n, dtype=np.int32))  # ascending
    number = np.empty(n, dtype=np.int32)
    number[roots] = np.arange(len(roots), dtype=np.int32)
    return number[label], len(roots)

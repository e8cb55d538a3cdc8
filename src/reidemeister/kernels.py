"""Hot kernels: breadth-first closure under generators, the element index and
the (k, |G|) right Cayley table it builds, chunked products looked up in the
index, gather(): the one gather of a table by ids (unbuffered where they are
in range), and permutation orbits, by rounds until every move fixes them.

The element index keys each matrix by its radix code: the row-major
entries as the digits of one number, most significant first, so codes
ascend as canonical_key does.  It keeps the sorted codes and, in the same
order, the int32 ids.  product_ids() looks up a stack of products, a
stack of matrices being a product of one factor, coded inside matmul_mod's
GEMM blocks where that route applies: it sorts |G| codes (an action table)
once and compares them with the keys whole, and finds any other stack by
np.searchsorted.  Where a code reaches 2**63, digits are
packed into big-endian uint64 words, each row's words one np.void key that
sorts, searches and compares the same way.  _sort_tagged sorts them all,
one value sort of code << b | position where that fits uint64.

Elements are stored at entry_dtype(m) (one byte per entry for m <= 256),
ids and parents as int32, and every matmul is modring.matmul_mod, in the
narrowest dtype in which it is exact (a stack by fixed matrices as an exact
float64 GEMM).  Within the row-table bound (m**d <= ROW_CODES, m**(d*d) <
2**63) the closure multiplies by row tables built with it instead: the
rows of x g are the rows of x times g, each read by take along axis 0; the
levels it deduplicates against are kept in code order, ids beside them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, StructuralError
from .modring import entry_dtype, gemm_codes, matmul_mod

CHUNK = 1 << 12  # rows per batched matmul and needles per search; bounds peak memory
ID_LIMIT = np.iinfo(np.int32).max  # element ids and the Cayley table are int32
ROW_CODES = 1 << 16  # row codes a uint16 row table holds (closure's table bound)
GATHER_BLOCK = 1 << 16  # ids per np.take in gather(); take copies them to intp


def _place(m, width) -> list:
    """The weights m**(width - 1 - j) of a code's digits j, as Python ints."""
    return [m ** (width - 1 - j) for j in range(width)]


def _codes(flat, m) -> np.ndarray:
    """Radix codes of the rows of an (n, D) integer array with entries in [0, m);
    they ascend as the rows' canonical_key does.

    Each entry is one digit, most significant first: the entry in base m
    for m <= 256, else its entry_dtype(m) bytes read big-endian (canonical_key
    stores them little-endian).  Digits are packed `per` at a time into int64
    words, base**per < 2**63, by Horner's rule over the digit columns.  One
    word is the code itself.  Several are stored big-endian and each row's
    words viewed as one np.void key, which compares bytewise as the words
    do, first word first.  A stack of at most CHUNK rows that fits one word,
    m <= 256, is coded by one integer matmul by _place's weights instead:
    Horner's rule costs two ufunc calls per digit column, the matmul more
    per row.
    """
    n, width = flat.shape
    if m <= 256 and n <= CHUNK and m**width < 2**63:  # one word: one integer matmul
        return flat.astype(np.int64) @ np.array(_place(m, width), dtype=np.int64)
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


def _tag_bits(n, top):
    """b = (n - 1).bit_length() if code << b | position fits uint64 for codes <= top, else None."""
    return (n - 1).bit_length() if top < 1 << (64 - (n - 1).bit_length()) else None


def _sort_tagged(codes):
    """(sorted, tags): the codes in ascending order, equal codes by position,
    and tags[j] the position of sorted[j], as np.argsort(codes, kind="stable")
    orders them.  Non-negative int64 codes are packed into uint64 as
    code << b | position, b from _tag_bits, sorted by value in place and
    unpacked by a mask and a shift: codes is overwritten and returned sorted,
    and tags are int32 up to ID_LIMIT codes.  np.void codes and larger ones
    take the stable argsort."""
    n = len(codes)
    if codes.dtype != np.int64 or not n or (b := _tag_bits(n, int(codes.max()))) is None:
        tags = np.argsort(codes, kind="stable")
        return codes[tags], tags
    tags = np.arange(n, dtype=np.int32 if n <= ID_LIMIT else np.int64)  # unpacked in place
    packed = codes.view(np.uint64)
    packed <<= b
    np.bitwise_or(packed, tags, out=packed, dtype=np.uint64, casting="unsafe")
    packed.sort()
    np.bitwise_and(packed, (1 << b) - 1, out=tags, casting="unsafe")
    packed >>= b
    return codes, tags


def first_index(labels, n) -> np.ndarray:
    """For each label c in range(n), the least i with labels[i] == c, or
    len(labels) where no label is c: one np.minimum.at pass, int32 as ids are."""
    first = np.full(n, len(labels), dtype=np.int32)
    np.minimum.at(first, labels, np.arange(len(labels), dtype=np.int32))
    return first


def build_index(elements, m) -> Index:
    """The Index of a (n, d, d) stack of distinct reduced matrices; id i is row i."""
    n, d, _ = elements.shape
    keys, ids = _sort_tagged(_codes(elements.reshape(n, d * d), m))
    ids = ids.astype(np.int32, copy=False)
    keys.flags.writeable = ids.flags.writeable = False
    return Index(m, d, keys, ids)


def _search(keys, ids, needles) -> np.ndarray:
    """ids of the needles in the sorted keys (ids[i] is keys[i]'s), by CHUNKs; -1 if absent."""
    out = np.full(len(needles), -1, dtype=np.int32)
    for lo in range(0, len(needles) if len(keys) else 0, CHUNK):
        part = needles[lo:lo + CHUNK]
        pos = np.minimum(np.searchsorted(keys, part), len(keys) - 1)
        out[lo:lo + CHUNK] = np.where(keys[pos] == part, ids[pos], -1)
    return out


def _row_tables(gens, m):
    """(table, digits) for right multiplication by the (k, d, d) gens one row
    at a time, or (None, None) past the bound.  A row's code is its d entries
    in base m, most significant first; digits[r] is the row with code r, at
    entry_dtype(m), and table[r, c] the uint16 code of digits[r] @ gens[c]
    mod m, a C-contiguous (m**d, k) table whose rows take reads whole.  The
    bound: every row code below ROW_CODES, and every element's code, its row
    codes in base m**d, below 2**63, one int64 word."""
    k, d, _ = gens.shape
    if m**d > ROW_CODES or m ** (d * d) >= 2**63:
        return None, None
    place = m ** np.arange(d - 1, -1, -1)
    digits = (np.arange(m**d)[:, None] // place % m).astype(entry_dtype(m))
    return np.ascontiguousarray((matmul_mod(m, digits, gens) @ place).T, dtype=np.uint16), digits


def closure(gens, m, cap):
    """Breadth-first closure of the identity under right-multiplication by gens.

    gens: (k, d, d) int64 array of move matrices, closed under inverses.
    Returns (elements, parents, parent_gens, index, right, levels) where
    elements[i] = elements[parents[i]] @ gens[parent_gens[i]] mod m,
    element 0 is the identity (parents[0] = parent_gens[0] = -1), index is
    the elements' Index, right the C-contiguous (k, n) right Cayley table
    (right[c, x] the id of elements[x] @ gens[c]) and BFS level L holds the
    ids levels[L] <= x < levels[L + 1].  elements are entry_dtype(m), right
    and parents int32, parent_gens the narrowest signed dtype holding k.

    The frontier is expanded a level at a time.  Right multiplication acts
    on each row alone, (x g)_i = x_i g (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 2005), so within _row_tables' bound the
    frontier is held as its elements' row codes x_i: the code of x g_c is
    sum_i table[x_i, c] (m**d)**(d - 1 - i), d takes of table rows along
    axis 0 (whole rows, where fancy indexing copies entry by entry), the
    next frontier's row codes one take from the flat table, and the elements
    are decoded a level at a time at the end.  Past the bound the frontier
    is held as matrices, and each level's products are taken by matmul_mod
    and coded by _codes, CHUNK frontier elements at a time; the rest of the
    level loop is shared.

    The generators are closed under inverses, so a product x g of a level-L
    element lies in level L - 1, L or L + 1: each level's product codes are
    deduplicated against the codes of levels L - 1 and L only (frontier
    search; Korf, Zhang, Thayer and Hohwald, J. ACM 52, 2005), by one sort.
    The pool holds those levels' codes, each level in code order with its
    ids kept beside it, tagged 0, 1, ..., then the products x g_c in
    sequential BFS scan order, frontier-major and generator-minor, tagged
    on; _sort_tagged orders it by code, ties by tag.
    The two levels are disjoint, so a run of equal codes holds at most one
    old element, first, and the run's head is either that element or the
    product of least scan position, which a sequential BFS would give the
    next id and take as the new element's parent.  Every old element heads
    its run and keeps its id; the other heads' tags, sorted, are the new
    elements in BFS order, numbered on from count (by code, the next level's
    codes and ids).  A cumsum of the run heads numbers each sorted position's
    run, and one gather() and one scatter by the tags give every pool
    position its run's id: the products' ids, transposed, are the level's
    columns of right.  The ids are int32, so the closure stops at ID_LIMIT
    elements whatever the cap.
    """
    k, d, _ = gens.shape
    store, gen_dtype = np.dtype(entry_dtype(m)), np.min_scalar_type(-k)
    gens = (gens % m).astype(store)  # the frontier recompute gathers its rows
    cap = min(cap, ID_LIMIT)
    ident = np.eye(d, dtype=store)
    if not np.all(matmul_mod(m, gens[:, None], gens) == ident, axis=(2, 3)).any(axis=1).all():
        raise StructuralError("closure needs a generator set closed under inverses")
    table, digits = _row_tables(gens, m)
    # the frontier, as its elements or as their row codes, and the identity's code
    if table is None:
        frontier, code = ident[None], _codes(ident.reshape(1, -1), m)
    else:
        frontier = (m ** np.arange(d - 1, -1, -1)).astype(np.uint16)[None]  # e_i: m**(d-1-i)
        code = frontier.astype(np.int64) @ (m**d) ** np.arange(d - 1, -1, -1)
    root, root_gen = np.array([-1], dtype=np.int32), np.array([-1], dtype=gen_dtype)
    elements, parents, parent_gens, right = [frontier], [root], [root_gen], []
    prev, cur = code[:0], code  # the codes of levels L - 1 and L, each in code order
    prev_ids, cur_ids = root[:0], np.zeros(1, dtype=np.int32)  # and their ids, beside them
    frontier_start, count, levels = 0, 1, [0]
    while len(frontier):
        levels.append(count)
        n_old = len(prev) + len(cur)  # levels L - 1 and L: ids count - n_old <= x < count
        pool = np.empty(n_old + len(frontier) * k, dtype=cur.dtype)
        pool[:len(prev)], pool[len(prev):n_old] = prev, cur
        if table is None:
            np.concatenate([
                _codes(matmul_mod(m, frontier[lo:lo + CHUNK, None], gens).reshape(-1, d * d), m)
                for lo in range(0, len(frontier), CHUNK)], out=pool[n_old:])
        else:
            products = pool[n_old:].reshape(len(frontier), k)
            products[...] = table.take(frontier[:, 0], axis=0)
            for i in range(1, d):  # Horner's rule over the products' row codes
                products *= m**d
                products += table.take(frontier[:, i], axis=0)
            del products
        codes, tags = _sort_tagged(pool)
        del pool
        head = np.ones(len(codes), dtype=bool)  # the first position of each run of equal codes
        head[1:] = codes[1:] != codes[:-1]
        start = np.flatnonzero(head)
        lead = tags.take(start)  # each run's old element or least scan position
        if count + len(start) - n_old > cap:
            raise CapacityError(cap, max(count, cap))
        new = np.flatnonzero(lead >= n_old)  # the runs of new elements, by code
        fresh_codes = codes.take(start.take(new))
        del codes, start
        scan = np.sort(lead.take(new))  # the new elements' pool positions, in BFS order
        ids = np.empty(len(tags), dtype=np.int32)  # the ids of the old elements and new leads
        ids[:len(prev)], ids[len(prev):n_old] = prev_ids, cur_ids
        ids[scan] = np.arange(count, count + len(scan), dtype=np.int32)
        run_ids = gather(ids, lead)
        prev, cur, prev_ids, cur_ids = cur, fresh_codes, cur_ids, run_ids.take(new)
        del lead, new
        head[0] = False  # so the cumsum numbers each sorted position's run from 0
        ids[tags] = gather(run_ids, np.cumsum(head, dtype=np.int32, out=ids))  # by pool position
        right.append(ids[n_old:].reshape(-1, k).T.copy())
        x, c = np.divmod(scan - n_old, k)  # new elements, in BFS order
        del head, tags, run_ids, ids, scan  # before the next level allocates
        if table is None:
            frontier = matmul_mod(m, frontier.take(x, axis=0), gens.take(c, axis=0)).astype(store)
        else:
            frontier = table.ravel().take(frontier.take(x, axis=0) * np.intp(k) + c[:, None])
        up, up_gens = (frontier_start + x).astype(np.int32), c.astype(gen_dtype)
        elements.append(frontier)
        parents.append(up)
        parent_gens.append(up_gens)
        frontier_start, count = count, count + len(x)
    right = np.concatenate(right, axis=1)  # before build_index allocates
    if table is not None:  # a level at a time, so take's intp copy of the codes is one level long
        elements = [digits.take(f, axis=0) for f in elements]
    elements = np.concatenate(elements)
    return (elements, np.concatenate(parents), np.concatenate(parent_gens),
            build_index(elements, m), right, np.array(levels, dtype=np.int64))


def product_ids(index, *factors) -> np.ndarray:
    """ids of the products over Z_m of the factors by their radix codes; -1
    where a product is not an element.  Each factor is a (n, d, d) stack, all
    of one length n, or a single (d, d) matrix that multiplies every row;
    entries lie in [0, m).  One stack between single matrices, m <= 256 and
    m**(d*d) <= 2**53, is coded by modring.gemm_codes with _place's weights:
    matmul_mod's float64 GEMM sums each block's codes, the ones _codes would
    give.  Every other product is matmul_mod's, coded by _codes, CHUNK rows at
    a time; one stack alone is looked up as it is.  A stack of |G| rows whose
    sorted codes are index.keys (an action table) gets index.ids by
    _sort_tagged's tags, a merge with no binary search (Knuth, TAOCP 5.3.2);
    the rest take _search.  The right Cayley table is never read, so the
    oracles built on this stay disjoint from the gathers."""
    n = next(len(f) for f in factors if f.ndim == 3)
    keys, m, d = index.keys, index.m, index.dim
    codes = gemm_codes(m, _place(m, d * d), *factors) if m <= 256 else None
    if codes is None:
        codes = np.empty(n, dtype=keys.dtype)
        for lo in range(0, n, CHUNK):
            codes[lo:lo + CHUNK] = _codes(matmul_mod(m, *(f[lo:lo + CHUNK] if f.ndim == 3 else f
                                                          for f in factors)).reshape(-1, d * d), m)
    if n != len(keys):
        return _search(keys, index.ids, codes)
    codes, tags = _sort_tagged(codes)
    ids = np.empty(n, dtype=np.int32)
    ids[tags] = index.ids if np.array_equal(codes, keys) else _search(keys, index.ids, codes)
    return ids


def gather(src, idx, out=None) -> np.ndarray:
    """src[idx] for a 1-D contiguous src, in src's dtype, or IndexError: one
    np.take up to GATHER_BLOCK ids, else np.take a block at a time (the intp
    copy of int32 ids stays one block long), mode="clip" where the min and
    max put every id in range, unbuffered, else "raise", which buffers; into
    out (len(idx) long, src's dtype, not src) if given and idx is not one block."""
    if len(idx) <= GATHER_BLOCK:
        return np.take(src, idx)
    mode = "clip" if idx.min() >= 0 and idx.max() < len(src) else "raise"
    out = np.empty(len(idx), dtype=src.dtype) if out is None else out
    for lo in range(0, len(idx), GATHER_BLOCK):
        np.take(src, idx[lo:lo + GATHER_BLOCK], out=out[lo:lo + GATHER_BLOCK], mode=mode)
    return out


def orbits(moves, n):
    """Orbits on range(n) of the group generated by the permutations in moves.

    moves: list of (n,) id arrays, each a permutation of range(n); it need
    not be closed under inverses.  Returns (labels, count): int32 labels,
    the orbits numbered in the order of their least element.

    Min-label propagation with root hooking and pointer jumping
    (Shiloach-Vishkin 1982).  A round gathers label[t] for each move t in
    turn; where t changes a label it hooks every edge once, in place: the
    entry at the greater of label[x] and label[t[x]] goes down to the lesser
    (the entry at the lesser could only go up, as label[j] <= j), so a cycle
    whose ids rise along t becomes a chain.  Then label = label[label] twice.
    Rounds allocate nothing n long: they gather into two buffers, the move
    image and its low side, the jumps alternate label and the image's, and
    image is compared with label a GATHER_BLOCK at a time, up to the first
    block that differs.

    Termination: a label names an element of the same orbit, no larger than
    its index; hooking and jumping keep that.  The rounds stop, with no
    verification round, at the first whose gathers show label[t[x]] ==
    label[x] for every move: each orbit (a permutation's cycle reaches back
    to its start, so forward moves alone connect it) then carries one label,
    an element no larger than its least id, hence that id.
    """
    label = np.arange(n, dtype=np.int32)
    image, low = np.empty_like(label), np.empty_like(label)
    while True:
        hooked = False
        for t in moves:
            image = gather(label, t, out=image)
            if not all(np.array_equal(image[lo:lo + GATHER_BLOCK], label[lo:lo + GATHER_BLOCK])
                       for lo in range(0, n, GATHER_BLOCK)):
                np.minimum(label, image, out=low)
                np.minimum.at(label, np.maximum(label, image, out=image), low)
                hooked = True
        if not hooked:
            break
        label, image = gather(label, label, out=image), label
        label, image = gather(label, label, out=image), label
    del image  # before the numbering allocates
    roots = np.flatnonzero(label == np.arange(n, dtype=np.int32))  # ascending
    low[roots] = np.arange(len(roots), dtype=np.int32)  # each root's orbit number
    return low[label], len(roots)

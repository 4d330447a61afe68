"""Independent brute-force oracles used by the tests.

Everything here recomputes expected values from first principles with
plain loops (or one einsum), without touching the library's contraction
or search code paths.
"""

from functools import lru_cache

import numpy as np


def outer_loops(a, b):
    """Outer product by explicit loops over all index pairs."""
    out = np.zeros(a.shape + b.shape, dtype=np.result_type(a, b))
    for ia in np.ndindex(*a.shape):
        for ib in np.ndindex(*b.shape):
            out[ia + ib] = a[ia] * b[ib]
    return out


def contract_loops(arr, i, j):
    """Contract axes i and j of one array with an explicit index sum."""
    keep = [k for k in range(arr.ndim) if k not in (i, j)]
    out = np.zeros(tuple(arr.shape[k] for k in keep), dtype=arr.dtype)
    for idx in np.ndindex(*arr.shape):
        if idx[i] != idx[j]:
            continue
        out[tuple(idx[k] for k in keep)] += arr[idx]
    return out


def network_loops(arrays, indices, open_axes):
    """Evaluate a tensor network by brute-force enumeration.

    ``indices[n]`` labels the axes of ``arrays[n]``; axes with one label
    take one value.  ``open_axes`` are the ordered surviving (node, axis)
    pairs.  Sums over every joint assignment of the labels; exponential,
    for small fixtures only.
    """
    dims = {}
    for arr, labs in zip(arrays, indices):
        dims.update(zip(labs, arr.shape))
    labels = sorted(dims)
    out = np.zeros([arrays[n].shape[a] for n, a in open_axes])
    for assignment in np.ndindex(*[dims[l] for l in labels]):
        value = dict(zip(labels, assignment))
        term = 1.0
        for arr, labs in zip(arrays, indices):
            term *= float(arr[tuple(value[l] for l in labs)])
        out[tuple(value[indices[n][a]] for n, a in open_axes)] += term
    return out


def rewrite_link_sets(flat_sigs, target_sigs):
    """All reductions of a type row, by adjacent-pair rewriting.

    A reduction repeatedly deletes an adjacent pair ``(b, z), (b, z+1)``;
    a link set is collected whenever the survivors spell the target.
    Returns a frozenset of frozensets of original-index pairs.
    """
    flat_sigs = tuple(flat_sigs)
    target_sigs = tuple(target_sigs)

    @lru_cache(maxsize=None)
    def go(remaining):
        out = set()
        if tuple(flat_sigs[i] for i in remaining) == target_sigs:
            out.add(frozenset())
        for a in range(len(remaining) - 1):
            i, j = remaining[a], remaining[a + 1]
            (bi, zi), (bj, zj) = flat_sigs[i], flat_sigs[j]
            if bi == bj and zj == zi + 1:
                for link_set in go(remaining[:a] + remaining[a + 2:]):
                    out.add(link_set | {(i, j)})
        return frozenset(out)

    return go(tuple(range(len(flat_sigs))))


def _derivation_search(flat, target):
    """Yield sorted link lists by backtracking over the walk's moves.

    The reference for ``pregroup.reduce`` and ``enumerate_reductions``:
    walks the flattened row left to right keeping a stack of open link
    ends.  At each position the choices are tried in the order: close the
    top of the stack, open a new link, survive as residual (stack must be
    empty).  That order makes the first yield the canonical derivation.
    States proven hopeless are memoised by (position, open types, progress
    into the target).  Exponential on coordination chains, and recursive,
    so for short rows only.
    """
    n = len(flat)
    t_sig = tuple((s.base, s.z) for s in target)
    t_len = len(t_sig)
    # For the "open" move to be worth trying, a matching closer must exist
    # somewhere to the right.
    closer_after = {}
    for p in range(n - 1, -1, -1):
        closer_after[(flat[p].base, flat[p].z, p)] = any(
            flat[q].base == flat[p].base and flat[q].z == flat[p].z + 1
            for q in range(p + 1, n))
    dead = set()
    stack: list[int] = []
    links: list[tuple[int, int]] = []

    def walk(p, tpos):
        if p == n:
            if not stack and tpos == t_len:
                yield tuple(sorted(links))
            return
        remaining = n - p
        needed = len(stack) + (t_len - tpos)
        if remaining < needed or (remaining - needed) % 2:
            return
        key = (p, tuple((flat[s].base, flat[s].z) for s in stack), tpos)
        if key in dead:
            return
        s = flat[p]
        fruitful = False
        if stack:
            top = flat[stack[-1]]
            if top.base == s.base and s.z == top.z + 1:
                opened = stack.pop()
                links.append((opened, p))
                for d in walk(p + 1, tpos):
                    fruitful = True
                    yield d
                links.pop()
                stack.append(opened)
        if closer_after[(s.base, s.z, p)]:
            stack.append(p)
            for d in walk(p + 1, tpos):
                fruitful = True
                yield d
            stack.pop()
        if not stack and tpos < t_len and (s.base, s.z) == t_sig[tpos]:
            for d in walk(p + 1, tpos + 1):
                fruitful = True
                yield d
        if not fruitful:
            dead.add(key)

    yield from walk(0, 0)


def coordinator_caps_and_merge(dims):
    """The coordinator array from its cap-then-merge definition.

    Builds the two lifted caps by their nesting rule (outer blocks
    reversed), then merges the facing middle groups factor-wise, all with
    explicit loops.  Axis layout: reversed right block, middle block,
    reversed left block.
    """
    dims = tuple(dims)
    rev = tuple(reversed(dims))
    cap_r = np.zeros(rev + dims)
    cap_l = np.zeros(dims + rev)
    for m in np.ndindex(*dims):
        cap_r[tuple(reversed(m)) + m] = 1.0
        cap_l[m + tuple(reversed(m))] = 1.0
    out = np.zeros(rev + dims + rev)
    for r in np.ndindex(*rev):
        for m in np.ndindex(*dims):
            for l in np.ndindex(*rev):
                out[r + m + l] = cap_r[r + m] * cap_l[m + l]
    return out


def vp_coordinator_expanded(dn, ds):
    """The verb-phrase coordinator from its fully expanded composition.

    Stage one lays down the two caps, stage two inserts the inner caps
    around a wire swap, stage three merges the facing pairs.  Contracted
    with one einsum over the explicit stage tensors.
    """
    cap_n, cap_s = np.eye(dn), np.eye(ds)
    mu_n = np.zeros((dn, dn, dn))
    for i in range(dn):
        mu_n[i, i, i] = 1.0
    mu_s = np.zeros((ds, ds, ds))
    for i in range(ds):
        mu_s[i, i, i] = 1.0
    # Axes: a=S^r, b=S, c=N^r, d=N from the outer caps; (e, f) and (g, h)
    # are the inserted caps; k and m are the merged N^r and S outputs.
    return np.einsum("ab,cd,ef,gh,fck,bgm->aekmhd",
                     cap_s, cap_n, cap_n, cap_s, mu_n, mu_s)

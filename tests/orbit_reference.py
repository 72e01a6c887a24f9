"""One-element-at-a-time references for the batched orbit code: a
breadth-first closure over dictionary keys, orbits found by closing one
seed at a time, and the general-position census by a stabilizer search over
every element of the Weyl centralizer.  They are the routines the package
used before every orbit became an `orbit_labels` call over permutation
arrays."""

import itertools


def closure(start, expand):
    """Breadth-first closure of `start`: `expand(level)` yields the images of
    one BFS level in a fixed order.  Returns the elements in discovery order
    and their index."""
    elements = [start]
    index = {start: 0}
    done = 0
    while done < len(elements):
        level = elements[done:]
        done = len(elements)
        for y in expand(level):
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
    return elements, index


def orbit_partition(size, expand, element=lambda i: i, index=lambda x: x):
    """Partition an indexed set of `size` elements into orbits, each the
    `closure` under `expand` of the element with the least index not yet
    reached.  `element(i)` is the element with index i and `index` is its
    inverse.  Returns orbit_of and each orbit's member indices in discovery
    order."""
    orbit_of = [-1] * size
    orbits = []
    for seed in range(size):
        if orbit_of[seed] < 0:
            members = [index(x) for x in closure(element(seed), expand)[0]]
            for i in members:
                orbit_of[i] = len(orbits)
            orbits.append(members)
    return orbit_of, orbits


def weyl_centralizer_elements(partition):
    """All elements of C_{S_n}(w) acting on the torus factor list: pairs
    (position permutation preserving part sizes, per-factor Frobenius twist)."""
    blocks = {}
    for i, p in enumerate(partition):
        blocks.setdefault(p, []).append(i)
    block_perms = [[list(zip(idxs, perm)) for perm in itertools.permutations(idxs)]
                   for _, idxs in sorted(blocks.items())]
    perms = []
    for combo in itertools.product(*block_perms):
        perm = [0] * len(partition)
        for pairs in combo:
            for src, dst in pairs:
                perm[src] = dst
        perms.append(tuple(perm))
    twists = list(itertools.product(*[range(p) for p in partition]))
    return [(perm, tw) for perm in perms for tw in twists]


def general_position_by_stabilizers(partition, q):
    """C_W(w)-orbits of characters of T_lambda^F with trivial stabilizer,
    found by testing each character against every listed non-identity
    element of C_W(w)."""
    partition = tuple(sorted(partition, reverse=True))
    moduli = [q**p - 1 for p in partition]
    actions = weyl_centralizer_elements(partition)
    free = 0
    for chars in itertools.product(*[range(m) for m in moduli]):
        stabilized = False
        for perm, tw in actions:
            if not any(tw) and all(perm[i] == i for i in range(len(perm))):
                continue
            image = list(chars)
            for i, (a, k) in enumerate(zip(chars, tw)):
                image[perm[i]] = a * q**k % moduli[i]
            if tuple(image) == chars:
                stabilized = True
                break
        if not stabilized:
            free += 1
    if free % len(actions):
        raise AssertionError("free characters not divisible by the centralizer order")
    return free // len(actions)

"""One-element-at-a-time references for the batched orbit code: a
breadth-first closure over dictionary keys, and orbits found by closing one
seed at a time.  They are the routines the package used before every orbit
became an `orbit_labels` call over permutation arrays."""


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

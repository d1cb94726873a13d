"""The split of a prime node by one full closure per part, kept as the
reference that modular._prime_parts is tested against.

The refinement into P(G[m], v) scans every part, single vertices included,
for each pivot; each part left outside the module found so far to hold v
is then tested with a closure that rescans all outside vertices until none
is mixed on the set.
"""


def closure(masks, full, m):
    """Smallest module containing the mask m: every vertex mixed on the
    current set is forced into any homogeneous superset."""
    changed = True
    while changed and m != full:
        changed = False
        rest = full & ~m
        while rest:
            b = rest & -rest
            rest ^= b
            hit = masks[b.bit_length() - 1] & m
            if hit != 0 and hit != m:
                m |= b
                changed = True
    return m


def prime_parts(masks, m):
    """Maximal proper modules of G[m] when that graph is prime.

    Refines m - v, v its least vertex, into P(G[m], v), the maximal modules
    not containing v; each is a child or lies inside M(v), the child
    holding v, which one closure per remaining part grows."""
    v = m & -m
    nv = masks[v.bit_length() - 1]
    parts = [p for p in (nv & m, m & ~nv & ~v) if p]
    pending = m & ~v
    while pending:
        y = pending & -pending
        pending ^= y
        adj = masks[y.bit_length() - 1]
        for i, part in enumerate(parts):
            inside = part & adj
            if inside and inside != part and not part & y:
                parts[i] = inside
                parts.append(part ^ inside)
                pending |= part
    mv = v
    for part in parts:
        if not part & mv:
            grown = closure(masks, m, mv | part)
            if grown != m:
                mv = grown
    return [mv] + [p for p in parts if not p & mv]

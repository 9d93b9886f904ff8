"""References computed apart from dworklab, used to check the benchmark's outputs.

Nothing here imports the library.  Each function recomputes a quantity
from its definition, or states an identity the mathematics forces:

* `brute_force_count`: every normalized point of P^(N-1)(F_q), prime q,
  tested against the equation in numpy (q up to about 31 for N = 5, 13 for
  N = 7);
* `weil_ok` with `total_middle_dimension`: |a|^2 <= b^2 q^(N-2), where b is
  the number of totally nonzero zero-sum vectors mod N, in closed form;
* `genus_one_tower_ok`: for a smooth plane cubic, a_{q^2} = a_q^2 - 2q and
  a_{q^3} = a_q^3 - 3q a_q;
* `indexed_weights`, `repeat_of`: the coset weight recipe in plain Python;
* `classical_repeat_classes`: every class of the classical weight with a
  repeated indexed weight, by brute force over all zero-sum vectors.
"""

from itertools import product

import numpy as np


def mu(q: int, n: int) -> list[int]:
    """The n-th roots of unity in the prime field F_q, sorted."""
    return [x for x in range(1, q) if pow(x, n, q) == 1]


def brute_force_count(q: int, n: int, weights: tuple[int, ...], t: int) -> int:
    """#{x in P^(N-1)(F_q) : sum x_i^N = N t prod x_i^(w_i)}, prime q."""
    c = n * t % q
    pow_n = np.array([pow(x, n, q) for x in range(q)], dtype=np.int64)
    pow_w = {w: np.array([pow(x, w, q) for x in range(q)], dtype=np.int64)
             for w in set(weights)}
    total = 0
    for lead in range(n):
        # points (0, ..., 0, 1, x_{lead+1}, ..., x_{N-1}); 0^0 = 1 in pow_w
        mono_lead = c * (0 if any(weights[i] for i in range(lead)) else 1)
        free = list(range(lead + 1, n))
        if not free:
            total += int((1 - mono_lead) % q == 0)
            continue
        # power sum and monomial over all coordinates after the first free one
        sums = np.ones(1, dtype=np.int64)  # the leading 1 contributes 1^N
        monos = np.full(1, mono_lead, dtype=np.int64)
        for i in free[1:]:
            sums = ((sums[:, None] + pow_n[None, :]) % q).ravel()
            monos = ((monos[:, None] * pow_w[weights[i]][None, :]) % q).ravel()
        first = free[0]
        for x in range(q):
            lhs = (sums + pow_n[x]) % q
            rhs = monos * pow_w[weights[first]][x] % q
            total += int(np.count_nonzero(lhs == rhs))
    return total


def middle_trace(count: int, q: int, n: int) -> int:
    return sum(q ** j for j in range(n - 1)) - count


def total_middle_dimension(n: int) -> int:
    """Totally nonzero vectors in (Z/N)^N with zero sum: ((N-1)^N + (-1)^N (N-1)) / N."""
    return ((n - 1) ** n + (-1) ** n * (n - 1)) // n


def weil_ok(trace: int, q: int, n: int) -> bool:
    b = total_middle_dimension(n)
    return trace * trace <= b * b * q ** (n - 2)


def genus_one_tower_ok(q: int, traces: list[int]) -> bool:
    """The traces a_q, a_{q^2}, a_{q^3} (as many as given) of a smooth plane cubic."""
    a = traces[0]
    expected = [a, a * a - 2 * q, a ** 3 - 3 * q * a]
    return traces == expected[: len(traces)]


def indexed_weights(entries: tuple[int, ...], weights: tuple[int, ...]) -> list[int]:
    """Sorted ht(v + kW) = (sum of lifts)/N - 1 over k in Z/N, totally nonzero members only."""
    n = len(entries)
    out = []
    for k in range(n):
        member = [(e + k * w) % n for e, w in zip(entries, weights)]
        if all(member):
            out.append(sum(member) // n - 1)
    return sorted(out)


def canonical(entries: tuple[int, ...], weights: tuple[int, ...]) -> tuple[int, ...]:
    n = len(entries)
    return min(tuple((e + k * w) % n for e, w in zip(entries, weights)) for k in range(n))


def repeat_of(entries: tuple[int, ...], weights: tuple[int, ...]) -> tuple[int, int] | None:
    """(least repeated indexed weight, its multiplicity), or None when all differ."""
    ws = indexed_weights(entries, weights)
    repeats = [w for w in sorted(set(ws)) if ws.count(w) >= 2]
    return (repeats[0], ws.count(repeats[0])) if repeats else None


def classical_repeat_classes(n: int) -> set[tuple[int, ...]]:
    """Canonical representatives of the classical-weight classes with a repeated weight."""
    ones = (1,) * n
    found = set()
    for head in product(range(n), repeat=n - 1):
        v = head + ((-sum(head)) % n,)
        if canonical(v, ones) == v and repeat_of(v, ones) is not None:
            found.add(v)
    return found


def is_refusal_family(weights: tuple[int, ...]) -> bool:
    """W a permutation of (0, 2, 1, ..., 1) with N odd."""
    n = len(weights)
    return n % 2 == 1 and sorted(weights) == [0] + [1] * (n - 2) + [2]

"""Independent brute-force reference implementations.

Everything here recomputes claims from definitions on raw data: maps are
plain int tuples, measures are Fraction tuples, capacities are value
tables indexed by subset mask.  Fractions appear only at the boundary:
the simplex pivots an integer tableau over one common denominator
(integer-preserving pivoting, as in Edmonds and Bareiss), and orbit
averages sum integer numerators over the measure's common denominator.
No code is shared with the main modules beyond the bitmask convention,
and only the standard library is imported, so agreement between the two
paths is evidence rather than tautology.  Oracles are allowed to be
exponential.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

ZERO = Fraction(0)
ONE = Fraction(1)

Table = tuple[Fraction, ...]
MapTable = tuple[int, ...]


def _preimage(ttable: MapTable, mask: int) -> int:
    out = 0
    for w, img in enumerate(ttable):
        if mask >> img & 1:
            out |= 1 << w
    return out


def oracle_invariant_sets(ttable: MapTable) -> list[int]:
    """All subsets with T^{-1}A = A, by scanning every subset."""
    m = len(ttable)
    return [a for a in range(1 << m) if _preimage(ttable, a) == a]


def oracle_choquet(vtable: Table, values: Table) -> Fraction:
    """Both improper threshold integrals as finite breakpoint sums.

    t -> V({f >= t}) is a right-continuous step function with jumps only
    at values of f, so each integral is a sum over consecutive
    breakpoints; 0 is added as a breakpoint to split the signed parts.
    """
    m = len(values)
    pts = sorted(set(values) | {ZERO})
    total = ZERO
    for lo, hi in zip(pts, pts[1:]):
        mask = 0
        for w in range(m):
            if values[w] >= hi:
                mask |= 1 << w
        v = vtable[mask]
        if lo >= 0:
            total += (hi - lo) * v
        else:
            total += (hi - lo) * (v - vtable[-1])
    return total


def _solve_square(matrix: list[list[Fraction]], rhs: list[Fraction]) -> tuple[Fraction, ...] | None:
    """Gaussian elimination; None when the system is singular."""
    n = len(matrix)
    aug = [row[:] + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(aug[r][n] for r in range(n))


def oracle_core_vertices(vtable: Table) -> list[tuple[Fraction, ...]]:
    """Core polytope vertices by exhaustive tight-constraint enumeration.

    A vertex solves the mass equality plus m-1 independent tight rows
    chosen among the subset bounds and the sign constraints; every
    feasible such solution is collected and deduplicated.
    """
    n = len(vtable)
    m = n.bit_length() - 1
    rows: list[tuple[list[Fraction], Fraction]] = []
    for a in range(1, n - 1):
        rows.append(([ONE if a >> w & 1 else ZERO for w in range(m)], vtable[a]))
    for w in range(m):
        rows.append(([-ONE if x == w else ZERO for x in range(m)], ZERO))
    ones = [ONE] * m
    found = set()
    for combo in combinations(range(len(rows)), m - 1):
        matrix = [ones] + [rows[i][0] for i in combo]
        rhs = [ONE] + [rows[i][1] for i in combo]
        p = _solve_square(matrix, rhs)
        if p is None:
            continue
        if any(x < 0 for x in p):
            continue
        ok = True
        for a in range(1, n - 1):
            s = sum((p[w] for w in range(m) if a >> w & 1), ZERO)
            if s > vtable[a]:
                ok = False
                break
        if ok:
            found.add(p)
    return sorted(found)


def _scaled(values) -> tuple[list[int], int]:
    """Integer numerators of `values` over the lcm k of their denominators, and k."""
    fracs = [Fraction(x) for x in values]
    k = lcm(*(x.denominator for x in fracs))
    return [x.numerator * (k // x.denominator) for x in fracs], k


def _pivot(rows: list[list[int]], zrows: list[list[int]], basis: list[int], den: int, r: int, c: int) -> int:
    """Integer-preserving pivot on rows[r][c]; returns the new common denominator.

    Every entry stays the exact integer d times its tableau value: by
    Sylvester's identity the division by the old d is exact, and the
    pivot becomes the new d, negated with the whole tableau when negative.
    """
    prow = rows[r]
    p = prow[c]
    for row in [*(rows[i] for i in range(len(rows)) if i != r), *zrows]:
        f = row[c]
        if f:
            row[:] = [(p * x - f * y) // den for x, y in zip(row, prow)]
        elif p != den:
            row[:] = [p * x // den for x in row]
    basis[r] = c
    if p < 0:
        for row in [*rows, *zrows]:
            row[:] = [-x for x in row]
        return -p
    return p


def _bland(rows: list[list[int]], zrows: list[list[int]], basis: list[int], ncols: int, den: int) -> tuple[str, int]:
    """Maximize zrows[0] with Bland's anti-cycling rule until optimal or
    unbounded, carrying the other rows of `zrows` through every pivot."""
    zrow = zrows[0]
    while True:
        enter = next((j for j in range(ncols) if zrow[j] > 0), None)
        if enter is None:
            return "optimal", den
        best = None
        for r, row in enumerate(rows):
            coeff = row[enter]
            if coeff > 0:
                # ratio rhs/coeff against the best's, cross-multiplied (both coeffs > 0)
                if best is None:
                    best = r
                    continue
                lhs, rhs = row[-1] * rows[best][enter], rows[best][-1] * coeff
                if lhs < rhs or (lhs == rhs and basis[r] < basis[best]):
                    best = r
        if best is None:
            return "unbounded", den
        den = _pivot(rows, zrows, basis, den, best, enter)


def oracle_lp_max(
    objective: list[Fraction],
    ub_rows: list[tuple[list[Fraction], Fraction]],
    eq_rows: list[tuple[list[Fraction], Fraction]],
) -> tuple[str, Fraction | None, tuple[Fraction, ...] | None]:
    """Two-phase exact simplex: maximize c.x, A x <= b, E x = d, x >= 0.

    Each row is scaled by the lcm k of its denominators, which rescales
    only its own slack or artificial, so Bland's rule takes the same
    pivots as on the rational tableau.  Phase 1 maximizes minus the sum
    of the unscaled artificials (weight L/k, L the lcm of their k), and
    the objective row rides along from the start.
    """
    nreal = len(objective)
    rows: list[list[int]] = []
    kinds: list[str] = []
    scales: list[int] = []
    for coeffs, rhs in ub_rows:
        nums, k = _scaled([*coeffs, rhs])
        if nums[-1] >= 0:
            kinds.append("slack")
        else:
            nums = [-x for x in nums]
            kinds.append("surplus")
        rows.append(nums)
        scales.append(k)
    for coeffs, rhs in eq_rows:
        nums, k = _scaled([*coeffs, rhs])
        if nums[-1] < 0:
            nums = [-x for x in nums]
        rows.append(nums)
        kinds.append("artificial")
        scales.append(k)

    nslack = sum(1 for k in kinds if k != "artificial")
    nart = sum(1 for k in kinds if k != "slack")
    ncols = nreal + nslack + nart
    art_lcm = lcm(*(k for k, kind in zip(scales, kinds) if kind != "slack"))
    zrow = [0] * (ncols + 1)  # phase 1: minus the sum of the unscaled artificials
    basis = [0] * len(rows)
    slack_at = nreal
    art_at = nreal + nslack
    for i, kind in enumerate(kinds):
        rhs = rows[i].pop()
        rows[i] += [0] * (nslack + nart)
        if kind == "slack":
            rows[i][slack_at] = 1
            basis[i] = slack_at
            slack_at += 1
        else:
            if kind == "surplus":
                rows[i][slack_at] = -1
                slack_at += 1
            rows[i][art_at] = 1
            basis[i] = art_at
            zrow[art_at] = -(art_lcm // scales[i])
            art_at += 1
        rows[i].append(rhs)

    den = 1
    nums, zscale = _scaled(objective)
    zobj = nums + [0] * (ncols - nreal + 1)
    # phase 1: drive the artificial variables to zero
    if nart:
        for r, b in enumerate(basis):
            f = zrow[b]
            if f:
                zrow = [z - f * x for z, x in zip(zrow, rows[r])]
        _, den = _bland(rows, [zrow, zobj], basis, ncols, den)
        if zrow[-1] != 0:
            return "infeasible", None, None
        for r in range(len(rows) - 1, -1, -1):
            if basis[r] >= nreal + nslack:
                c = next((j for j in range(nreal + nslack) if rows[r][j] != 0), None)
                if c is None:
                    rows.pop(r)
                    basis.pop(r)
                else:
                    den = _pivot(rows, [zobj], basis, den, r, c)
        rows = [row[: nreal + nslack] + [row[-1]] for row in rows]
        zobj = zobj[: nreal + nslack] + [zobj[-1]]
        ncols = nreal + nslack

    status, den = _bland(rows, [zobj], basis, ncols, den)
    if status != "optimal":
        return status, None, None
    x = [ZERO] * nreal
    for r, b in enumerate(basis):
        if b < nreal:
            x[b] = Fraction(rows[r][-1], den)
    return "optimal", Fraction(-zobj[-1], den * zscale), tuple(x)


def oracle_core_sup(
    vtable: Table,
    objective: list[Fraction],
    equalities: tuple[tuple[list[Fraction], Fraction], ...] = (),
) -> Fraction | None:
    """sup of a linear functional over the core, by simplex; None if the
    core slice cut out by the extra equalities is empty."""
    n = len(vtable)
    m = n.bit_length() - 1
    ub = []
    for a in range(1, n - 1):
        ub.append(([ONE if a >> w & 1 else ZERO for w in range(m)], vtable[a]))
    eq = [([ONE] * m, ONE)] + list(equalities)
    status, value, _ = oracle_lp_max(list(objective), ub, eq)
    if status == "infeasible":
        return None
    if status != "optimal":
        raise RuntimeError("core LP cannot be unbounded")
    return value


def _components(ttable: MapTable) -> list[int]:
    """Weak components of the functional graph, by closure growth."""
    m = len(ttable)
    comps = []
    seen = 0
    for start in range(m):
        if seen >> start & 1:
            continue
        mask = 1 << start
        while True:
            grown = mask
            for w in range(m):
                if mask >> w & 1:
                    grown |= 1 << ttable[w]
                if mask >> ttable[w] & 1:
                    grown |= 1 << w
            if grown == mask:
                break
            mask = grown
        comps.append(mask)
        seen |= mask
    return comps


def _set_partitions(items: list[int]) -> list[list[list[int]]]:
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for sub in _set_partitions(rest):
        out.append([[first]] + [list(g) for g in sub])
        for i in range(len(sub)):
            grown = [list(g) for g in sub]
            grown[i].append(first)
            out.append(grown)
    return out


def oracle_fec(vtable: Table, ttable: MapTable) -> tuple[tuple[tuple[int, ...], ...], int | None]:
    """Every component-set partition passing the definitional cell test,
    plus the first invariant set with value strictly inside (0, 1).

    A cell passes when some core member gives it full mass and the
    resulting restricted supremum (computed entrywise by LP) is null on
    one side of every invariant set.  Invariant sets come in complement
    pairs, so each pair is visited once, from its smaller mask; the LP's
    feasible region does not depend on the objective, so one infeasible
    LP decides the cell, and the scan stops at the first failing pair.
    """
    m = len(ttable)
    invariant = oracle_invariant_sets(ttable)
    witness = next((a for a in invariant if 0 < vtable[a] < 1), None)

    comps = _components(ttable)
    full = (1 << m) - 1
    cell_ok: dict[int, bool] = {}

    def passes(cell: int) -> bool:
        if cell not in cell_ok:
            on_cell = (([ONE if cell >> w & 1 else ZERO for w in range(m)], ONE),)

            def sup(a: int) -> Fraction | None:
                objective = [ONE if a >> w & 1 else ZERO for w in range(m)]
                return oracle_core_sup(vtable, objective, on_cell)

            ok = True
            for a in invariant:
                if a > full ^ a:
                    continue
                val = sup(a)
                if val is None or (val != 0 and sup(full ^ a) != 0):
                    ok = False
                    break
            cell_ok[cell] = ok
        return cell_ok[cell]

    valid = []
    for grouping in _set_partitions(list(range(len(comps)))):
        cells = []
        for group in grouping:
            mask = 0
            for i in group:
                mask |= comps[i]
            cells.append(mask)
        cells.sort(key=lambda c: c & -c)
        if all(passes(c) for c in cells):
            valid.append(tuple(cells))
    valid.sort()
    return tuple(valid), witness


def oracle_tail_average(
    ptable: Table, ttable: MapTable, mask: int, burn: int, length: int
) -> Fraction:
    """Mean of P(T^{-i}A) over i in [burn, burn + length)."""
    if length < 1:
        raise ValueError("window needs at least one term")
    nums, den = _scaled(ptable)
    cur = mask
    for _ in range(burn):
        cur = _preimage(ttable, cur)
    total = 0
    for _ in range(length):
        total += sum(nums[w] for w in range(len(ttable)) if cur >> w & 1)
        cur = _preimage(ttable, cur)
    return Fraction(total, den * length)


def oracle_window_sup(
    ptable: Table, ttable: MapTable, mask: int, max_shift: int, max_len: int
) -> Fraction:
    """Max of window means of i -> P(T^{-i}A) over starts in
    [-max_shift, max_shift] and lengths 1..max_len, all computed literally."""
    m = len(ttable)
    if sorted(ttable) != list(range(m)):
        raise ValueError("two-sided windows need an invertible map")
    nums, den = _scaled(ptable)
    inverse = [0] * m
    for w, img in enumerate(ttable):
        inverse[img] = w
    vals: dict[int, int] = {}
    cur = mask
    for i in range(0, max_shift + max_len + 1):
        vals[i] = sum(nums[w] for w in range(m) if cur >> w & 1)
        cur = _preimage(ttable, cur)
    cur = mask
    for i in range(0, -max_shift - 1, -1):
        vals[i] = sum(nums[w] for w in range(m) if cur >> w & 1)
        cur = _preimage(tuple(inverse), cur)
    best_num, best_len = 0, 0
    for start in range(-max_shift, max_shift + 1):
        running = 0
        for length in range(1, max_len + 1):
            running += vals[start + length - 1]
            # running / length > best_num / best_len, cross-multiplied
            if best_len == 0 or running * best_len > best_num * length:
                best_num, best_len = running, length
    assert best_len
    return Fraction(best_num, best_len * den)


def oracle_fixed_space_dimension(vtable: Table, ttable: MapTable) -> int:
    """Dimension of {f : f(T(w)) = f(w) at every w with V({w}) > 0}.

    Those are the fixed functions of f -> f . T up to V-null sets.  With S
    the points of positive singleton value, the dimension is |S| minus
    the rank of the rows e_{T(w)} - e_w for w in S, found by
    fraction-free integer elimination.
    """
    m = len(ttable)
    support = [w for w in range(m) if vtable[1 << w] > 0]
    rows = []
    for w in support:
        row = [0] * m
        row[ttable[w]] += 1
        row[w] -= 1
        rows.append(row)
    rank = 0
    for c in range(m):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            k = rows[r][c]
            if k:
                rows[r] = [top[c] * x - k * y for x, y in zip(rows[r], top)]
        rank += 1
    return len(support) - rank

"""Independent brute-force reference implementations.

Everything here recomputes claims from definitions on raw data: maps are
plain int tuples, measures are Fraction tuples, capacities are value
tables indexed by subset mask.  The exact arithmetic runs in integers: the
simplex pivots an integer tableau over one common denominator
(integer-preserving pivoting, as in Edmonds and Bareiss), vertex
enumeration solves each basis by fraction-free (Bareiss) elimination
and integer back-substitution over the last pivot, and orbit averages
sum integer numerators over the measure's common denominator.
Vertex enumeration uses Fractions only for its output and its vertex
check: each nonnegative candidate vertex is checked against every bound
in Fractions, as the literal statement of core membership.
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


def _echelon(rows: list[list[int]], ncols: int) -> int:
    """Fraction-free (Bareiss) elimination of integer rows over their first
    `ncols` columns, in place; returns the rank.

    A column with no nonzero entry below the pivots found so far is
    skipped; otherwise its first such row is swapped up as pivot p, and
    every row below becomes (p * row - k * top) / prev, with k its entry in
    the column and prev the previous pivot (1 at the start).  By
    Sylvester's identity each entry is then a minor of the input, so the
    division is exact.  Rows are replaced, never mutated, so callers may
    pass rows they share.
    """
    prev = 1
    rank = 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p = top[c]
        for r in range(rank + 1, len(rows)):
            k = rows[r][c]
            rows[r] = [(p * x - k * y) // prev for x, y in zip(rows[r], top)]
        prev = p
        rank += 1
    return rank


def _solve(aug: list[list[int]], den: int) -> tuple[tuple[int, ...], int] | None:
    """The solution of the square integer system `aug` (coefficients, then
    right-hand side, per row) divided by `den`, as integers y and d > 0
    with solution y / (d * den); None when singular.

    `_echelon` leaves the system upper triangular, and its last pivot d is
    plus or minus the determinant, so by Cramer's rule d times the solution
    of `aug` is an integer vector y.  Back-substitution from the last row,
    y_i = (d * rhs_i - sum_{j > i} row_i[j] * y_j) / row_i[i], divides
    exactly; d is then made positive, flipping the signs of y with it.
    """
    n = len(aug)
    if _echelon(aug, n) < n:
        return None
    d = aug[n - 1][n - 1]
    ys = [0] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        ys[i] = (d * row[n] - sum(row[j] * ys[j] for j in range(i + 1, n))) // row[i]
    if d < 0:
        return tuple(-y for y in ys), -d
    return tuple(ys), d


def _tight_vertices(vtable: Table, equalities: list[list[int]]) -> list[tuple[Fraction, ...]]:
    """Vertices of the core points x with e . x = 0 for each integer row e,
    by exhaustive tight-constraint enumeration.

    The bound rows are scaled to integers over the common denominator D of
    V's values, in the coordinates D x: the mass equality reads ones = D,
    each bound row 1_A <= D V(A).  The equality block, mass first, is cut
    to an independent subset of r rows; a vertex solves it plus m - r
    independent tight rows chosen among the bounds and the sign
    constraints.  `_solve` gives each solution as integers y over d * D,
    so a negative candidate is rejected by the signs of y alone; only a
    nonnegative one becomes Fractions, checked literally against every
    bound of V, then collected and deduplicated.
    """
    n = len(vtable)
    m = n.bit_length() - 1
    bounds, den = _scaled(vtable[1 : n - 1])
    rows = [[a >> w & 1 for w in range(m)] + [b] for a, b in enumerate(bounds, 1)]
    for w in range(m):
        rows.append([-1 if x == w else 0 for x in range(m)] + [0])
    block = [[1] * m + [den]]
    for e in equalities:
        if _echelon([*block, e + [0]], m) > len(block):
            block.append(e + [0])
    found = set()
    for combo in combinations(rows, m - len(block)):
        solved = _solve([*block, *combo], den)
        if solved is None:
            continue
        ys, d = solved
        if any(y < 0 for y in ys):
            continue
        scale = d * den
        p = tuple(Fraction(y, scale) for y in ys)
        ok = True
        for a in range(1, n - 1):
            s = sum((p[w] for w in range(m) if a >> w & 1), ZERO)
            if s > vtable[a]:
                ok = False
                break
        if ok:
            found.add(p)
    return sorted(found)


def oracle_core_vertices(vtable: Table) -> list[tuple[Fraction, ...]]:
    """Core polytope vertices by exhaustive tight-constraint enumeration:
    the mass equality plus m-1 independent tight rows, each basis solved
    by fraction-free elimination (see `_tight_vertices`)."""
    return _tight_vertices(vtable, [])


def oracle_invariant_core_vertices(vtable: Table, ttable: MapTable) -> list[tuple[Fraction, ...]]:
    """Vertices of {P in core(V) : P(T^{-1}{w}) = P({w}) for every w}, by
    the same enumeration in P's own coordinates, with the invariance rows
    added to the equality block.  Exponential in m; meant for m <= 4."""
    m = len(ttable)
    invariance = []
    for w in range(m):
        row = [1 if ttable[u] == w else 0 for u in range(m)]
        row[w] -= 1
        invariance.append(row)
    return _tight_vertices(vtable, invariance)


def _scaled(values) -> tuple[list[int], int]:
    """Integer numerators of the ints or Fractions `values` over the lcm k
    of their denominators, and k."""
    k = lcm(*(x.denominator for x in values))
    return [x.numerator * (k // x.denominator) for x in values], k


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

    Entries are ints or Fractions.  Each row is scaled by the lcm k of its
    denominators (k = 1 for a row of ints), which rescales only its own
    slack or artificial, so Bland's rule takes the same pivots as on the
    rational tableau.  Phase 1 maximizes minus the sum of the unscaled
    artificials (weight L/k, L the lcm of their k), and the objective row
    rides along from the start.
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


def _core_bounds(vtable: Table) -> list[tuple[list[int], int]]:
    """The core LP's bound rows 1_A . x <= V(A), A proper and nonempty, in
    integers: each row times the denominator of V(A)."""
    n = len(vtable)
    m = n.bit_length() - 1
    rows = []
    for a in range(1, n - 1):
        v = vtable[a]
        rows.append(([v.denominator if a >> w & 1 else 0 for w in range(m)], v.numerator))
    return rows


def _core_sup(
    bounds: list[tuple[list[int], int]],
    objective: list[Fraction],
    equalities: tuple[tuple[list[Fraction], Fraction], ...],
) -> Fraction | None:
    """`oracle_core_sup` on the bound rows of `_core_bounds`, which a caller
    with many objectives builds once."""
    eq = [([ONE] * len(objective), ONE), *equalities]
    status, value, _ = oracle_lp_max(list(objective), bounds, eq)
    if status == "infeasible":
        return None
    if status != "optimal":
        raise RuntimeError("core LP cannot be unbounded")
    return value


def oracle_core_sup(
    vtable: Table,
    objective: list[Fraction],
    equalities: tuple[tuple[list[Fraction], Fraction], ...] = (),
) -> Fraction | None:
    """sup of a linear functional over the core, by simplex; None if the
    core slice cut out by the extra equalities is empty."""
    return _core_sup(_core_bounds(vtable), objective, equalities)


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
    bounds = _core_bounds(vtable)
    cell_ok: dict[int, bool] = {}

    def passes(cell: int) -> bool:
        if cell not in cell_ok:
            on_cell = (([ONE if cell >> w & 1 else ZERO for w in range(m)], ONE),)

            def sup(a: int) -> Fraction | None:
                objective = [ONE if a >> w & 1 else ZERO for w in range(m)]
                return _core_sup(bounds, objective, on_cell)

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
    if burn < 0:
        raise ValueError("burn must be nonnegative")
    nums, den = _scaled(ptable)
    cur = mask
    for _ in range(burn):
        cur = _preimage(ttable, cur)
    total = 0
    for _ in range(length):
        total += sum(nums[w] for w in range(len(ttable)) if cur >> w & 1)
        cur = _preimage(ttable, cur)
    return Fraction(total, den * length)


def oracle_birkhoff_limit(ttable: MapTable, values: Table) -> Table:
    """The limit of (1/N) sum_{i < N} f(T^i w) at every point w, literally.

    Every orbit is on its cycle after m steps, so the average from T^m(w)
    over L steps, L the lcm of the cycle lengths (each found by walking
    its cycle), is the limit at w.
    """
    m = len(ttable)
    nums, den = _scaled(values)
    starts = []
    for w in range(m):
        cur = w
        for _ in range(m):
            cur = ttable[cur]
        starts.append(cur)
    lengths = []
    for start in starts:
        cur, steps = ttable[start], 1
        while cur != start:
            cur, steps = ttable[cur], steps + 1
        lengths.append(steps)
    period = lcm(*lengths)
    out = []
    for cur in starts:
        total = 0
        for _ in range(period):
            total += nums[cur]
            cur = ttable[cur]
        out.append(Fraction(total, den * period))
    return tuple(out)


def oracle_window_sup(
    ptable: Table, ttable: MapTable, mask: int, max_shift: int, max_len: int
) -> Fraction:
    """Max of window means of i -> P(T^{-i}A) over starts in
    [-max_shift, max_shift] and lengths 1..max_len, all computed literally."""
    m = len(ttable)
    if sorted(ttable) != list(range(m)):
        raise ValueError("two-sided windows need an invertible map")
    if max_len < 1:
        raise ValueError("window needs at least one term")
    if max_shift < 0:
        raise ValueError("window shift must be nonnegative")
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
    return Fraction(best_num, best_len * den)


def oracle_fixed_space_dimension(vtable: Table, ttable: MapTable) -> int:
    """Dimension of {f : f(T(w)) = f(w) at every w with V({w}) > 0}.

    Those are the fixed functions of f -> f . T up to V-null sets.  With S
    the points of positive singleton value, the dimension is |S| minus
    the rank of the rows e_{T(w)} - e_w for w in S, found by `_echelon`.
    """
    m = len(ttable)
    support = [w for w in range(m) if vtable[1 << w] > 0]
    rows = []
    for w in support:
        row = [0] * m
        row[ttable[w]] += 1
        row[w] -= 1
        rows.append(row)
    return len(support) - _echelon(rows, m)

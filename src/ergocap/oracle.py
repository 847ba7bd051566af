"""Independent brute-force reference implementations.

Everything here recomputes claims from definitions on raw data: maps are
plain int tuples, measures are Fraction tuples, capacities are value
tables indexed by subset mask.  No code is shared with the main modules
beyond the bitmask convention, so agreement between the two paths is
evidence rather than tautology.  Oracles are allowed to be exponential.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

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


def _pivot(rows: list[list[Fraction]], zrow: list[Fraction], basis: list[int], r: int, c: int) -> None:
    inv = rows[r][c]
    rows[r] = [x / inv for x in rows[r]]
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
    if zrow[c] != 0:
        f = zrow[c]
        for j in range(len(zrow)):
            zrow[j] -= f * rows[r][j]
    basis[r] = c


def _bland(rows: list[list[Fraction]], zrow: list[Fraction], basis: list[int], ncols: int) -> str:
    """Maximize with Bland's anti-cycling rule until optimal or unbounded."""
    while True:
        enter = next((j for j in range(ncols) if zrow[j] > 0), None)
        if enter is None:
            return "optimal"
        best = None
        for r in range(len(rows)):
            coeff = rows[r][enter]
            if coeff > 0:
                ratio = rows[r][-1] / coeff
                if best is None or ratio < best[0] or (ratio == best[0] and basis[r] < best[1]):
                    best = (ratio, basis[r], r)
        if best is None:
            return "unbounded"
        _pivot(rows, zrow, basis, best[2], enter)


def oracle_lp_max(
    objective: list[Fraction],
    ub_rows: list[tuple[list[Fraction], Fraction]],
    eq_rows: list[tuple[list[Fraction], Fraction]],
) -> tuple[str, Fraction | None, tuple[Fraction, ...] | None]:
    """Two-phase exact simplex: maximize c.x, A x <= b, E x = d, x >= 0."""
    nreal = len(objective)
    rows: list[list[Fraction]] = []
    kinds: list[str] = []
    for coeffs, rhs in ub_rows:
        if rhs >= 0:
            rows.append([Fraction(x) for x in coeffs] + [rhs])
            kinds.append("slack")
        else:
            rows.append([-Fraction(x) for x in coeffs] + [-rhs])
            kinds.append("surplus")
    for coeffs, rhs in eq_rows:
        if rhs >= 0:
            rows.append([Fraction(x) for x in coeffs] + [rhs])
        else:
            rows.append([-Fraction(x) for x in coeffs] + [-rhs])
        kinds.append("artificial")

    nslack = sum(1 for k in kinds if k != "artificial")
    nart = sum(1 for k in kinds if k != "slack")
    ncols = nreal + nslack + nart
    basis = [0] * len(rows)
    slack_at = nreal
    art_at = nreal + nslack
    for i, kind in enumerate(kinds):
        rhs = rows[i].pop()
        rows[i] += [ZERO] * (nslack + nart)
        if kind == "slack":
            rows[i][slack_at] = ONE
            basis[i] = slack_at
            slack_at += 1
        elif kind == "surplus":
            rows[i][slack_at] = -ONE
            slack_at += 1
            rows[i][art_at] = ONE
            basis[i] = art_at
            art_at += 1
        else:
            rows[i][art_at] = ONE
            basis[i] = art_at
            art_at += 1
        rows[i].append(rhs)

    # phase 1: drive the artificial variables to zero
    if nart:
        zrow = [ZERO] * (ncols + 1)
        for j in range(nreal + nslack, ncols):
            zrow[j] = -ONE
        for r, b in enumerate(basis):
            if zrow[b] != 0:
                f = zrow[b]
                for j in range(ncols + 1):
                    zrow[j] -= f * rows[r][j]
        _bland(rows, zrow, basis, ncols)
        if -zrow[-1] != 0:
            return "infeasible", None, None
        for r in range(len(rows) - 1, -1, -1):
            if basis[r] >= nreal + nslack:
                c = next((j for j in range(nreal + nslack) if rows[r][j] != 0), None)
                if c is None:
                    rows.pop(r)
                    basis.pop(r)
                else:
                    _pivot(rows, [ZERO] * (ncols + 1), basis, r, c)
        rows = [row[: nreal + nslack] + [row[-1]] for row in rows]
        ncols = nreal + nslack

    zrow = [Fraction(c) for c in objective] + [ZERO] * (ncols - nreal + 1)
    for r, b in enumerate(basis):
        if zrow[b] != 0:
            f = zrow[b]
            for j in range(ncols + 1):
                zrow[j] -= f * rows[r][j]
    status = _bland(rows, zrow, basis, ncols)
    if status != "optimal":
        return status, None, None
    x = [ZERO] * nreal
    for r, b in enumerate(basis):
        if b < nreal:
            x[b] = rows[r][-1]
    return "optimal", -zrow[-1], tuple(x)


def oracle_core_sup(
    vtable: Table,
    objective: list[Fraction],
    equalities: list[tuple[list[Fraction], Fraction]] = [],
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
            on_cell = [([ONE if cell >> w & 1 else ZERO for w in range(m)], ONE)]

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
    cur = mask
    for _ in range(burn):
        cur = _preimage(ttable, cur)
    total = ZERO
    for _ in range(length):
        total += sum((ptable[w] for w in range(len(ttable)) if cur >> w & 1), ZERO)
        cur = _preimage(ttable, cur)
    return total / length


def oracle_window_sup(
    ptable: Table, ttable: MapTable, mask: int, max_shift: int, max_len: int
) -> Fraction:
    """Max of window means of i -> P(T^{-i}A) over starts in
    [-max_shift, max_shift] and lengths 1..max_len, all computed literally."""
    m = len(ttable)
    if sorted(ttable) != list(range(m)):
        raise ValueError("two-sided windows need an invertible map")
    inverse = [0] * m
    for w, img in enumerate(ttable):
        inverse[img] = w
    vals: dict[int, Fraction] = {}
    cur = mask
    for i in range(0, max_shift + max_len + 1):
        vals[i] = sum((ptable[w] for w in range(m) if cur >> w & 1), ZERO)
        cur = _preimage(ttable, cur)
    cur = mask
    for i in range(0, -max_shift - 1, -1):
        vals[i] = sum((ptable[w] for w in range(m) if cur >> w & 1), ZERO)
        cur = _preimage(tuple(inverse), cur)
    best = None
    for start in range(-max_shift, max_shift + 1):
        running = ZERO
        for length in range(1, max_len + 1):
            running += vals[start + length - 1]
            mean = running / length
            if best is None or mean > best:
                best = mean
    assert best is not None
    return best

"""Acceptance gate: the eight headline guarantees, one test each.

Every test prints a single "[criterion N] PASS/FAIL: ..." line that
survives output capture, so a bare pytest run shows the scoreboard.
Criteria with a wall-clock budget are timed; nothing here is tuned to
pass, and a genuine defect is allowed to stay red.
"""

import time
from fractions import Fraction
from random import Random

import pytest

from ergocap import birkhoff, capacity, fec, generate, koopman, measure, noninvariant, oracle, space
from ergocap.capacity import envelope, indicator
from ergocap.fec import FECResult, NotFEC
from ergocap.measure import Prob
from ergocap.noninvariant import NoninvariantSystem
from ergocap.space import Transformation

F = Fraction
ZERO = F(0)
ONE = F(1)


def announce(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")


def _random_system(seed: int, max_m: int):
    rng = Random(seed)
    m = rng.randint(2, max_m)
    T = generate.random_transformation(rng, m)
    if rng.random() < 0.5:
        gens = [generate.random_invariant_prob(rng, T) for _ in range(rng.randint(1, 4))]
        V = envelope(gens)
    else:
        V = generate.random_upper_prob(rng, T)
    return V, T


def _structured_system(seed: int):
    # envelope of per-cycle uniforms over a multi-cycle permutation: always
    # decomposable with one cell per charged cycle, so n >= 2 is exercised
    rng = Random(seed)
    m = rng.randint(4, 5)
    while True:
        T = generate.random_permutation(rng, m)
        cyc = list(T.cycles)
        if len(cyc) >= 2:
            break
    gens = []
    for _, pts in cyc[:4]:
        mass = [ZERO] * m
        for w in pts:
            mass[w] = F(1, len(pts))
        gens.append(Prob(tuple(mass)))
    return envelope(gens), T


@pytest.fixture(scope="module")
def pool():
    out = []
    for k in range(220):
        V, T = _random_system(90000 + k, 6)
        out.append((V, T, fec.fec_decompose(V, T)))
    for k in range(20):
        V, T = _structured_system(98000 + k)
        out.append((V, T, fec.fec_decompose(V, T)))
    return out


def test_criterion_1_equivalence(pool, capsys):
    start = time.monotonic()
    with_components = 0
    for V, T, result in pool:
        decomposed = isinstance(result, FECResult)
        assert fec.zero_one_condition(V, T) == decomposed
        assert fec.invariant_vertices_decompose(V, T) == decomposed
        assert fec.extreme_points_check(V, T) == decomposed
        valid, witness = oracle.oracle_fec(V.table, T.table)
        if decomposed:
            with_components += 1
            assert witness is None
            assert result.partition.cells in valid
        else:
            assert witness == result.witness
            assert not valid
    elapsed = time.monotonic() - start
    ok = elapsed < 60
    announce(
        capsys,
        1,
        ok,
        f"four characterizations agree on {len(pool)} systems "
        f"({with_components} decomposable), oracle-confirmed, {elapsed:.1f}s",
    )
    assert ok, f"equivalence sweep took {elapsed:.1f}s, budget is 60s"


def test_criterion_1_main_path_budget(pool, capsys):
    # the 60 s budget above is nearly all oracle time; this one times the
    # main path alone, from cold caches, so a main-path slowdown shows
    capacity.core_vertices.cache_clear()
    capacity.invariant_core_vertices.cache_clear()
    measure.subset_sums.cache_clear()
    start = time.monotonic()
    for V, T, result in pool:
        assert fec.fec_decompose(V, T) == result
        decomposed = isinstance(result, FECResult)
        assert fec.zero_one_condition(V, T) == decomposed
        assert fec.invariant_vertices_decompose(V, T) == decomposed
        assert fec.extreme_points_check(V, T) == decomposed
    elapsed = time.monotonic() - start
    ok = elapsed < 5
    announce(
        capsys,
        1,
        ok,
        f"main path (fec_decompose and three predicates) on {len(pool)} systems, {elapsed:.1f}s",
    )
    assert ok, f"main-path sweep took {elapsed:.1f}s, budget is 5s"


def _corruption_detected(V, T, result) -> bool:
    # replace one component measure by a point mass whose orbit frequency
    # differs from 1 at some charged point; the check must then fail
    supp = capacity.null_support(V)
    u = min(space.points(supp))
    orbit = [u]
    x = T(u)
    while x != u:
        orbit.append(x)
        x = T(x)
    target = u if len(orbit) > 1 else (u + 1) % T.size
    j = result.partition.cell_index(u)
    delta = Prob(tuple(ONE if w == target else ZERO for w in range(T.size)))
    measures = list(result.measures)
    measures[j] = delta
    corrupt = FECResult(result.partition, result.capacities, tuple(measures))
    f = indicator(1 << target, T.size)
    return not birkhoff.verify_multivalue_lln(V, T, corrupt, f)


def test_criterion_2_lln(pool, capsys):
    systems = 0
    functions = 0
    for idx, (V, T, result) in enumerate(pool):
        if not isinstance(result, FECResult):
            continue
        systems += 1
        rng = Random(91000 + idx)
        for _ in range(20):
            f = generate.random_function(rng, T.size)
            assert birkhoff.verify_multivalue_lln(V, T, result, f)
            functions += 1
        assert _corruption_detected(V, T, result)
    ok = systems > 0
    announce(
        capsys,
        2,
        ok,
        f"orbit-average law at every charged point: {systems} systems x 20 "
        f"functions ({functions} checks), {systems} corrupted controls detected",
    )
    assert ok


def test_criterion_3_koopman(pool, capsys):
    counted = 0
    one_sided = 0
    for V, T, result in pool:
        if not isinstance(result, FECResult):
            continue
        mult = koopman.eigenvalue_one_multiplicity(V, T)
        assert mult == result.n
        counted += 1
        if fec.is_fz_ergodic(V, T):
            assert mult == 1
            one_sided += 1
    multi = counted - one_sided
    ok = counted > 0 and one_sided > 0 and multi > 0
    announce(
        capsys,
        3,
        ok,
        f"fixed-space dimension equals component count on {counted} systems "
        f"({multi} with several components), equals 1 on all {one_sided} "
        f"FZ-ergodic ones",
    )
    assert ok


def _local_preimage(table, mask: int) -> int:
    out = 0
    for w, img in enumerate(table):
        if mask >> img & 1:
            out |= 1 << w
    return out


def test_criterion_4_independence_sweeps(capsys):
    start = time.monotonic()
    systems = []
    for k in range(4):
        V, T = _structured_system(99000 + k)
        result = fec.fec_decompose(V, T)
        assert isinstance(result, FECResult)
        systems.append((V, T, result))
    k = 0
    while len(systems) < 12:
        V, T = _random_system(92000 + k, 5)
        k += 1
        result = fec.fec_decompose(V, T)
        if isinstance(result, FECResult):
            systems.append((V, T, result))
    pairs = 0
    core_pairs = 0
    for V, T, result in systems:
        m = T.size
        n_steps = 4 * T.period
        # orbit table once, literal hit frequencies from it
        orbits = []
        for w in range(m):
            row = []
            x = w
            for _ in range(n_steps):
                row.append(x)
                x = T(x)
            orbits.append(row)
        verts = capacity.invariant_core_vertices(V, T)
        for C in range(1 << m):
            freq = [
                F(sum(1 for x in orbits[w] if C >> x & 1), n_steps) for w in range(m)
            ]
            # backward masks for the core-measure side
            counts = [0] * m
            mask = C
            for _ in range(n_steps):
                for w in range(m):
                    if mask >> w & 1:
                        counts[w] += 1
                mask = _local_preimage(T.table, mask)
            for B in range(1 << m):
                out = birkhoff.asymptotic_independence_choquet(V, T, result, B, C)
                assert out.equal
                literal = oracle.oracle_choquet(
                    V.table,
                    tuple(freq[w] if B >> w & 1 else ZERO for w in range(m)),
                )
                assert literal == out.lhs
                pairs += 1
                for P in verts:
                    got = birkhoff.asymptotic_independence_core(V, T, result, P, B, C)
                    assert got.equal
                    window = (
                        sum((P.mass[w] * counts[w] for w in space.points(B)), ZERO)
                        / n_steps
                    )
                    assert window == got.lhs
                    core_pairs += 1
    elapsed = time.monotonic() - start
    ok = elapsed < 120
    announce(
        capsys,
        4,
        ok,
        f"product rule on {len(systems)} systems: {pairs} capacity pairs and "
        f"{core_pairs} core pairs equal, literal windows close at four periods, "
        f"{elapsed:.1f}s",
    )
    assert ok, f"independence sweep took {elapsed:.1f}s, budget is 120s"


def _within_every_bound(V, Q) -> bool:
    # Q(A) <= V(A) for every mask, summing Q's point masses afresh per mask
    m = V.size
    for mask in range(1 << m):
        total = ZERO
        for w in range(m):
            if mask >> w & 1:
                total += Q.mass[w]
        if total > V.table[mask]:
            return False
    return True


def test_criterion_5_full_decomposition(capsys):
    systems = []
    k = 0
    while len(systems) < 120 and k < 600:
        rng = Random(93000 + k)
        k += 1
        m = rng.randint(2, 6)
        T = generate.random_permutation(rng, m)
        V = generate.random_upper_prob(rng, T)
        if not fec.ergodic_core_measures(V, T):
            continue
        verts = capacity.invariant_core_vertices(V, T)
        if not verts:
            continue
        weights = [rng.randint(0, 4) for _ in verts]
        if not any(weights):
            weights[0] = 1
        s = sum(weights)
        mass = [ZERO] * m
        for wgt, vert in zip(weights, verts):
            for w, v in enumerate(vert.mass):
                mass[w] += F(wgt, s) * v
        systems.append((V, T, Prob(tuple(mass))))
    # a four-point instance whose forced residual cannot sit in the core
    ident = Transformation((0, 1, 2, 3))
    spike = Prob((ONE, ZERO, ZERO, ZERO))
    uniform = Prob((F(1, 4),) * 4)
    systems.append((envelope([spike, uniform]), ident, uniform))

    fec_systems = 0
    with_residual = 0
    escapes = 0
    for V, T, P in systems:
        got = fec.full_decomposition(V, T, P)
        assert sum(got.coefficients) == 1
        assert all(c >= 0 for c in got.coefficients)
        recon = [ZERO] * T.size
        parts = list(got.measures) + ([got.residual] if got.residual is not None else [])
        for a, Q in zip(got.coefficients, parts):
            for w, v in enumerate(Q.mass):
                recon[w] += a * v
        assert tuple(recon) == P.mass
        # under FEC the part of P off the ergodic members' support is null,
        # so a residual can only come from a system without FEC
        if fec.zero_one_condition(V, T):
            fec_systems += 1
            assert got.residual is None, f"map {T.table} has FEC but left a residual"
        if got.residual is None:
            assert got.residual_in_core is None
        else:
            with_residual += 1
            assert measure.is_invariant(got.residual, T)
            for Q in got.measures:
                assert measure.singular(got.residual, Q)
            assert got.residual_in_core is _within_every_bound(V, got.residual)
            escapes += not got.residual_in_core
    # the four-point system, appended last, keeps its forced residual
    # (0, 1/3, 1/3, 1/3) outside the core: P_s({1}) = 1/3 > V({1}) = 1/4
    V4, T4, P4 = systems[-1]
    got = fec.full_decomposition(V4, T4, P4)
    assert got.residual.mass == (ZERO, F(1, 3), F(1, 3), F(1, 3))
    assert got.residual_in_core is False
    assert V4.table[0b0010] == F(1, 4) < got.residual.mass[1]
    ok = fec_systems > 0 and with_residual > 0
    announce(
        capsys,
        5,
        ok,
        f"{len(systems)} mixtures reconstructed exactly ({fec_systems} with FEC, "
        f"{len(systems) - fec_systems} without); no residual under FEC; residual "
        f"invariant, singular and its in-core flag confirmed by a full bound scan on "
        f"all {with_residual} that have one; {escapes} escape the core "
        f"(found, not a failure: the core clause needs FEC)",
    )
    assert ok, f"pool lost a branch: {fec_systems} FEC systems, {with_residual} residuals"


def test_criterion_6_noninvariant(capsys):
    instances = []
    for k in range(110):
        rng = Random(96000 + k)
        m = rng.randint(2, 6)
        T = generate.random_permutation(rng, m)
        P = generate.random_prob(rng, m)
        instances.append((P, T))
    pair_total = 0
    sweep_sets = 0
    for P, T in instances:
        m = T.size
        sys_ = NoninvariantSystem(P, T)
        part = noninvariant.irreducible_partition(P, T)
        assert noninvariant.verify_construction(sys_, part).all_pass
        for mask in range(1 << m):
            assert noninvariant.noninvariant_lln(sys_, indicator(mask, m), part)
        for B in range(1 << m):
            for C in range(1 << m):
                assert noninvariant.noninvariant_independence(sys_, B, C, part).equal
                pair_total += 1
        L = T.period
        for Pj, Vj in zip(part.conditionals, part.capacities):
            for mask in range(1 << m):
                assert Vj(mask) == oracle.oracle_window_sup(
                    Pj.mass, T.table, mask, 4 * L, 8 * L + 1
                )
                sweep_sets += 1
    announce(
        capsys,
        6,
        True,
        f"{len(instances)} non-invariant systems: construction verified, "
        f"law and product rule exhaustive ({pair_total} pairs), window "
        f"suprema match the literal sweep on {sweep_sets} sets",
    )


def test_criterion_7_choquet(capsys):
    for k in range(500):
        rng = Random(94000 + k)
        m = rng.randint(2, 6)
        V = envelope([generate.random_prob(rng, m) for _ in range(rng.randint(1, 4))])
        f = generate.random_function(rng, m)
        assert capacity.choquet_integral(V, f) == oracle.oracle_choquet(V.table, f.values)
    indicator_sets = 0
    for k in range(50):
        rng = Random(97000 + k)
        m = rng.randint(2, 5)
        V = envelope([generate.random_prob(rng, m) for _ in range(rng.randint(1, 4))])
        for mask in range(1 << m):
            assert capacity.choquet_integral(V, indicator(mask, m)) == V(mask)
            indicator_sets += 1
    announce(
        capsys,
        7,
        True,
        f"500 integrals match the sorted-sum oracle; indicator identity on "
        f"50 capacities ({indicator_sets} sets)",
    )


def test_criterion_8_skeleton(capsys):
    agreed = 0
    exact = 0
    for k in range(220):
        rng = Random(95000 + k)
        m = rng.randint(2, 6)
        invertible = k % 2 == 0
        T = (
            generate.random_permutation(rng, m)
            if invertible
            else generate.random_transformation(rng, m)
        )
        P = generate.random_prob(rng, m)
        sk = measure.invariant_skeleton(P, T)
        assert measure.is_invariant(sk, T)
        for mask in T.invariant_sets:
            assert sk(mask) == P(mask)
        agreed += 1
        if invertible:
            assert sk == measure.cesaro_limit(P, T)
            exact += 1
    announce(
        capsys,
        8,
        True,
        f"{agreed} skeletons invariant and agreeing on every fixed set; "
        f"{exact} invertible ones equal the orbit-average limit",
    )

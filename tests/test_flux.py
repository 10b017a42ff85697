import collections
import itertools
import random
import re
import time

import pytest
from hypothesis import given, strategies as st

from endcalc import flux
from endcalc.flux import (
    SWINDLE_PERMUTATIONS,
    EndPerm,
    FiniteExcluded,
    MultiEndPerm,
    Normalizer,
    PeriodicExcluded,
    ShiftKind,
    classify_shift,
    compose,
    factor_permutation,
    invert,
    mcompose,
    normalizer,
    parse_perm_literal,
    parse_shift_literal,
    perm_parity,
    phi,
    random_endperm,
    random_multiendperm,
    random_shiftspec,
    ray_local,
    ray_shift,
    ray_swap,
    suite_normalize,
    suite_phi,
    suite_theta,
    swindle_check,
    theta_tilde,
    theta_z,
    verify_normalization,
)
from conftest import minvert


class TestEndPerm:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            EndPerm(0, {0: 1})  # 1 hit twice, 0 never

    def test_normalizes_trivial_entries(self):
        f = EndPerm(2, {5: 7})
        assert f.table == {}
        assert f == EndPerm(2) and hash(f) == hash(EndPerm(2))

    def test_compose_identity(self):
        f = EndPerm(3, {-5: -1, -4: -2})
        assert compose(EndPerm(0), f) == f
        assert compose(f, EndPerm(0)) == f

    def test_shift_cancel(self):
        assert compose(EndPerm(1), EndPerm(-1)) == EndPerm(0)

    def test_compose_pointwise_example(self):
        g = EndPerm(0, {0: 1, 1: 0})
        assert compose(EndPerm(2), g)(0) == 3

    def test_compose_matches_pointwise(self, rng):
        for _ in range(300):
            f, g = random_endperm(rng), random_endperm(rng)
            fg = compose(f, g)
            for i in range(-25, 26):
                assert fg(i) == f(g(i))

    def test_invert_matches_pointwise(self, rng):
        for _ in range(200):
            f = random_endperm(rng)
            fi = invert(f)
            for i in range(-25, 26):
                assert fi(f(i)) == i and f(fi(i)) == i


def _phi_by_counting(f, c):
    """phi from its definition: each index moved across the cut, one by one."""
    left_right = sum(1 for i, v in f.table.items() if i < c <= v)
    right_left = sum(1 for i, v in f.table.items() if v < c <= i)
    if f.d > 0:
        left_right += sum(1 for i in range(c - f.d, c) if i not in f.table)
    elif f.d < 0:
        right_left += sum(1 for i in range(c, c - f.d) if i not in f.table)
    return left_right - right_left


class TestPhi:
    def test_identity_zero(self):
        assert phi(EndPerm(0), 4) == 0

    def test_full_shift_one(self):
        assert phi(EndPerm(1), 0) == 1

    def test_shifted_swap_example(self):
        f = EndPerm(3, {-5: -1, -4: -2})
        assert phi(f, 0) == 3

    def test_finitely_bounded_zero(self):
        assert phi(EndPerm(0, {0: 1, 1: 0}), 0) == 0

    def test_cut_independence_exhaustive_small(self):
        import itertools
        for d in range(-3, 4):
            pts = [-2, -1, 0, 1, 2]
            for img in itertools.permutations(pts):
                f = EndPerm(d, {i: j + d for i, j in zip(pts, img)})
                for c in (-7, -1, 0, 1, 6):
                    assert phi(f, c) == d

    @given(st.integers(-5, 5), st.integers(-20, 20))
    def test_phi_equals_translation(self, d, cut):
        assert phi(EndPerm(d), cut) == d

    def test_suite(self):
        assert suite_phi(1000, 42) == []

    def test_large_translation_in_constant_work(self):
        start = time.process_time()
        assert phi(EndPerm(10 ** 9), 0) == 10 ** 9
        f = EndPerm(-10 ** 9, {0: 1 - 10 ** 9, 1: -10 ** 9})
        assert phi(f, 1) == phi(f, -5) == -10 ** 9
        assert time.process_time() - start < 0.5

    def test_agrees_with_counting_every_index(self):
        rng = random.Random(4)
        for _ in range(3000):
            f = random_endperm(rng, max_d=12, max_support=8)
            for c in range(-22, 23, 3):
                assert phi(f, c) == _phi_by_counting(f, c)


class TestShifts:
    def test_classification(self):
        assert classify_shift(FiniteExcluded()) is ShiftKind.FULL
        assert classify_shift(FiniteExcluded((0, 5))) is ShiftKind.PERMISSIBLE
        assert (classify_shift(PeriodicExcluded(1, 3, (0,)))
                is ShiftKind.SPONTANEOUS)

    def test_periodic_excluded_membership(self):
        s = PeriodicExcluded(1, 3, (0,))
        assert [k for k in range(-4, 13) if s.contains(k)] == [3, 6, 9, 12]

    @pytest.mark.parametrize("excluded", [
        FiniteExcluded(()), FiniteExcluded((-9, -3, 0, 1, 2, 7, 40)),
        PeriodicExcluded(1, 3, (0,)), PeriodicExcluded(-30, 5, (1, 3)),
        PeriodicExcluded(4, 6, (-1, 9, 14)),  # residues outside [0, p)
    ])
    def test_members_lists_the_contained_indices(self, excluded):
        for lo, hi in ((-12, 12), (0, 0), (5, 4), (12, -12), (-100, -40),
                       (3, 3), (39, 41)):
            assert excluded.members(lo, hi) == [
                k for k in range(lo, hi + 1) if excluded.contains(k)]

    def test_periodic_needs_proper_residues(self):
        with pytest.raises(ValueError):
            PeriodicExcluded(1, 2, (0, 1))
        with pytest.raises(ValueError):
            PeriodicExcluded(1, 3, ())

    def test_normalizer_single_block(self):
        s = FiniteExcluded((0,))
        assert verify_normalization(s, normalizer(s), 50)

    def test_normalizer_two_blocks(self):
        s = FiniteExcluded((0, 5))
        assert verify_normalization(s, normalizer(s), 50)

    def test_normalizer_periodic(self):
        s = PeriodicExcluded(1, 3, (0,))
        assert verify_normalization(s, normalizer(s), 200)

    def test_wrong_normalizer_detected(self):
        s = FiniteExcluded((0, 5))
        wrong = Normalizer(FiniteExcluded((0, 4)))
        assert not verify_normalization(s, wrong, 50)

    def test_full_shift_has_no_normalizer(self):
        with pytest.raises(ValueError):
            normalizer(FiniteExcluded())

    def test_adjacent_excluded_runs(self):
        s = FiniteExcluded((0, 1, 2, 7))
        assert verify_normalization(s, normalizer(s), 80)

    def test_suite(self):
        assert suite_normalize(500, 42) == []

    def test_random_specs_are_never_full_shifts(self):
        # suite_normalize counts every draw as a trial, so none may be a
        # full shift, which has nothing to normalize
        rng = random.Random(42)
        kinds = [classify_shift(random_shiftspec(rng)) for _ in range(2000)]
        assert kinds.count(ShiftKind.FULL) == 0

    def test_random_specs_normalize(self, rng):
        for _ in range(120):
            s = random_shiftspec(rng)
            assert verify_normalization(s, normalizer(s), 200)


class TestSwindle:
    def test_identity(self):
        assert swindle_check(EndPerm(0), 1, 100)

    def test_transposition(self):
        assert swindle_check(EndPerm(0, {0: 1, 1: 0}), 1, 100)

    def test_three_cycle(self):
        assert swindle_check(EndPerm(0, {-1: 0, 0: 1, 1: -1}), 2, 100)

    def test_support_exceeding_window_rejected(self):
        with pytest.raises(ValueError):
            swindle_check(EndPerm(0, {2: 3, 3: 2}), 1, 50)

    def test_translation_rejected(self):
        with pytest.raises(ValueError, match="eventual-translation-0"):
            swindle_check(EndPerm(1), 2, 10)

    def test_overlapping_windows_rejected(self):
        f = EndPerm(0, {-1: 1, 1: -1})
        with pytest.raises(ValueError, match="overlap; enlarge k"):
            swindle_check(f, 1, 100)
        assert swindle_check(f, 2, 100)

    @pytest.mark.parametrize("k", [0, -1, -5])
    def test_k_below_one_rejected(self, k):
        for f in (EndPerm(0), EndPerm(0, {0: 1, 1: 0})):
            with pytest.raises(ValueError, match="k must be at least 1"):
                swindle_check(f, k, 10)

    def test_suite_exhaustive(self, swindle_errors):
        assert swindle_errors == []


class TestMultiEndPerm:
    def test_validation_rejects_collision(self):
        with pytest.raises(ValueError):
            MultiEndPerm(2, tables=[{0: (1, 0)}, {}])

    def test_validation_rejects_negative_default(self):
        with pytest.raises(ValueError):
            MultiEndPerm(2, offsets=(-1, 1))

    def test_ray_shift_is_bijective(self):
        m = ray_shift(3, 0, 2)
        assert m.apply(0, 0) == (2, 0)
        assert m.apply(0, 5) == (0, 4)
        assert m.apply(2, 5) == (2, 6)
        with pytest.raises(ValueError, match="two distinct rays"):
            ray_shift(3, 1, 1)

    def test_compose_matches_pointwise(self, rng):
        for _ in range(150):
            n = rng.randint(2, 4)
            f = random_multiendperm(rng, n)
            g = random_multiendperm(rng, n)
            fg = mcompose(f, g)
            for r in range(n):
                for i in range(12):
                    assert fg.apply(r, i) == f.apply(*g.apply(r, i))
        twice = mcompose(ray_swap(3, 0, 1), ray_swap(3, 0, 1))
        assert twice == MultiEndPerm(3)
        assert hash(twice) == hash(MultiEndPerm(3))
        assert twice != ray_swap(3, 0, 1) and twice != EndPerm(0)

    def test_invert_matches_pointwise(self, rng):
        for _ in range(150):
            n = rng.randint(2, 4)
            f = random_multiendperm(rng, n)
            fi = minvert(f)
            for r in range(n):
                for i in range(12):
                    assert fi.apply(*f.apply(r, i)) == (r, i)

    def test_factor_permutation(self):
        des = [ray_swap(4, 0, 1), ray_swap(4, 1, 2), ray_swap(4, 2, 3)]
        target = (3, 2, 0, 1)
        word = factor_permutation(target, des)
        acc = MultiEndPerm(4)
        for gi in word:
            acc = mcompose(acc, des[gi])
        assert acc.rho == target

    def test_factor_permutation_failure(self):
        with pytest.raises(ValueError):
            factor_permutation((1, 0, 2), [ray_swap(3, 1, 2)])


class TestThetaZ:
    def test_all_identity(self):
        assert theta_z([EndPerm(0), EndPerm(0)], 3) == (0, 0)

    def test_basis_shift(self):
        assert theta_z([EndPerm(1), EndPerm(0)], 3) == (1, 0)

    def test_composite(self):
        assert theta_z([EndPerm(1), EndPerm(1)], 3) == (1, 1)

    def test_section_property(self):
        # the tuple with 1 in slot i is realized by the slot-i shift model
        n = 4
        for i in range(n - 1):
            models = [EndPerm(1) if j == i else EndPerm(0)
                      for j in range(n - 1)]
            expected = tuple(1 if j == i else 0 for j in range(n - 1))
            assert theta_z(models, n) == expected

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            theta_z([EndPerm(0)], 3)

    @pytest.mark.parametrize("n", [0, -3])
    def test_no_maximal_end(self, n):
        with pytest.raises(ValueError, match="at least one maximal end"):
            theta_z([], n)


class TestThetaTilde:
    DES2 = [ray_swap(2, 0, 1)]

    def test_designated_swap(self):
        assert theta_tilde(ray_swap(2, 0, 1), self.DES2) == (0, 1)

    def test_unit_shift(self):
        assert theta_tilde(ray_shift(2, 0, 1), self.DES2) == (1, 0)

    def test_ladder_rotation_pair(self):
        # the swap carrying one extra token across the rays
        tau = MultiEndPerm(2, rho=(1, 0), offsets=(1, -1),
                           tables=[{}, {0: (1, 0)}])
        assert theta_tilde(tau, self.DES2) == (1, 1)

    def test_compact_rearrangement_is_trivial(self):
        loc = ray_local(2, 0, {0: 1, 1: 0})
        assert theta_tilde(loc, self.DES2) == (0, 0)

    def test_homomorphism_suite(self):
        assert suite_theta(1000, 42) == []

    def test_representative_independence(self, rng):
        n = 4
        base = [ray_swap(n, i, i + 1) for i in range(n - 1)]
        redundant = base + [ray_swap(n, 0, 2), ray_swap(n, 0, 3)]
        for _ in range(200):
            f = random_multiendperm(rng, n, rays=(0, 3))
            assert theta_tilde(f, base) == theta_tilde(f, redundant)

    def test_parity(self):
        assert perm_parity((1, 0, 2)) == 1
        assert perm_parity((1, 2, 0)) == 0
        assert perm_parity((0, 1, 2)) == 0


class TestLiterals:
    def test_perm(self):
        assert parse_perm_literal("d=1") == EndPerm(1)
        assert parse_perm_literal("d=0 table={0:1,1:0}") == \
            EndPerm(0, {0: 1, 1: 0})
        assert parse_perm_literal("perm d=-2 table={}") == EndPerm(-2)
        assert parse_perm_literal("d=0 table={0:1,1:0,}") == \
            EndPerm(0, {0: 1, 1: 0})

    def test_perm_errors(self):
        with pytest.raises(ValueError):
            parse_perm_literal("table={0:1}")
        with pytest.raises(ValueError):
            parse_perm_literal("d=0 table={0:}")

    def test_perm_translation_over_the_digit_limit_names_the_literal(self):
        text = "d=" + "9" * 5000
        with pytest.raises(ValueError) as exc:
            parse_perm_literal(text)
        assert str(exc.value).startswith("bad permutation literal %r: "
                                         "Exceeds the limit" % text)

    def test_shift(self):
        s = parse_shift_literal("excluded=finite{0,5}")
        assert s == FiniteExcluded((0, 5))
        s = parse_shift_literal("shift excluded=periodic{N=1,p=3,r=0}")
        assert s == PeriodicExcluded(1, 3, (0,))
        s = parse_shift_literal("excluded=finite{}")
        assert s == FiniteExcluded(())

    def test_shift_errors(self):
        with pytest.raises(ValueError):
            parse_shift_literal("excluded=weekly{1}")

    @pytest.mark.parametrize("text, entry", [
        ("excluded=finite{1-2}", "1-2"),
        ("excluded=periodic{N=1,p=3,r=-,}", "-"),
    ])
    def test_shift_entry_errors_name_the_literal(self, text, entry):
        with pytest.raises(ValueError) as exc:
            parse_shift_literal(text)
        assert str(exc.value) == ("bad shift literal %r: invalid literal for "
                                  "int() with base 10: %r" % (text, entry))


# ---------------------------------------------------------------------------
# Reference forms: the plain loops that theta_tilde, verify_normalization,
# the repetition map and MultiEndPerm._validate replaced, and the shift and
# normalizer evaluated pointwise, which verify_normalization writes inline
# ---------------------------------------------------------------------------


def _theta_tilde_by_mcompose(f, designated):
    word = factor_permutation(
        tuple(f.rho.index(r) for r in range(f.n)), designated)
    g = MultiEndPerm(f.n)
    for gi in word:
        g = mcompose(g, designated[gi])
    h = mcompose(f, g)
    assert h.rho == tuple(range(h.n))
    return (sum(h.offsets[1:]) % 2,
            perm_parity(f.rho))


def _eta(s, i):
    """The shift skipping s evaluated on index i: skipped indices stay
    fixed."""
    if s.contains(i):
        return i
    j = i + 1
    while s.contains(j):
        j += 1
    return j


def _normalize(t, j):
    """The normalizer t evaluated on index j: the block of a skipped run
    [s..e] acts as the cycle s -> s+1 -> ... -> e+1 -> s."""
    excluded = t.excluded.contains
    if excluded(j):
        return j + 1
    if excluded(j - 1):
        s = j - 1
        while excluded(s - 1):
            s -= 1
        return s
    return j


def _verify_normalization_by_generator(s, t, window):
    return all(_normalize(t, _eta(s, i)) == i + 1
               for i in range(-window, window + 1))


def _factor_permutation_bfs(target, designated):
    """factor_permutation's breadth-first search, run afresh on each call."""
    target = tuple(target)
    n = len(target)
    start = tuple(range(n))
    if target == start:
        return []
    frontier = [(start, [])]
    seen = {start}
    while frontier:
        nxt = []
        for perm, word in frontier:
            for gi, g in enumerate(designated):
                new = tuple(g.rho[perm[r]] for r in range(n))
                if new in seen:
                    continue
                nw = [gi] + word
                if new == target:
                    return nw
                seen.add(new)
                nxt.append((new, nw))
        frontier = nxt
    raise ValueError("designated twists do not realize the ray permutation")


def _random_multiendperm_from_identity(rng, n, rays=None):
    """random_multiendperm with its word composed onto the identity map."""
    pool = tuple(range(n)) if rays is None else rays
    m = MultiEndPerm(n)
    for _ in range(rng.randint(1, 5)):
        kind = rng.randrange(3)
        if kind == 0 and len(pool) >= 2:
            a, b = rng.sample(pool, 2)
            atom = ray_swap(n, a, b)
        elif kind == 1 and len(pool) >= 2:
            a, b = rng.sample(pool, 2)
            atom = ray_shift(n, a, b)
        else:
            r = rng.choice(pool)
            size = rng.randint(2, 4)
            idx = list(range(size))
            rng.shuffle(idx)
            atom = ray_local(n, r, {i: j for i, j in enumerate(idx)})
        m = mcompose(m, atom)
    return m


def _repetition_map_recursive(f, k):
    cache = {}

    def h(x):
        if x < -k:
            return x
        if x not in cache:
            cache[x] = f(h(x - 2 * k) + 2 * k)
        return cache[x]

    return h


def _swindle_check_recursive(f, k, window):
    h = _repetition_map_recursive(f, k)
    lo, hi = -window - 4 * k - 2, window + 4 * k + 2
    inv = {h(x): x for x in range(lo, hi + 1)}
    return all(h(inv[x - 2 * k] + 2 * k) == f(x)
               for x in range(-window, window + 1))


def _validate_by_loop(m):
    if sorted(m.rho) != list(range(m.n)):
        raise ValueError("rho is not a permutation of the rays")
    if len(m.offsets) != m.n or len(m.tables) != m.n:
        raise ValueError("per-ray data must cover every ray")
    radius = 2
    for r in range(m.n):
        for i, (t, j) in m.tables[r].items():
            if i < 0 or j < 0 or not (0 <= t < m.n):
                raise ValueError("table entries must stay on the rays")
            radius = max(radius, i + 1, j + 1)
    radius += max((abs(o) for o in m.offsets), default=0)
    hits = {}
    for r in range(m.n):
        for i in range(radius + max(abs(m.offsets[r]), 0) + 1):
            t, j = m.apply(r, i)
            if j < 0:
                raise ValueError("ray %d index %d maps below the ray base"
                                 % (r, i))
            if j <= radius:
                key = (t, j)
                if key in hits:
                    raise ValueError("not injective at %s" % (key,))
                hits[key] = 1
    for t in range(m.n):
        for j in range(radius + 1):
            if (t, j) not in hits:
                raise ValueError("not surjective at %s" % ((t, j),))


def _swindle_cases():
    """Every (map, k) that suite_swindle and the flux benchmark check."""
    for k in (1, 2, 3):
        pts = list(range(-k, k + 1))
        for img in itertools.permutations(pts):
            table = {i: j for i, j in zip(pts, img) if i != j}
            overlap = -k in table and k in table
            yield EndPerm(0, table), k, overlap


class TestAgainstReference:
    def test_theta_tilde(self):
        rng = random.Random(11)
        for _ in range(600):
            n = rng.randint(2, 5)
            base = [ray_swap(n, i, i + 1) for i in range(n - 1)]
            extra = [ray_swap(n, *rng.sample(range(n), 2))
                     for _ in range(rng.randint(1, 3))]
            f = random_multiendperm(rng, n)
            for designated in (base, base + extra, extra + base):
                assert (theta_tilde(f, designated)
                        == _theta_tilde_by_mcompose(f, designated))

    def test_theta_tilde_rejects_mixed_ray_counts(self):
        with pytest.raises(ValueError, match="ray counts differ"):
            theta_tilde(ray_swap(2, 0, 1), [ray_swap(3, 0, 1)])
        with pytest.raises(ValueError, match="ray counts differ"):
            mcompose(ray_swap(2, 0, 1), ray_swap(3, 0, 1))

    def test_factor_permutation(self):
        failures = 0
        for n in range(1, 6):
            adjacent = [ray_swap(n, i, i + 1) for i in range(n - 1)]
            closed = adjacent + [ray_swap(n, 0, n - 1)]
            for designated in (adjacent, closed, closed[::-1],
                               adjacent[:-1]):  # the last cannot move ray n-1
                for target in itertools.permutations(range(n)):
                    try:
                        ref = _factor_permutation_bfs(target, designated)
                    except ValueError as e:
                        failures += 1
                        for _ in range(2):  # a failure is never memoized
                            with pytest.raises(ValueError) as exc:
                                factor_permutation(target, designated)
                            assert str(exc.value) == str(e)
                        continue
                    word = factor_permutation(target, designated)
                    assert word == ref
                    word.append(0)  # each call gets a list of its own
                    assert factor_permutation(list(target), designated) == ref
        assert failures == 1 + 4 + 18 + 96  # n! - (n - 1)! per n >= 2

    @pytest.mark.parametrize("rays", [False, True])
    def test_random_multiendperm(self, rays):
        draws = random.Random(14)
        for _ in range(2000):
            n = draws.randint(2, 5)
            pair = tuple(draws.sample(range(n), 2)) if rays else None
            seed = draws.getrandbits(32)
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got = random_multiendperm(rng, n, rays=pair)
            ref = _random_multiendperm_from_identity(ref_rng, n, rays=pair)
            assert got == ref and repr(got) == repr(ref)
            assert rng.random() == ref_rng.random()

    def test_swindle_and_repetition_map(self):
        cases = list(_swindle_cases())
        assert len(cases) == 5166
        for f, k, overlap in cases:
            if overlap:
                with pytest.raises(ValueError, match="overlap; enlarge k"):
                    swindle_check(f, k, 1)
                k += 1
            ref = _repetition_map_recursive(f, k)
            assert flux._repetition_pass(f, k, -5 * k, 5 * k) \
                == [ref(x) for x in range(-5 * k, 5 * k + 1)]
            for window in (1, 7, 200):
                assert swindle_check(f, k, window) \
                    == _swindle_check_recursive(f, k, window)

    def test_repetition_map_far_from_the_base(self):
        f = EndPerm(0, {0: 1, 1: 0})
        ref = _repetition_map_recursive(f, 1)
        expected = [ref(x) for x in range(-3, 5001)]  # ascending: shallow
        assert flux._repetition_pass(f, 1, -3, 5000) == expected

    def test_verify_normalization(self):
        rng = random.Random(12)
        seen = set()
        for _ in range(400):
            s = random_shiftspec(rng)
            starts = rng.sample(range(-22, 22), rng.randint(1, 4))
            wrong = Normalizer(FiniteExcluded(tuple(
                i for a in starts for i in range(a, a + rng.randint(0, 2) + 1)
            )))
            p = rng.randint(2, 6)
            periodic_wrong = Normalizer(PeriodicExcluded(
                rng.randint(-70, 10), p,
                tuple(rng.sample(range(p), rng.randint(1, p - 1)))))
            for t in (normalizer(s), wrong, periodic_wrong):
                window = rng.choice((0, 1, 2, 9, 60))
                got = verify_normalization(s, t, window)
                assert got == _verify_normalization_by_generator(s, t, window)
                seen.add((type(t.excluded), got))
        assert len(seen) == 4  # each kind of normalizer passes and fails

    @pytest.mark.parametrize("window", [0, 1, 2, 60])
    def test_verify_normalization_at_the_window_edges(self, window):
        w = window
        shifts = [
            FiniteExcluded((-w - 1, -w)), FiniteExcluded((w, w + 1)),
            FiniteExcluded((-w - 2, -w - 1, w + 1, w + 2)),
            FiniteExcluded((w + 1,)), FiniteExcluded((-w - 1,)),
            FiniteExcluded((-w - 9, -w - 8, w + 5)),  # wholly outside
            PeriodicExcluded(-w - 7, 3, (0,)), PeriodicExcluded(-w - 1, 2, (1,)),
            PeriodicExcluded(w, 4, (1, 2)), PeriodicExcluded(w + 1, 5, (0, 3)),
        ]
        wrongs = [
            FiniteExcluded(()), FiniteExcluded((w,)), FiniteExcluded((-w - 1,)),
            FiniteExcluded((w + 1, w + 2)), FiniteExcluded((-w - 9, w + 9)),
            PeriodicExcluded(-w - 7, 3, (1,)), PeriodicExcluded(-w, 2, (0,)),
            PeriodicExcluded(w + 1, 4, (2,)), PeriodicExcluded(w + 2, 5, (0, 3)),
        ]
        seen = set()
        for s in shifts:
            for t in [normalizer(s)] + [Normalizer(e) for e in wrongs]:
                got = verify_normalization(s, t, window)
                assert got == _verify_normalization_by_generator(s, t, window)
                seen.add(got)
        assert seen == {True, False}

    def test_validate_messages(self):
        rng = random.Random(13)
        kinds = collections.Counter()
        for _ in range(3000):
            n = rng.randint(2, 4)
            if rng.random() < 0.5:
                base = random_multiendperm(rng, n)
                rho, offsets = base.rho, base.offsets
                tables = [dict(t) for t in base.tables]
            else:
                rho = tuple(rng.sample(range(n), n))
                offsets = tuple(rng.randint(-2, 2) for _ in range(n))
                tables = [{} for _ in range(n)]
            for _ in range(rng.randint(0, 3)):
                tables[rng.randrange(n)][rng.randint(-1, 5)] = (
                    rng.randint(-1, n), rng.randint(-1, 7))
            if rng.random() < 0.05:
                rho = rho[:-1] + rho[:1]
            if rng.random() < 0.05:
                offsets = offsets[:-1]
            m = MultiEndPerm.__new__(MultiEndPerm)  # not validated yet
            m.n, m.rho, m.offsets, m.tables = n, rho, offsets, tuple(tables)
            outcome = []
            for check in (m._validate, lambda: _validate_by_loop(m)):
                try:
                    check()
                    outcome.append("valid")
                except ValueError as e:
                    outcome.append(str(e))
            assert outcome[0] == outcome[1]
            kinds[re.sub(r"-?\d+", "N", outcome[0])] += 1
        assert set(kinds) == {
            "valid", "rho is not a permutation of the rays",
            "per-ray data must cover every ray",
            "table entries must stay on the rays",
            "ray N index N maps below the ray base",
            "not injective at (N, N)", "not surjective at (N, N)"}, kinds


def _kinds(errors):
    """The distinct messages of a suite, numbers and reprs left out."""
    return {re.split(r" (?:at|for|\(trial)|: ", e)[0] for e in errors}


class TestSuitesReportViolations:
    """Each suite returns its message lines when the law it checks fails."""

    def test_phi(self, monkeypatch):
        calls = itertools.count()  # a different flux on every call
        monkeypatch.setattr(flux, "phi", lambda f, c=0: next(calls))
        assert _kinds(suite_phi(10, 42)) == {
            "full shift must have flux 1", "additivity failed",
            "inverse flux failed", "conjugation invariance failed",
            "cut independence failed"}

    def test_normalize(self, monkeypatch):
        monkeypatch.setattr(flux, "verify_normalization",
                            lambda s, t, window: False)
        errors = suite_normalize(7, 42)
        assert len(errors) == 7
        assert _kinds(errors) == {"normalization failed"}
        assert errors[6].endswith("(trial 6)")

    def test_swindle(self, monkeypatch):
        monkeypatch.setattr(flux, "swindle_check", lambda f, k, window: False)
        monkeypatch.setattr(flux, "_check_repetition", lambda f, k: None)
        errors = flux.suite_swindle(3)
        assert _kinds(errors) == {"overlap not rejected", "swindle failed"}
        failed = [e for e in errors if e.startswith("swindle failed")]
        assert len(failed) == SWINDLE_PERMUTATIONS
        # an overlapping map is checked at k + 1, right after its report
        for i, e in enumerate(errors):
            if e.startswith("overlap not rejected"):
                k = int(re.match(r"overlap not rejected: k=(\d+)", e)[1])
                assert errors[i + 1].startswith("swindle failed: k=%d"
                                                % (k + 1))

    def test_theta(self, monkeypatch):
        calls = itertools.count()
        monkeypatch.setattr(flux, "theta_tilde",
                            lambda f, designated: (next(calls) % 2, 0))
        errors = suite_theta(5, 42)
        assert len(errors) == 1
        assert errors[0].startswith("theta_tilde not additive at trial 0 "
                                    "(MultiEndPerm(n=")
        # additive, but a redundant generating set changes the value
        monkeypatch.setattr(
            flux, "theta_tilde",
            lambda f, designated: (0, int(len(designated) >= f.n)))
        assert suite_theta(5, 42) == [
            "theta_tilde depends on twist factorization at trial 0"]

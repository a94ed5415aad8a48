import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from gapsmith import semiorder as so
import bruteforce
from bruteforce import canonical_form, labeled_semiorders


def test_check_axioms_valid():
    m = [[False, True, False], [False] * 3, [False] * 3]
    assert isinstance(so.check_axioms(m), so.Valid)


def test_check_axioms_violates1():
    m = [[False] * 4 for _ in range(4)]
    m[0][1] = m[2][3] = True
    v = so.check_axioms(m)
    assert isinstance(v, so.Violates1)
    assert m[v.x][v.y] and m[v.z][v.t] and not m[v.x][v.t] and not m[v.z][v.y]


def test_check_axioms_violates2():
    m = [[False] * 4 for _ in range(4)]
    m[0][1] = m[1][2] = m[0][2] = True
    v = so.check_axioms(m)
    assert isinstance(v, so.Violates2)
    assert m[v.x][v.y] and m[v.y][v.z] and not m[v.x][v.w] and not m[v.w][v.z]


def test_check_axioms_not_asymmetric():
    with pytest.raises(so.NotAsymmetric):
        so.check_axioms([[False, True], [True, False]])
    with pytest.raises(so.NotAsymmetric):
        so.check_axioms([[True]])


def test_check_axioms_matches_oracle_on_all_small_relations():
    count = 0
    for n in range(1, 5):
        for m in bruteforce.asymmetric_relations(n):
            assert so.check_axioms(m) == bruteforce.axiom_witness(m), m
            count += 1
    assert count == 760


@hs.composite
def perturbed_shapes(draw):
    """A relabeled shape on 6..12 points with one ordered pair flipped."""
    r = draw(shaped_semiorders(6, 12))
    n, m = r.n, [list(row) for row in r.strict]
    a, b = draw(hs.sampled_from([(a, b) for a in range(n) for b in range(n) if a != b]))
    m[a][b], m[b][a] = not m[a][b], False
    return m


@settings(max_examples=150, deadline=None)
@given(perturbed_shapes())
def test_check_axioms_matches_oracle_near_shapes(m):
    assert so.check_axioms(m) == bruteforce.axiom_witness(m)


def test_trace_and_cuts_match_set_definitions():
    for n in range(1, 6):
        _, items = so.enumerate_semiorders(n)
        for r in items:
            assert so.trace(r) == bruteforce.trace_weak(r)
            assert so.irreducible_blocks(r) == bruteforce.irreducible_blocks(r)


def test_trace_and_cuts_reject_non_semiorders():
    r = so.semiorder(4, [(0, 1), (2, 3)])
    for fn in (so.trace, so.irreducible_blocks, so.irreducible_components):
        with pytest.raises(so.NotASemiorder, match="Violates1"):
            fn(r)


def _relabeled_shape(n: int, seed: int) -> so.Semiorder:
    rng = random.Random(seed)
    f: list[int] = []
    for i in range(n):
        f.append(rng.randint(max(f[-1] if f else 0, i + 1), n))
    perm = list(range(n))
    rng.shuffle(perm)
    return so.semiorder(n, [(perm[i], perm[j]) for i in range(n) for j in range(f[i], n)])


@pytest.mark.parametrize("n", [40, 80])
def test_valid_relations_skip_the_quadruple_search(monkeypatch, n):
    def no_product(*args, **kwargs):
        raise AssertionError("quadruple search on a valid relation")

    monkeypatch.setattr(itertools, "product", no_product)
    chain = so.semiorder(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    for r in (chain, so.semiorder(n, []), _relabeled_shape(n, n)):
        assert isinstance(so.check_axioms(r.strict), so.Valid)
        assert so.check_ss(r, so.synthesize_ss(r)) == (True, None)
        assert sum(c.n for c in so.irreducible_components(r)) == n


def test_trace_antichain():
    r = so.semiorder(3, [])
    t = so.trace(r)
    assert all(t[i][j] for i in range(3) for j in range(3))


def test_trace_chain():
    r = so.semiorder(3, [(0, 1), (1, 2), (0, 2)])
    t = so.trace(r)
    assert t[0][1] and t[1][2] and not t[1][0] and not t[2][1]


def test_trace_middle_element():
    # a < c with b incomparable to both: the trace still sorts a below b below c.
    r = so.semiorder(3, [(0, 2)])
    t = so.trace(r)
    assert t[0][1] and not t[1][0]
    assert t[1][2] and not t[2][1]


def test_check_ss_examples():
    r = so.semiorder(2, [(0, 1)])
    assert so.check_ss(r, so.SSRep((F(0), F(2)))) == (True, None)
    ok, witness = so.check_ss(r, so.SSRep((F(0), F(1))))
    assert not ok and witness == (0, 1)
    r3 = so.semiorder(3, [(0, 2)])
    assert so.check_ss(r3, so.SSRep((F(0), F(3, 5), F(8, 5)))) == (True, None)


def test_synthesize_singleton():
    assert so.synthesize_ss(so.semiorder(1, [])).values == (F(0),)


def test_synthesize_empty():
    r = so.semiorder(0, [])
    assert so.synthesize_ss(r) == so.SSRep(())
    assert so.check_ss(r, so.SSRep(())) == (True, None)


def test_synthesize_pinned_values():
    # The integer solve at threshold 2n, divided by 2n.
    assert so.synthesize_ss(so.semiorder(2, [(0, 1)])).values == (F(0), F(5, 4))
    assert so.synthesize_ss(so.semiorder(3, [(0, 2)])).values == (F(0), F(1), F(7, 6))
    r4 = so.semiorder(4, [(0, 2), (0, 3), (1, 3)])
    assert so.synthesize_ss(r4).values == (F(0), F(1, 8), F(9, 8), F(5, 4))


@hs.composite
def shaped_semiorders(draw, low=7, high=14):
    """A relabeled shape: i < j iff j >= f(i), f non-decreasing with i < f(i) <= n."""
    n = draw(hs.integers(low, high))
    f: list[int] = []
    for i in range(n):
        f.append(draw(hs.integers(max(f[-1] if f else 0, i + 1), n)))
    perm = draw(hs.permutations(range(n)))
    return so.semiorder(n, [(perm[i], perm[j]) for i in range(n) for j in range(f[i], n)])


@settings(max_examples=60, deadline=None)
@given(shaped_semiorders())
def test_synthesize_beyond_enumeration(r):
    rep = so.synthesize_ss(r)
    assert so.check_ss(r, rep) == (True, None)
    t = so.trace(r)
    for x in range(r.n):
        for y in range(r.n):
            if t[x][y]:
                assert rep.values[x] <= rep.values[y]
    assert all((v * 2 * r.n).denominator == 1 for v in rep.values)


def test_synthesize_pair():
    r = so.semiorder(2, [(0, 1)])
    rep = so.synthesize_ss(r)
    assert so.check_ss(r, rep) == (True, None)
    assert rep.values[1] - rep.values[0] >= 1 + F(1, 4)


def test_synthesize_antichain_bounds():
    r = so.semiorder(3, [])
    rep = so.synthesize_ss(r)
    for x, y in itertools.combinations(range(3), 2):
        assert abs(rep.values[x] - rep.values[y]) <= 1


def test_synthesize_uncertified_raises(monkeypatch):
    monkeypatch.setattr(so, "check_ss", lambda r, u: (False, (0, 1)))
    with pytest.raises(so.SynthesisFailed) as info:
        so.synthesize_ss(so.semiorder(2, [(0, 1)]))
    assert info.value.witness == (0, 1)


def test_synthesize_rejects_non_semiorder():
    m = [[False] * 4 for _ in range(4)]
    m[0][1] = m[2][3] = True
    with pytest.raises(so.NotASemiorder):
        so.synthesize_ss(so.Semiorder(4, so._as_matrix(m)))


def test_irreducible_cut():
    r = so.semiorder(2, [(0, 1)])
    comps = so.irreducible_components(r)
    assert [c.n for c in comps] == [1, 1]


def test_irreducible_antichain_whole():
    r = so.semiorder(3, [])
    assert [c.n for c in so.irreducible_components(r)] == [3]


def test_irreducible_chain_fully_cut():
    r = so.semiorder(3, [(0, 1), (1, 2), (0, 2)])
    assert [c.n for c in so.irreducible_components(r)] == [1, 1, 1]


def test_glue_formula():
    g = so.glue(
        [(so.semiorder(1, []), so.SSRep((F(0),))), (so.semiorder(1, []), so.SSRep((F(0),)))]
    )
    assert g.values == (F(0), F(2))


def test_glue_single_part():
    rep = so.SSRep((F(0), F(1, 3)))
    assert so.glue([(so.semiorder(2, []), rep)]) == rep


def test_glue_shift():
    chain = so.semiorder(2, [(0, 1)])
    u1 = so.SSRep((F(0), F(3, 2)))
    antichain = so.semiorder(2, [])
    u2 = so.SSRep((F(-1, 2), F(1, 4)))
    g = so.glue([(chain, u1), (antichain, u2)])
    # m = 3/2 - (-1/2) + 2 = 4
    assert g.values == (F(0), F(3, 2), F(7, 2), F(17, 4))
    combined = so.concat_semiorders([chain, antichain])
    assert so.check_ss(combined, g) == (True, None)


def test_glue_random_decomposables():
    rng = random.Random(5)
    _, pool = so.enumerate_semiorders(3)
    for _ in range(25):
        parts = [pool[rng.randrange(len(pool))] for _ in range(rng.randrange(2, 4))]
        reps = [so.synthesize_ss(p) for p in parts]
        glued = so.glue(list(zip(parts, reps)))
        assert so.check_ss(so.concat_semiorders(parts), glued) == (True, None)


def test_enumerate_counts():
    assert so.enumerate_semiorders(1, up_to_iso=True)[0] == 1
    assert so.enumerate_semiorders(2, up_to_iso=True)[0] == 2
    assert so.enumerate_semiorders(3, up_to_iso=True)[0] == 5
    assert so.enumerate_semiorders(4, up_to_iso=True)[0] == 14


def test_enumerate_matches_bruteforce():
    for n in range(1, 5):
        count, items = so.enumerate_semiorders(n)
        found = [r.strict for r in items]
        assert count == len(set(found)) == len(found)
        assert set(found) == labeled_semiorders(n)


def test_enumerate_shapes_are_isomorphism_classes():
    for n in range(1, 6):
        _, shapes = so.enumerate_semiorders(n, up_to_iso=True)
        keys = [canonical_form(r.strict) for r in shapes]
        assert len(set(keys)) == len(keys)
        _, items = so.enumerate_semiorders(n)
        assert {canonical_form(r.strict) for r in items} == set(keys)


def test_enumerate_without_numpy():
    src = Path(so.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import gapsmith\n"
        "print(gapsmith.enumerate_semiorders(4)[0])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("GAPSMITH_MAX_N", None)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "183"


def test_enumerate_too_large(monkeypatch):
    monkeypatch.setenv("GAPSMITH_MAX_N", "4")
    with pytest.raises(so.TooLarge):
        so.enumerate_semiorders(5)


def test_trace_totality_and_synthesis_small():
    for n in range(1, 5):
        _, items = so.enumerate_semiorders(n)
        for r in items:
            t = so.trace(r)
            for x in range(n):
                for y in range(n):
                    assert t[x][y] or t[y][x]
            rep = so.synthesize_ss(r)
            assert so.check_ss(r, rep) == (True, None)
            for x in range(n):
                for y in range(n):
                    if t[x][y]:
                        assert rep.values[x] <= rep.values[y]


def test_enumerate_n5_catalan():
    count, _ = so.enumerate_semiorders(5, up_to_iso=True)
    assert count == 42


def test_irreducible_concatenation_reconstructs():
    for n in range(1, 5):
        _, items = so.enumerate_semiorders(n)
        for r in items:
            blocks = so.irreducible_blocks(r)
            order = [x for block in blocks for x in block]
            rebuilt = so.concat_semiorders([so._induced(r, block) for block in blocks])
            for i in range(n):
                for j in range(n):
                    assert rebuilt.strict[i][j] == r.strict[order[i]][order[j]]

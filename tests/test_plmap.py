import random
from fractions import Fraction as F

import pytest

from gapsmith import debreu, plmap
from gapsmith import pointset as ps
from conftest import sampled_counterexample
from bruteforce import sample_points


def _identity_on(lo, hi):
    s = ps.pointset(ps.interval(lo, hi))
    return plmap.identity(s), s


def test_apply_identity():
    m, _ = _identity_on(0, 1)
    assert m.apply(F(3, 7)) == F(3, 7)


def test_apply_fuse_piece():
    # Left piece of the two-piece fuse of [1/2, 3/5): slope 10/9 through 0.
    piece = plmap.AffinePiece(F(0), F(1, 2), F(10, 9), F(0))
    m = plmap.PLMap((piece,), ps.pointset(ps.interval(0, F(1, 2))))
    assert m.apply(F(1, 2)) == F(5, 9)


def test_apply_out_of_domain():
    m, _ = _identity_on(0, 1)
    with pytest.raises(plmap.OutOfDomain):
        m.apply(F(2))


def test_apply_shared_breakpoint_takes_right_piece():
    # The map jumps up at 1: the left piece ends at 1, the right starts at 3.
    s = ps.pointset(ps.interval(0, 2))
    m = plmap.PLMap(
        (
            plmap.AffinePiece(F(0), F(1), F(1), F(0)),
            plmap.AffinePiece(F(1), F(2), F(1), F(2)),
        ),
        s,
    )
    assert m.apply(F(1)) == 3
    assert m.apply(F(1, 2)) == F(1, 2) and m.apply(F(2)) == 4


def test_compose_identity_neutral():
    s = ps.pointset(ps.interval(0, F(1, 2), True, False), ps.interval(F(3, 5), 1))
    fmap, img = debreu.remove_one(s, ps.gaps(s)[0])
    both = plmap.compose(fmap, plmap.identity(s))
    for x in sample_points(s):
        assert both.apply(x) == fmap.apply(x)


def test_compose_affine():
    s = ps.pointset(ps.interval(0, 1))
    shift = plmap.PLMap((plmap.AffinePiece(F(0), F(1), F(1), F(1)),), s)
    s2 = ps.pointset(ps.interval(1, 2))
    double = plmap.PLMap((plmap.AffinePiece(F(1), F(2), F(2), F(0)),), s2)
    total = plmap.compose(double, shift)
    assert total.apply(F(0)) == F(2)
    assert total.apply(F(1, 2)) == F(3)
    assert all(p.slope == 2 and p.intercept == 2 for p in total.pieces)


def test_compose_two_removal_steps_slopes_multiply():
    # Gaps of normalized lengths 1/5 then 1/10: leftmost slope (5/4)*(8/7) = 10/7.
    s = ps.pointset(
        ps.interval(0, F(1, 2), True, False),
        ps.interval(F(7, 10), F(4, 5), True, False),
        ps.interval(F(9, 10), 1),
    )
    trace = debreu.remove_all(s)
    assert [st.delta for st in trace.steps] == [F(1, 5), F(1, 10)]
    assert trace.total_map.pieces[0].slope == F(10, 7)


def test_image_identity():
    s = ps.pointset(ps.interval(0, F(1, 2), True, False), ps.point(F(3, 4)))
    assert plmap.image(plmap.identity(s), s) == s


def test_image_closes_gap():
    s = ps.pointset(ps.interval(0, F(1, 2), True, False), ps.interval(F(3, 5), 1))
    fmap, img = debreu.remove_one(s, ps.gaps(s)[0])
    assert img == ps.pointset(ps.interval(0, 1))


def test_image_slope_zero_collapses():
    s = ps.pointset(ps.interval(0, 1))
    m = plmap.PLMap(
        (
            plmap.AffinePiece(F(0), F(1, 4), F(1), F(0)),
            plmap.AffinePiece(F(1, 4), F(1, 2), F(0), F(1, 4)),
            plmap.AffinePiece(F(1, 2), F(1), F(1), F(-1, 4)),
        ),
        s,
    )
    assert plmap.image(m, s) == ps.pointset(ps.interval(0, F(3, 4)))


def test_strictly_increasing_identity():
    m, s = _identity_on(0, 1)
    assert plmap.increase_witness(plmap.atoms(m, s)) is None


def test_strictly_increasing_constant_witness():
    s = ps.pointset(ps.interval(0, 1))
    m = plmap.PLMap((plmap.AffinePiece(F(0), F(1), F(0), F(0)),), s)
    assert plmap.increase_witness(plmap.atoms(m, s)) == (F(1, 2), F(3, 4))


def test_strictly_increasing_fuse_map():
    s = ps.pointset(ps.interval(0, F(1, 2), True, False), ps.interval(F(3, 5), 1))
    fmap, _ = debreu.remove_one(s, ps.gaps(s)[0])
    assert plmap.increase_witness(plmap.atoms(fmap, s)) is None


def test_threshold_equiv_identity_and_shift():
    s = ps.pointset(ps.interval(0, F(1, 2)), ps.interval(F(6, 5), 2))
    assert plmap.threshold_witness(plmap.atoms(plmap.identity(s), s)) is None
    shift = plmap.PLMap((plmap.AffinePiece(s.inf, s.sup, F(1), F(7, 3)),), s)
    assert plmap.threshold_witness(plmap.atoms(shift, s)) is None


def test_threshold_equiv_scaling_witness():
    s = ps.pointset(ps.point(F(0)), ps.point(F(3, 5)))
    m = plmap.PLMap((plmap.AffinePiece(F(0), F(3, 5), F(2), F(0)),), s)
    assert plmap.threshold_witness(plmap.atoms(m, s)) == (F(0), F(3, 5))


def test_sampled_counterexample_violates_threshold():
    m, s = sampled_counterexample()
    x, y = F(0), F(11, 32)
    assert s.contains(x) and s.contains(y) and not x + 1 < y
    assert m.apply(x) + 1 < m.apply(y)  # f(y) = 33/32 > f(x) + 1


def test_threshold_equiv_rejects_violation_between_samples():
    m, s = sampled_counterexample()
    assert plmap.threshold_witness(plmap.atoms(m, s)) == (F(0), F(17, 48))


def test_json_roundtrip():
    s = ps.pointset(ps.interval(0, F(1, 2), True, False), ps.interval(F(3, 5), 1))
    fmap, _ = debreu.remove_one(s, ps.gaps(s)[0])
    assert plmap.loads(fmap.dumps()).pieces == fmap.pieces


def test_compose_associative_on_samples():
    rng = random.Random(11)
    for _ in range(20):
        cuts = sorted(rng.sample(range(1, 20), 2))
        s = ps.pointset(
            ps.interval(0, F(cuts[0], 20), True, False),
            ps.interval(F(cuts[1], 20), 1),
        )
        bads = ps.bad_gaps(s)
        if not bads:
            continue
        f1, s1 = debreu.remove_one(s, bads[0])
        sh = plmap.PLMap((plmap.AffinePiece(s1.inf, s1.sup, F(1), F(1)),), s1)
        s2 = plmap.image(sh, s1)
        dbl = plmap.PLMap((plmap.AffinePiece(s2.inf, s2.sup, F(3, 2), F(0)),), s2)
        left = plmap.compose(plmap.compose(dbl, sh), f1)
        right = plmap.compose(dbl, plmap.compose(sh, f1))
        for x in sample_points(s):
            assert left.apply(x) == right.apply(x)


def test_image_commutes_with_apply():
    s = ps.pointset(
        ps.interval(0, F(1, 4), True, False),
        ps.point(F(1, 2)),
        ps.interval(F(3, 4), 1, False, True),
    )
    fmap, img = debreu.remove_one(s, ps.bad_gaps(s)[0])
    mapped = sorted(fmap.apply(x) for x in sample_points(s))
    for q in sample_points(img):
        # every image component endpoint is the image of a source sample
        if any(q == c.lo or q == c.hi for c in img.components):
            assert q in mapped


def test_threshold_equiv_preserved_under_composition():
    from gapsmith import threshold as th
    from gapsmith import structure as st

    s = ps.pointset(
        ps.interval(0, F(1, 4), True, False),
        ps.interval(F(1, 2), F(3, 4)),
        ps.interval(F(7, 4), F(15, 8), True, False),
        ps.interval(F(19, 10), 2),
    )
    gmap, final, trace = th.remove_strong(s)
    assert len(trace.steps) == 2
    first, second = trace.steps
    mid = plmap.image(first.map, s)
    assert plmap.threshold_witness(plmap.atoms(first.map, s)) is None
    assert plmap.threshold_witness(plmap.atoms(second.map, mid)) is None
    composed = plmap.compose(second.map, first.map)
    assert plmap.threshold_witness(plmap.atoms(composed, s)) is None

"""The region algebra: unions of subspace-minus-cuts terms."""

import random
from fractions import Fraction

from qpdl import regions
from qpdl.checker import Environment, denote_program, eval_symbolic
from qpdl.frame import Frame, PartialMap, Subspace
from qpdl.linalg import GaussianRational, Matrix
from qpdl.parser import parse_formula, parse_program
from qpdl.regions import Region, _subspace_key, make_term, wp, wp_map

from exact_reference import same_rayset


def rand_amps(rng, dim):
    while True:
        amps = [GaussianRational(Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
                                 Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                for _ in range(dim)]
        if any(amps):
            return tuple(amps)


def rand_sub(rng, dim, k=None):
    while True:
        rows = [rand_amps(rng, dim) for _ in range(k or rng.randint(1, dim))]
        sub = Subspace.from_rows(rows, dim)
        if not sub.is_zero():
            return sub


def rand_region(rng, dim, depth=3):
    region = Region.of_subspace(rand_sub(rng, dim))
    for _ in range(rng.randint(0, depth)):
        roll = rng.randrange(3)
        other = Region.of_subspace(rand_sub(rng, dim))
        if roll == 0:
            region = region.union(other)
        elif roll == 1:
            region = region.intersect(other)
        else:
            region = region.complement()
    return region


def test_membership_is_boolean_homomorphism():
    rng = random.Random(301)
    for _ in range(60):
        a = rand_region(rng, 4)
        b = rand_region(rng, 4)
        rays = [Frame(2).ray(rand_amps(rng, 4)) for _ in range(6)]
        for s in rays:
            assert a.union(b).contains_ray(s) == \
                (a.contains_ray(s) or b.contains_ray(s))
            assert a.intersect(b).contains_ray(s) == \
                (a.contains_ray(s) and b.contains_ray(s))
            assert a.complement().contains_ray(s) == (not a.contains_ray(s))


def test_complement_involution():
    rng = random.Random(302)
    for _ in range(30):
        a = rand_region(rng, 4)
        back = a.complement().complement()
        rays = [Frame(2).ray(rand_amps(rng, 4)) for _ in range(8)]
        for s in rays:
            assert back.contains_ray(s) == a.contains_ray(s)
        assert same_rayset(back, a)


def test_emptiness_returns_member_or_none():
    rng = random.Random(303)
    for _ in range(60):
        a = rand_region(rng, 4)
        w = a.witness()
        if w is None:
            assert a.is_empty()
            rays = [Frame(2).ray(rand_amps(rng, 4)) for _ in range(10)]
            assert not any(a.contains_ray(s) for s in rays)
        else:
            assert a.contains_ray(w)


def test_empty_and_full():
    assert Region.empty(4).witness() is None
    w = Region.full(4).witness()
    assert w is not None
    sub = Subspace.from_rows([[1, 0, 0, 0]], 4)
    gone = Region.of_subspace(sub).intersect(
        Region.of_subspace(sub).complement())
    assert gone.is_empty() and gone.witness() is None


def test_a_witness_is_built_only_as_far_as_it_is_searched(monkeypatch):
    # the first basis row of the full space is a ray outside no negative,
    # so no moment-curve point is multiplied out
    products, mul = [], Matrix.__mul__
    monkeypatch.setattr(Matrix, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    w = Region.full(64).witness()
    assert w.basis == Matrix.identity(64).row(0)
    assert products == []


def test_term_witness_avoids_cuts():
    # positive span of dim 3 with two 1-dim cuts: the moment-curve search
    # must land strictly outside both
    positive = Subspace.from_rows(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4)
    cuts = [Subspace.from_rows([[1, 0, 0, 0]], 4),
            Subspace.from_rows([[0, 1, 1, 0]], 4)]
    term = make_term(positive, cuts)
    w = term.witness()
    assert term.contains_ray(w)
    assert positive.contains_subspace(w)
    assert not any(c.contains_subspace(w) for c in cuts)


def reference_witness(term):
    """The first of the basis rows and then the moment-curve points
    sum_j t^j b_j, summed in GaussianRationals, outside every negative."""
    rows = term.positive.basis.entries
    cols = term.positive.ambient
    limit = max(8, (len(rows) - 1) * len(term.negatives) + 2)
    candidates = list(rows)
    candidates += [[sum((t ** j * row[c] for j, row in enumerate(rows)),
                        GaussianRational(0)) for c in range(cols)]
                   for t in range(1, limit + 1)]
    for amps in candidates:
        ray = Subspace.from_rows([amps], cols)
        if not any(b.contains_subspace(ray) for b in term.negatives):
            return ray, amps


def test_witness_matches_scalar_moment_curve():
    rng = random.Random(307)
    terms = []
    for dim in (2, 4, 8):
        for _ in range(12):
            terms += rand_region(rng, dim).terms
        positive = rand_sub(rng, dim, dim // 2 + 1)
        terms.append(make_term(positive, [positive.meet(rand_sub(rng, dim, dim - 1))
                                          for _ in range(3)]))
        if dim == 2:
            continue
        # every basis row and the first two curve points cut away
        positive = rand_sub(rng, dim, 3)
        rows = positive.basis.entries
        points = [[sum((t ** j * row[c] for j, row in enumerate(rows)),
                       GaussianRational(0)) for c in range(dim)] for t in (1, 2)]
        cuts = [Subspace.from_rows([row, rand_amps(rng, dim)], dim) for row in rows]
        cuts += [Subspace.from_rows([p], dim) for p in points]
        terms.append(make_term(positive, cuts))
    assert sum(1 for t in terms if len(t.negatives) > 1) >= 3
    from_curve = 0
    for term in terms:
        ray, amps = reference_witness(term)
        from_curve += amps not in term.positive.basis.entries
        got = term.witness()
        # the same ray, already canonical as it was built
        assert got is ray
        assert got.basis == Matrix([amps])
    assert from_curve >= 2


def test_subspace_key_orders_subspaces_by_their_integer_rows():
    rng = random.Random(308)
    subs = [Subspace.zero(4), Subspace.full(4)]
    for dim in (2, 4, 8):
        subs += [rand_sub(rng, dim) for _ in range(20)]
    # rays tied on their first entries
    subs += [Subspace.from_rows([[1, 2, GaussianRational(Fraction(k, 3), m), 1]], 4)
             for k in range(-2, 3) for m in range(-1, 2)]
    # the unique integer form, read without building a Fraction
    assert [_subspace_key(s) for s in subs] == [
        (s.dim, (s.basis.cols, s.basis.den, s.basis.triples)) for s in subs]
    # a total order that agrees with equality, whatever rows built the subspace
    keys = {_subspace_key(s) for s in subs}
    assert len(keys) == len(set(subs)) > 50
    scaled = [Subspace.from_rows([[GaussianRational(0, 3) * x for x in row]
                                  for row in s.basis.entries], s.ambient)
              for s in subs]
    assert [_subspace_key(s) for s in scaled] == [_subspace_key(s) for s in subs]
    order = sorted(subs, key=_subspace_key)
    rng.shuffle(subs)
    assert sorted(subs, key=_subspace_key) == order


def test_make_term_drops_zero_and_full_cuts():
    positive = Subspace.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]], 4)
    orth = Subspace.from_rows([[0, 0, 1, 0]], 4)
    term = make_term(positive, [orth])
    assert term is not None and term.negatives == ()
    assert make_term(positive, [Subspace.full(4)]) is None
    assert make_term(Subspace.zero(4), []) is None


def test_terms_are_values_and_regions_keep_the_first_of_equal_terms():
    positive = Subspace.full(4)
    a, b, c = (Subspace.from_rows([row], 4) for row in
               ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]))
    # the negatives are put in one order, so reordered cuts give one value
    ab, ba = make_term(positive, [a, b]), make_term(positive, [b, a])
    assert ab == ba and hash(ab) == hash(ba) and ab.negatives == ba.negatives
    only_c = make_term(positive, [c])
    lone_a = make_term(a, [])
    region = Region(4, [only_c, ab, None, lone_a, ba, only_c, lone_a])
    assert region.terms == (only_c, ab, lone_a)
    assert region.terms[1] is ab


def test_closure_joins_positives():
    a = Subspace.from_rows([[1, 0, 0, 0]], 4)
    b = Subspace.from_rows([[0, 1, 0, 0]], 4)
    region = Region.of_subspace(a).union(Region.of_subspace(b))
    assert region.closure() == a.join(b)
    cut = Region.of_subspace(a.join(b)).intersect(
        Region.of_subspace(a).complement())
    assert cut.closure() == a.join(b)


def test_wp_matches_pointwise_execution():
    rng = random.Random(304)
    for _ in range(40):
        m = Matrix([[GaussianRational(Fraction(rng.randint(-4, 4)),
                                      Fraction(rng.randint(-4, 4)))
                     for _ in range(4)]
                    for _ in range(4)])
        pm = PartialMap(m)
        region = rand_region(rng, 4)
        got = wp_map(pm, region)
        for _ in range(5):
            s = Frame(2).ray(rand_amps(rng, 4))
            out = pm.image_of(s)
            expected = out.is_zero() or region.contains_ray(out)
            assert got.contains_ray(s) == expected


def make_term_wp(pm, region):
    """wp_map as it is for any map: the kernel term, and each term's
    preimages normalised by make_term against the kernel."""
    kernel = pm.kernel()
    terms = [make_term(kernel, [])]
    for t in region.terms:
        negs = [pm.preimage_closed(b) for b in t.negatives] + [kernel]
        terms.append(make_term(pm.preimage_closed(t.positive), negs))
    return Region(region.ambient, terms)


def test_wp_of_a_bijection_matches_the_make_term_route(monkeypatch):
    # A map of kernel 0 keeps every term normalised: its wp maps term to
    # term with no make_term, and gives make_term's terms in their order.
    rng = random.Random(307)
    made = []
    monkeypatch.setattr(regions, "make_term",
                        lambda *args: made.append(args) or make_term(*args))
    cut = 0
    for n in (1, 2, 3):
        fr = Frame(n)
        env = Environment(fr)
        maps = list(denote_program(env, parse_program(
            f"H_1 ; adj(X_{n} ; H_{n}) ; id ; Z_1 + X_1")))
        maps.append(fr.lift(Matrix([[1, 2], [0, 1]]), (n,)))  # not unitary
        for _ in range(10):
            region = rand_region(rng, fr.dim, depth=4)
            for _ in range(rng.randint(0, 3)):
                # a subspace with a ray or two cut out of it
                rays = Region.of_subspace(rand_sub(rng, fr.dim, 1)).union(
                    Region.of_subspace(rand_sub(rng, fr.dim, 1)))
                region = region.union(Region.of_subspace(
                    rand_sub(rng, fr.dim)).intersect(rays.complement()))
            cut += sum(len(t.negatives) > 1 for t in region.terms)
            for pm in maps:
                made.clear()
                got = wp_map(pm, region)
                assert made == []
                assert got.terms == make_term_wp(pm, region).terms
    assert cut >= 10
    # a map with a kernel still takes make_term's route
    singular = PartialMap(Matrix([[1, 0], [0, 0]]))
    region = rand_region(rng, 2)
    assert wp_map(singular, region).terms == make_term_wp(singular, region).terms
    assert made


def test_wp_of_union_is_conjunction():
    rng = random.Random(305)
    fr = Frame(2)
    union = denote_program(Environment(fr), parse_program("H_1 + CNOT_1_2"))
    h, cx = fr.gate("H", (1,)), fr.gate("CNOT", (1, 2))
    assert union == (h, cx)
    for _ in range(20):
        region = rand_region(rng, 4)
        both = wp(union, region)
        split = wp((h,), region).intersect(wp((cx,), region))
        for _ in range(6):
            s = Frame(2).ray(rand_amps(rng, 4))
            assert both.contains_ray(s) == split.contains_ray(s)


def test_box_diamond_sasaki():
    rng = random.Random(306)
    for _ in range(30):
        region = rand_region(rng, 4)
        env = Environment(Frame(2), {"p": region})
        # box is the orthocomplement of the complement's closure
        b = eval_symbolic(env, parse_formula("box p"))
        assert same_rayset(b, 
            Region.of_subspace(region.complement().closure().ortho()))
        # the quantum diamond ~box~ is the closure, the least testable
        # property the region can reach
        d = eval_symbolic(env, parse_formula("~box !p"))
        assert same_rayset(d, Region.of_subspace(region.closure()))
        # dia p is !box !p: the rays not orthogonal to the region
        d = eval_symbolic(env, parse_formula("dia p"))
        assert same_rayset(d, 
            Region.of_subspace(region.closure().ortho()).complement())


def test_contains_region_and_same_rayset():
    a = Region.of_subspace(Subspace.from_rows([[1, 0, 0, 0]], 4))
    big = Region.of_subspace(Subspace.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]], 4))
    # containment of regions: no ray of the smaller one outside the larger
    assert a.intersect(big.complement()).is_empty()
    assert not big.intersect(a.complement()).is_empty()
    assert not same_rayset(a, big)
    rebuilt = big.intersect(a.complement()).union(a)
    assert same_rayset(rebuilt, big) and same_rayset(big, rebuilt)

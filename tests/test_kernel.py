"""Kernel layer: simplicial identities, hom counting, (co)limits, serialization."""

import random
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from ssetkit.kernel import (
    EMPTY,
    FinSSet,
    Simplex,
    SMap,
    SSetError,
    Truncated,
    boundary,
    compose,
    constant_map,
    coproduct,
    count_maps,
    delta_map,
    enumerate_maps,
    enumerate_sections,
    exponential,
    find_isomorphism,
    horn,
    identity,
    interval_groupoid_skeleton,
    load_smap,
    load_sset,
    nerve_j,
    nondeg,
    product,
    pullback,
    pushforward,
    pushout,
    save_smap,
    save_sset,
    sigma_map,
    std_simplex,
    terminal,
    terminal_map,
    yoneda,
)
from ssetkit.kernel.limits import _pullback
from ssetkit.kernel.simplex import degeneracy_words
from ssetkit.corpus import (
    adjunction_pairs,
    catfib_corpus,
    discrete,
    random_map,
    random_sset,
    random_ssets,
    small_objects,
)

seeds = st.integers(min_value=0, max_value=10**6)


# -- well-formedness ----------------------------------------------------------


@pytest.mark.parametrize("n", range(4))
def test_standard_simplices_validate(n):
    assert std_simplex(n).validate() == []


@pytest.mark.parametrize(
    "x",
    [boundary(1)[0], boundary(2)[0], horn(2, 1)[0], horn(3, 2)[0], nerve_j(2)],
    ids=["bd1", "bd2", "horn21", "horn32", "nervej2"],
)
def test_standard_complexes_validate(x):
    assert x.validate() == []


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_random_sset_validates(seed):
    x = random_sset(random.Random(seed))
    assert x.validate() == []


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_simplicial_face_identities(seed):
    """d_i d_j = d_{j-1} d_i for i < j, on every nondegenerate simplex."""
    x = random_sset(random.Random(seed))
    for cell in x.nondegenerate():
        n = x.cell_dim(cell)
        if n < 2:
            continue
        s = nondeg(cell)
        for j in range(n + 1):
            for i in range(j):
                left = x.face(x.face(s, j), i)
                right = x.face(x.face(s, i), j - 1)
                assert left == right


def test_cosimplicial_identity():
    # delta_j . delta_i = delta_i . delta_{j-1} for i < j
    for n in (1, 2):
        for j in range(n + 2):
            for i in range(j):
                lhs = compose(delta_map(n + 1, j), delta_map(n, i))
                rhs = compose(delta_map(n + 1, i), delta_map(n, j - 1))
                assert lhs == rhs


def test_codegeneracy_section():
    for n in (0, 1):
        for i in range(n + 1):
            assert compose(sigma_map(n, i), delta_map(n + 1, i)) == identity(
                std_simplex(n)
            )


# -- simplex values -------------------------------------------------------------
#
# A Simplex is a named tuple (word, base).  It must compare, order, hash and
# print as the dataclass it replaced, so that set iteration order, every
# sort order and every diagnostic stay as they were.

simplex_fields = st.tuples(
    st.lists(st.integers(min_value=0, max_value=4), max_size=3).map(tuple),
    st.text(alphabet="abe01_", max_size=3),
)


@given(a=simplex_fields, b=simplex_fields)
@settings(max_examples=300, deadline=None)
def test_simplex_values_match_the_dataclass(a, b):
    new_a, new_b = Simplex(*a), Simplex(*b)
    old_a, old_b = reference.SimplexDataclass(*a), reference.SimplexDataclass(*b)
    assert (new_a == new_b) == (old_a == old_b)
    assert (new_a < new_b) == (old_a < old_b)
    assert hash(new_a) == hash(old_a)
    assert repr(new_a) == repr(old_a)
    assert new_a == a and hash(new_a) == hash(a)


@given(pairs=st.lists(simplex_fields, max_size=12))
@settings(max_examples=100, deadline=None)
def test_simplex_sets_and_sorts_match_the_dataclass(pairs):
    new = [Simplex(*p) for p in pairs]
    old = [reference.SimplexDataclass(*p) for p in pairs]
    assert [tuple(s) for s in sorted(new)] == [(s.word, s.base) for s in sorted(old)]
    assert [tuple(s) for s in set(new)] == [(s.word, s.base) for s in set(old)]


def test_degeneracy_words_match_the_generated_and_validated_words():
    for base_dim in range(6):
        for target_dim in range(9):
            assert degeneracy_words(base_dim, target_dim) == list(
                reference.degeneracy_words(base_dim, target_dim)
            )


# -- hom counting and the Yoneda correspondence -------------------------------


@pytest.mark.parametrize("x", small_objects(), ids=lambda x: f"{x.size()}cells")
def test_yoneda_counts(x):
    for n in range(3):
        if x.dim_bound is not None and n > x.dim_bound:
            continue
        assert count_maps(std_simplex(n), x) == len(x.simplices(n))


def test_yoneda_classifier_is_a_map():
    x = horn(2, 1)[0]
    for cell in x.nondegenerate():
        m = yoneda(x, nondeg(cell))
        assert m.validate() == []
        assert m.apply(nondeg("_".join(str(i) for i in range(x.cell_dim(cell) + 1))))


def test_compose_associative():
    a = delta_map(2, 0)  # std(1) -> std(2)
    b = sigma_map(1, 0)  # std(2) -> std(1)
    c = terminal_map(std_simplex(1))
    assert compose(c, compose(b, a)) == compose(compose(c, b), a)


# -- universal properties -----------------------------------------------------


@pytest.mark.parametrize(
    "a,b", [(std_simplex(1), discrete(2)), (boundary(1)[0], std_simplex(1))]
)
def test_product_counts(a, b):
    p = product(a, b)
    for c in (terminal(), std_simplex(1)):
        assert count_maps(c, p.sset) == count_maps(c, a) * count_maps(c, b)


def test_product_projections_recover_pairing():
    from ssetkit.kernel import constant_map

    a, b = std_simplex(1), discrete(2)
    p = product(a, b)
    f = identity(a)
    g = compose(constant_map(terminal(), b, "p1"), terminal_map(a))
    h = p.pair(f, g)
    assert compose(p.proj1, h) == f
    assert compose(p.proj2, h) == g


# -- one chosen pullback ---------------------------------------------------------
#
# A product is the chosen pullback over the point and a pullback along an
# identity is the other leg; both must give the objects and maps the old
# product record and the old identity pullback gave.

small_ssets = st.one_of(
    st.sampled_from([terminal(), EMPTY]),
    seeds.map(lambda seed: random_sset(random.Random(seed), max_dim=2, max_cells=5)),
)


def _all_simplices(x):
    return [s for n in range(x.dim + 1) for s in x.simplices(n)]


@given(x=small_ssets, y=small_ssets, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_product_matches_the_old_product(x, y, seed):
    new, old = product(x, y), reference.product(x, y)
    assert new.sset.key() == old.sset.key()
    assert (new.proj1, new.proj2) == (old.proj1, old.proj2)
    for s in _all_simplices(new.sset):
        assert new.components(s) == old.components(s)
    for n in range(min(x.dim, y.dim) + 1):
        for a in x.simplices(n):
            for b in y.simplices(n):
                assert new.simplex_of(a, b) == old.simplex_of(a, b)
    rng = random.Random(seed)
    w = random_sset(rng, max_dim=2, max_cells=4)
    u, v = random_map(rng, w, x), random_map(rng, w, y)
    if u is not None and v is not None:
        assert new.pair(u, v) == old.pair(u, v)


def _truncated(f, extra):
    """f with its source truncated ``extra`` levels above its top cells."""
    x = f.source
    return SMap(FinSSet(x.cells, x.faces, max(x.dim, 0) + extra), f.target, f.assignment)


def _outcome(fn, *args):
    """fn(*args), or the class and text of the SSetError it raises."""
    try:
        return fn(*args)
    except SSetError as e:
        return type(e).__name__, str(e)


@given(
    seed=seeds,
    codomain=st.sampled_from(["delta1", "delta2", "random"]),
    truncate=st.sampled_from([None, 0, 1]),
    swap=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_pullback_matches_the_old_pullback(seed, codomain, truncate, swap):
    rng = random.Random(seed)
    x, y = (random_sset(rng, max_dim=2, max_cells=5) for _ in range(2))
    if codomain == "random":
        z = random_sset(rng, max_dim=2, max_cells=4)
    else:
        z = std_simplex(1 if codomain == "delta1" else 2)
    f, g = random_map(rng, x, z), random_map(rng, y, z)
    assume(f is not None and g is not None)
    if truncate is not None:
        f = _truncated(f, truncate)
    if swap:
        f, g = g, f
    new, old = _pullback(f, g, "q"), reference.pullback(f, g, "q")
    assert new.sset.key() == old.sset.key()
    assert (new.proj1, new.proj2) == (old.proj1, old.proj2)
    x, y = f.source, g.source
    # every pair of x_n x y_n, incompatible ones and those one level above
    # the realized ones included, has the same simplex or the same error
    for n in range(x.dim + y.dim + 2):
        try:
            pairs = [(a, b) for a in x.simplices(n) for b in y.simplices(n)]
        except Truncated:
            break
        for a, b in pairs:
            assert _outcome(new.simplex_of, a, b) == _outcome(old.simplex_of, a, b)
    w = random_sset(rng, max_dim=2, max_cells=4)
    h = random_map(rng, w, new.sset) if new.sset.is_exact or w.dim <= new.sset.dim_bound else None
    if h is not None:
        u, v = compose(new.proj1, h), compose(new.proj2, h)
        assert new.pair(u, v) == old.pair(u, v) == h


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_identity_pullback_matches_the_old_one(seed):
    rng = random.Random(seed)
    z, y, w = (random_sset(rng, max_dim=2, max_cells=5) for _ in range(3))
    g = random_map(rng, y, z)
    h = random_map(rng, w, y)
    for new, old, u, v in [
        (pullback(identity(z), g), reference.identity_pullback(identity(z), g, True), compose(g, h), h),
        (pullback(g, identity(z)), reference.identity_pullback(g, identity(z), False), h, compose(g, h)),
    ]:
        assert new.sset == old.sset
        for s in _all_simplices(new.sset):
            assert new.components(s) == old.components(s)
        assert new.pair(u, v) == old.pair(u, v)


def test_coproduct_counts():
    a, b = std_simplex(1), terminal()
    co = coproduct(a, b)
    for c in (discrete(2), std_simplex(1)):
        assert count_maps(co.sset, c) == count_maps(a, c) * count_maps(b, c)


def test_exponential_adjunction_counts():
    a, b, c = discrete(2), std_simplex(1), discrete(2)
    exp = exponential(c, b, depth=2)
    assert count_maps(product(a, b).sset, c) == count_maps(a, exp.sset)


# base^X is the pushforward of base x X -> X along X -> 1.  Delta^1^(Delta^1)
# has a 2-simplex, and W = Delta^2 makes W x X three-dimensional, above the
# depth 2: uncurry and the pre/postcomposition maps must act simplex by
# simplex, not through the pullback base^X -> 1 <- X, which is realized only
# up to the depth.
EXP_BASES = {"discrete2": discrete(2), "delta1": std_simplex(1)}
# each exponent with a map j into it, for precompose
EXP_EXPONENTS = {
    "delta1": (std_simplex(1), boundary(1)[1]),
    "boundary1": (boundary(1)[0], constant_map(terminal(), boundary(1)[0], "1")),
}
EXP_CASES = [(b, x) for b in EXP_BASES for x in EXP_EXPONENTS]
EXP_SOURCES = (boundary(1)[0], std_simplex(1), std_simplex(2))  # small exact W


def _chosen(w, x):
    """The chosen pullback W -> 1 <- X, on which curry and uncurry act."""
    return pullback(terminal_map(w), terminal_map(x))


@pytest.mark.parametrize("base,x", EXP_CASES)
def test_exponential_uncurry_inverts_curry(base, x):
    base_, x_ = EXP_BASES[base], EXP_EXPONENTS[x][0]
    exp = exponential(base_, x_, depth=2)
    for w in EXP_SOURCES:
        pb = _chosen(w, x_)
        ks = list(enumerate_maps(pb.sset, base_))
        assert ks
        for k in ks:
            assert exp.uncurry(exp.curry(k, pb), pb) == k
        assert len(ks) == count_maps(w, exp.sset)


@pytest.mark.parametrize("base,x", EXP_CASES)
def test_exponential_postcompose_is_composition(base, x):
    base_, x_ = EXP_BASES[base], EXP_EXPONENTS[x][0]
    exp = exponential(base_, x_, depth=2)
    other = exponential(std_simplex(1), x_, depth=2)
    for g in enumerate_maps(base_, std_simplex(1)):
        g_x = exp.postcompose(g, other)
        for w in EXP_SOURCES:
            pb = _chosen(w, x_)
            for h in enumerate_maps(w, exp.sset):
                assert other.uncurry(compose(g_x, h), pb) == compose(g, exp.uncurry(h, pb))


@pytest.mark.parametrize("base,x", EXP_CASES)
def test_exponential_precompose_is_restriction(base, x):
    base_, (x_, j) = EXP_BASES[base], EXP_EXPONENTS[x]
    exp = exponential(base_, x_, depth=2)
    other = exponential(base_, j.source, depth=2)
    base_j = exp.precompose(j, other)
    for w in EXP_SOURCES:
        pb_x, pb_u = _chosen(w, x_), _chosen(w, j.source)
        w_j = pb_x.pair(pb_u.proj1, compose(j, pb_u.proj2))  # W x j
        for h in enumerate_maps(w, exp.sset):
            assert other.uncurry(compose(base_j, h), pb_u) == compose(exp.uncurry(h, pb_x), w_j)


def test_exponential_needs_exact_inputs():
    with pytest.raises(SSetError):
        exponential(nerve_j(2), std_simplex(1), 2)


def test_pushforward_sections_match_transpose():
    # sections of the pushforward along id correspond to sections of g
    f = identity(std_simplex(1))
    from ssetkit.kernel import constant_map

    g = product(std_simplex(1), discrete(2)).proj1
    pf = pushforward(f, g, depth=2)
    n_direct = sum(1 for _ in enumerate_sections(g, identity(std_simplex(1))))
    n_push = sum(1 for _ in enumerate_sections(pf.struct, identity(std_simplex(1))))
    assert n_direct == n_push


# -- one pushforward, against the realizer it replaced ---------------------------
#
# A key (tau, section) of a pushforward is tested for degeneracy only at the
# letters of tau's word.  Criterion 2's pushforwards and exponentials have
# bases of dimension at most 1; the first four catfib_corpus fibrations with
# a 2-dimensional base (Δ^2, Δ^1 x Δ^1, Δ^2 + 2 points, and Δ^2 under
# Δ^2 x 2 points) give bases with nondegenerate edges and triangles.


def _same_pushforward(new, old):
    assert new.sset.key() == old.sset.key()
    assert new.struct == old.struct
    for n in range(new.depth + 1):
        for s in new.sset.simplices(n):
            assert new.section_at(s) == old.section_at(s)


def _catfib_over_a_triangle():
    """The distinct catfib_corpus fibrations whose base is 2-dimensional."""
    out = []
    for p in catfib_corpus():
        if p.target.dim == 2 and p not in out:
            out.append(p)
    return out


PUSHFORWARDS = [  # (f, g, w_map), the first three criterion 2's
    (terminal_map(discrete(2)), product(discrete(2), discrete(2)).proj1, terminal_map(std_simplex(1))),
    (constant_map(terminal(), std_simplex(1), "0"), identity(terminal()), identity(std_simplex(1))),
    (terminal_map(std_simplex(1)), identity(std_simplex(1)), terminal_map(discrete(2))),
] + [
    (p, g, identity(p.target))
    for p in _catfib_over_a_triangle()[:4]
    for g in (identity(p.source), product(p.source, discrete(2)).proj1)
]


@pytest.mark.parametrize("f,g,w_map", PUSHFORWARDS)
def test_pushforward_matches_the_old_pushforward(f, g, w_map):
    new, old = pushforward(f, g, 2), reference.Pushforward(f, g, 2)
    _same_pushforward(new, old)
    pb = pullback(w_map, f)
    for k in islice(enumerate_sections(g, pb.proj2), 16):
        assert new.transpose(w_map, k, pb) == old.transpose(w_map, k, pb)


ADJUNCTION_EXPONENTS = list(dict.fromkeys(b for _, b in adjunction_pairs()))


@pytest.mark.parametrize("base", [std_simplex(1), discrete(2)], ids=["delta1", "discrete2"])
@pytest.mark.parametrize("x", ADJUNCTION_EXPONENTS, ids=range(len(ADJUNCTION_EXPONENTS)))
def test_exponential_matches_the_old_exponential(base, x):
    new, old = exponential(base, x, 2), reference.Exponential(base, x, 2)
    _same_pushforward(new, old)
    for w in EXP_SOURCES:
        pb = _chosen(w, x)
        for k in islice(enumerate_maps(pb.sset, base), 16):
            assert new.curry(k, pb) == old.curry(k, pb)
        for h in islice(enumerate_maps(w, new.sset), 16):
            assert new.uncurry(h, pb) == old.uncurry(h, pb)
    new_other, old_other = exponential(std_simplex(1), x, 2), reference.Exponential(std_simplex(1), x, 2)
    for g in enumerate_maps(base, std_simplex(1)):
        assert new.postcompose(g, new_other) == old.postcompose(g, old_other)
    j = constant_map(terminal(), x, x.cells[0][-1])
    new_u, old_u = exponential(base, terminal(), 2), reference.Exponential(base, terminal(), 2)
    assert new.precompose(j, new_u) == old.precompose(j, old_u)


def _naive_sections(p, over):
    maps = reference.enumerate_maps(over.source, p.source)
    return [m for m in maps if compose(p, m) == over]


def _sections_agree(rng, p, w):
    """Compare with the naive filter over a map w -> p.target that has a
    section, then over one drawn freely (which usually has none)."""
    for over in (compose(p, random_map(rng, w, p.source)), random_map(rng, w, p.target)):
        assert list(enumerate_sections(p, over)) == _naive_sections(p, over)


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_sections_match_naive_filter_on_random_maps(seed):
    rng = random.Random(seed)
    x, y, w = random_ssets(3, seed, max_dim=2, max_cells=5)
    _sections_agree(rng, random_map(rng, x, y), w)


CATFIB = catfib_corpus()
PROBES = [terminal(), std_simplex(1), boundary(1)[0], horn(2, 1)[0], std_simplex(2)]


@given(seed=seeds)
@settings(max_examples=40, deadline=None)
def test_sections_match_naive_filter_on_catfib_maps(seed):
    rng = random.Random(seed)
    _sections_agree(rng, rng.choice(CATFIB), rng.choice(PROBES))


@pytest.mark.parametrize("pin", ["0", "0_1", "0_1_2", "0_1_2_3"])
def test_pins_of_the_wrong_dimension_behave_as_in_the_naive_search(pin):
    # a pinned nondegenerate simplex is checked against its stored face
    # tuple only when it has the cell's dimension; lower ones still raise
    def outcome(search):
        try:
            return [m.assignment for m in search(std_simplex(2), std_simplex(3), forced=forced)]
        except SSetError as e:
            return str(e)

    forced = {"0_1_2": nondeg(pin)}
    assert outcome(enumerate_maps) == outcome(reference.enumerate_maps)


def test_pullback_cone():
    f = boundary(1)[1]
    g = terminal_map(std_simplex(1))
    pb = pullback(terminal_map(f.target), g)
    assert compose(terminal_map(f.target), pb.proj1) == compose(g, pb.proj2)
    assert pb.sset.validate() == []


def test_pushout_cocone_and_induce():
    from ssetkit.kernel import constant_map

    span_apex = terminal()
    f = constant_map(span_apex, std_simplex(1), "0")
    g = constant_map(span_apex, std_simplex(1), "1")
    po = pushout(f, g)
    assert compose(po.inl, f) == compose(po.inr, g)
    collapse = po.induce(terminal_map(std_simplex(1)), terminal_map(std_simplex(1)))
    assert collapse.validate() == []
    assert collapse.target == terminal()


# -- the classifying interval, against the nerve of its category -------------------


def _same_sset(x, y):
    assert x.cells == y.cells
    assert list(x.faces.items()) == list(y.faces.items())  # insertion order too
    assert x.dim_bound == y.dim_bound


@pytest.mark.parametrize("depth", range(7))
def test_nerve_j_matches_the_nerve_of_the_walking_isomorphism(depth):
    _same_sset(nerve_j(depth), reference.nerve(reference.walking_iso_category(), depth))


@pytest.mark.parametrize("depth", [-2, -1])
def test_nerve_j_refuses_a_negative_depth_as_the_nerve_does(depth):
    with pytest.raises(SSetError) as new:
        nerve_j(depth)
    with pytest.raises(SSetError) as old:
        reference.nerve(reference.walking_iso_category(), depth)
    assert str(new.value) == str(old.value)


@pytest.mark.parametrize("level", range(1, 5))
def test_interval_skeleton_matches_the_nerve_of_the_walking_isomorphism(level):
    old = reference.nerve(reference.walking_iso_category(), level).skeleton(level)
    _same_sset(interval_groupoid_skeleton(level)[0], old)


@pytest.mark.parametrize("depth", [2, 3])
def test_nerve_j_saves_as_the_corpus_file(corpus_dir, tmp_path, depth):
    path = tmp_path / f"interval_groupoid_{depth}.sset"
    save_sset(nerve_j(depth), path)
    assert path.read_bytes() == (corpus_dir / "ssets" / path.name).read_bytes()


# -- isomorphism search -------------------------------------------------------


def test_find_isomorphism_on_rename():
    x = horn(2, 1)[0]
    y = x.rename(lambda c: f"z_{c}")
    iso = find_isomorphism(x, y)
    assert iso is not None
    assert iso.validate() == []
    assert iso.is_mono()


def test_find_isomorphism_distinguishes():
    assert find_isomorphism(std_simplex(1), boundary(1)[0]) is None
    assert find_isomorphism(nerve_j(2), nerve_j(3)) is None


# -- serialization ------------------------------------------------------------


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_sset_round_trip(tmp_path_factory, seed):
    x = random_sset(random.Random(seed))
    path = tmp_path_factory.mktemp("ser") / "x.sset"
    save_sset(x, path)
    assert load_sset(path) == x
    first = path.read_bytes()
    save_sset(load_sset(path), path)
    assert path.read_bytes() == first


def test_smap_round_trip(tmp_path):
    x, incl = horn(2, 1)
    save_sset(x, tmp_path / "src.sset")
    save_sset(incl.target, tmp_path / "tgt.sset")
    save_smap(incl, tmp_path / "m.smap", "src.sset", "tgt.sset")
    assert load_smap(tmp_path / "m.smap") == incl


def test_corpus_files_load(corpus_dir):
    ssets = sorted((corpus_dir / "ssets").glob("*.sset"))
    maps = sorted((corpus_dir / "maps").glob("*.smap"))
    assert len(ssets) == 10 and len(maps) == 9
    for p in ssets:
        assert load_sset(p).validate() == []
    for p in maps:
        assert load_smap(p).validate() == []

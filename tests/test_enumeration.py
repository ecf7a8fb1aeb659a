import random

from pcdl import (classes_with_upsets_bounded, poset_classes_exactly,
                  poset_classes_upto)

from _oracles import iso_brute, poset_classes_by_filter, random_poset

KNOWN_COUNTS = [1, 1, 2, 5, 16, 63, 318, 2045]


def test_class_counts_match_known_sequence():
    for n, want in enumerate(KNOWN_COUNTS):
        assert len(poset_classes_exactly(n)) == want


def test_augmentation_matches_the_filter():
    # same keys, order and representatives as labelling every candidate
    for n, level in enumerate(poset_classes_by_filter(7)):
        got = [(p.labels, p.up, p.canonical_key(), p.canonical_perm())
               for p in poset_classes_exactly(n)]
        assert got == [(p.labels, p.up, key, perm) for p, key, perm in level]


def test_upto_is_cumulative():
    assert len(poset_classes_upto(5)) == sum(KNOWN_COUNTS[:6])


def test_classes_are_pairwise_non_isomorphic():
    for n in range(5):
        classes = poset_classes_exactly(n)
        for i, a in enumerate(classes):
            for b in classes[i + 1:]:
                assert iso_brute(a, b) is None


def test_every_poset_has_a_class_representative():
    rng = random.Random(19)
    for _ in range(30):
        p = random_poset(rng.randrange(1, 7), rng)
        hits = [c for c in poset_classes_exactly(p.n) if c.isomorphic(p)]
        assert len(hits) == 1


def test_output_is_deterministic():
    a = [p.canonical_key() for p in poset_classes_exactly(5)]
    b = [p.canonical_key() for p in poset_classes_exactly(5)]
    assert a == b
    assert a == sorted(a)


def test_classes_with_upsets_bounded():
    classes = classes_with_upsets_bounded(9)
    assert all(len(p.up_sets()) <= 9 for p in classes)
    keys = {p.canonical_key() for p in classes}
    assert len(keys) == len(classes)
    # cross check against a plain filter of the full enumeration; any
    # poset on more than 8 points has at least 10 up-sets, so 8 suffices
    brute = {p.canonical_key() for p in poset_classes_upto(8)
             if len(p.up_sets()) <= 9}
    assert keys == brute
    assert len(classes) == 62


def test_upset_count_grows_with_points():
    # removing a maximal point strictly shrinks the up-set count, which
    # is what makes the bounded enumeration exhaustive
    for p in poset_classes_exactly(4):
        full = len(p.up_sets())
        for m in [i for i in range(p.n) if p.up[i] == 1 << i]:
            sub = p.restrict(p.full_mask & ~(1 << m))
            assert len(sub.up_sets()) < full

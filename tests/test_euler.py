import random

from spinetorsion.complexes import CellComplexX, GroupData
from spinetorsion.euler import (euler_chain_class, euler_data, maw_cochain,
                                path_choice_independence, pd_consistency)
from spinetorsion.perms import ALL_PERMS


def test_tangency_counts_even(corpus12):
    for s in corpus12:
        _cochain, counts = maw_cochain(s)
        assert all(n % 2 == 0 for n in counts)


def test_cochain_values(corpus12):
    for s in corpus12:
        cochain, counts = maw_cochain(s)
        for c, n in zip(cochain, counts):
            assert c == 1 - n // 2
        # a region with no tangency corners has value one
        if 0 in counts:
            assert cochain[counts.index(0)] == 1


def test_trivial_h1_gives_zero_chain_class(corpus12):
    seen = 0
    for s in corpus12:
        G = GroupData(CellComplexX(s))
        if G.free_rank == 0 and not G.torsion:
            free, tors = euler_chain_class(s)
            assert not any(free) and not any(tors)
            seen += 1
    assert seen > 0


def test_path_choice_independence(corpus12):
    for s in corpus12:
        assert path_choice_independence(s)


def test_chain_class_matches_cochain_through_duality(corpus12):
    for s in corpus12:
        assert pd_consistency(s)


def test_relabelling_equivariance(corpus12):
    rnd = random.Random(13)
    for s in corpus12[:10]:
        data = euler_data(s)
        for _ in range(2):
            tet_map = list(range(s.tet_count))
            rnd.shuffle(tet_map)
            perms = [rnd.choice(ALL_PERMS) for _ in range(s.tet_count)]
            other = s.relabel(tet_map, perms)
            odata = euler_data(other)
            # Smith coordinates are basis-dependent; compare invariant
            # content: triviality of the class and the cochain multiset.
            zero_a = not any(data.chain_class[0]) and not any(data.chain_class[1])
            zero_b = not any(odata.chain_class[0]) and not any(odata.chain_class[1])
            assert zero_a == zero_b
            assert sorted(data.cochain) == sorted(odata.cochain)
            assert sorted(data.tangency_counts) == sorted(odata.tangency_counts)

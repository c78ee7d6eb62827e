"""The group's quorum system (repro.core.quorum; DESIGN.md D18).

For every group size n <= 15 and every legal witness count, sampled member
sets show the intersections VR'88's safety argument rests on: a view's
formation quorum and its normal acceptors meet every force quorum, a read
lease's holders meet every formation quorum, and D11's coverage arithmetic
is the brute-force intersection it stands for.  Without witnesses every
size is the paper's.
"""

import dataclasses
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.quorum import Quorums, majority, sub_majority

SIZES = range(1, 16)
LEGAL = [(n, w) for n in SIZES for w in range(n - majority(n) + 1)]


def test_an_illegal_witness_count_raises():
    # Above the bound; a negative count is refused by ScaleConfig itself.
    for n in SIZES:
        for w in (n - majority(n) + 1, n):
            with pytest.raises(ValueError):
                Quorums(n, w)


@pytest.mark.parametrize("n", SIZES)
def test_without_witnesses_every_quorum_is_the_papers(n):
    quorums = Quorums(n)
    assert quorums == Quorums(n, 0)
    assert quorums.witnesses == frozenset()
    assert quorums.formation == quorums.normals == majority(n)
    assert quorums.force == quorums.lease == sub_majority(n)
    assert quorums.storage(range(n)) == tuple(range(n))
    with pytest.raises(dataclasses.FrozenInstanceError):
        quorums.force = 0


def test_condition_1_keeps_the_papers_majority_where_every_member_stores():
    # Coverage alone would accept n - formation + 1 = 2 normals at n = 4.
    assert Quorums(4).normals == 3
    assert Quorums(4, 1).normals == 1  # 3 storage members, 3 to a force quorum


# Each example draws one seed and samples member sets for every legal (n, w).
@settings(max_examples=30, deadline=None)
@given(rnd=st.randoms(use_true_random=True))
def test_every_quorum_meets_the_ones_it_must(rnd):
    for n, w in LEGAL:
        quorums = Quorums(n, w)
        assert quorums.witnesses == frozenset(range(n - w, n))
        storage = quorums.storage(range(n))
        # A force quorum: a (storage) primary and ``force`` storage backups.
        force = set(rnd.sample(storage, quorums.force + 1))
        formation = set(rnd.sample(range(n), rnd.randint(quorums.formation, n)))
        normals = set(rnd.sample(storage, quorums.normals))
        lease = set(rnd.sample(range(n), quorums.lease + 1))  # primary + grantors
        assert quorums.storage(formation & force), (n, w)
        assert normals & force, (n, w)
        assert lease & formation, (n, w)


@settings(max_examples=30, deadline=None)
@given(rnd=st.randoms(use_true_random=True))
def test_covers_forces_is_the_brute_force_intersection(rnd):
    for n, w in LEGAL:
        quorums = Quorums(n, w)
        primary = rnd.choice(quorums.storage(range(n)))
        others = [mid for mid in range(n) if mid != primary]
        backups = rnd.sample(others, rnd.randint(0, n - 1))
        acceptors = set(rnd.sample(others, rnd.randint(0, n - 1)))
        storage = quorums.storage(backups)
        # Some storage backup accepted, and one from every force quorum the
        # view could have gathered (vacuous where none fits).
        brute = bool(acceptors.intersection(storage)) and all(
            acceptors.intersection(quorum)
            for quorum in combinations(storage, quorums.force)
        )
        assert quorums.covers_forces(backups, acceptors) == brute, (n, w)

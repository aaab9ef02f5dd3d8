from tedk.alignment import eval_alignment, is_greedy
from tedk.context import QueryContext
from tedk.generate import alphabet, apply_random_edits, planted_pair, random_forest
from tedk.oracle import ted_exact, ted_threshold
from tedk.reduction import reduce_and_anchor

from conftest import is_tree_alignment, sym_diff_size
from reference import sync_power_occurrences

BASE = 0xFEEDBEE


def test_identity_input_gives_identity_anchor(interner, rng):
    syms = alphabet(interner, 3)
    F = random_forest(rng, 25, 4, syms)
    rp = reduce_and_anchor(F, F, QueryContext(1, BASE))
    assert rp.f == F and rp.g == F  # aperiodic random forest stays intact
    assert rp.anchor is not None
    st = eval_alignment(rp.anchor, rp.seq_f, rp.seq_g)
    assert st.cost == 0


def test_size_mismatch_means_no_alignment(interner, rng):
    syms = alphabet(interner, 2)
    F = random_forest(rng, 30, 4, syms)
    G = random_forest(rng, 10, 4, syms)
    k = 2
    assert abs(F.n - G.n) > k
    rp = reduce_and_anchor(F, G, QueryContext(k, BASE))
    assert rp.anchor is None


def test_anchor_budget_and_greedy(interner, rng):
    syms = alphabet(interner, 2)
    for _ in range(15):
        k = int(rng.integers(1, 3))
        F = random_forest(rng, int(rng.integers(1, 25)), 4, syms)
        G = apply_random_edits(rng, F, int(rng.integers(0, k + 1)), syms)
        rp = reduce_and_anchor(F, G, QueryContext(k, BASE))
        if ted_exact(F, G) <= k:
            assert rp.anchor is not None
        if rp.anchor is not None:
            st = eval_alignment(rp.anchor, rp.seq_f, rp.seq_g)
            assert st.cost <= 16 * k * k and st.width <= 2 * k
            assert is_greedy(rp.anchor, rp.seq_f, rp.seq_g)


def test_reduction_preserves_threshold(interner, rng):
    for t in range(25):
        k = int(rng.integers(1, 3))
        F, G, d = planted_pair(rng, int(rng.integers(0, 60)), k, 2, interner)
        rp = reduce_and_anchor(F, G, QueryContext(k, BASE))
        assert ted_threshold(rp.f, rp.g, k) == ted_threshold(F, G, k)


def test_refined_sequences_avoid_synced_powers(interner, rng):
    # scanner: no (20k+2)-powers with root <= 4k, 2k-synchronized
    for t in range(12):
        k = int(rng.integers(1, 3))
        F, G, d = planted_pair(rng, int(rng.integers(0, 70)), k, 2, interner)
        rp = reduce_and_anchor(F, G, QueryContext(k, BASE))
        hits = sync_power_occurrences(rp.seq_f, rp.seq_g, 2 * k,
                                      20 * k + 2, 4 * k)
        assert not hits


def test_anchor_close_to_every_optimal_alignment(interner, rng):
    # |anchor triangle B| <= 4928 k^4 for every optimum tree alignment B
    import sys
    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
    from test_alignment import budget_alignments
    syms = alphabet(interner, 2)
    done = 0
    while done < 10:
        k = int(rng.integers(1, 3))
        F = random_forest(rng, int(rng.integers(1, 6)), 3, syms)
        G = apply_random_edits(rng, F, int(rng.integers(0, k + 1)), syms)
        if not 1 <= G.n <= 6:
            continue
        best = ted_exact(F, G)
        if best > k:
            continue
        rp = reduce_and_anchor(F, G, QueryContext(k, BASE))
        assert rp.anchor is not None
        sf0 = rp.f.codes
        sg0 = rp.g.codes
        opts = [B for B in budget_alignments(sf0, sg0, 2 * k, 2 * k)
                if is_tree_alignment(B, rp.f, rp.g)
                and eval_alignment(B, sf0, sg0).cost == 2 * best]
        assert opts
        for B in opts:
            assert sym_diff_size(rp.anchor, B) <= 4928 * k ** 4
        done += 1

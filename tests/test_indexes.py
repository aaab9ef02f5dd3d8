import numpy as np

from tedk.alignment import as_codes
from tedk.context import QueryContext
from tedk.generate import alphabet, random_forest
from tedk.hashing import (_ROW, M61, HashedSeq, grow_powers, mulmod_vec,
                          sum_mod)
from tedk.forest import lca_depth
from tedk.horizontal import filter_runs
from tedk.indexes import compute_runs
from tedk.selftest import naive_runs, planted_runs, primitive_word

from conftest import forest
from reference import naive_lca, prefix_table


def runs_set(S):
    return compute_runs(as_codes(S)).tolist()


def test_runs_examples():
    assert runs_set("aaaa") == [[0, 4, 1]]
    assert runs_set("abab") == [[0, 4, 2]]
    assert runs_set("aabaabaa") == [[0, 2, 1], [0, 8, 3], [3, 5, 1], [6, 8, 1]]


def test_runs_match_naive_and_count(rng):
    for _ in range(60):
        n = int(rng.integers(0, 150))
        S = rng.integers(0, 3, n)
        got = runs_set(S)
        assert got == naive_runs(S)
        assert len(got) < max(1, n)


def test_runs_bounded_period(rng):
    for _ in range(30):
        S = rng.integers(0, 2, 120)
        full = [[i, j, p] for i, j, p in compute_runs(S).tolist() if p <= 3]
        assert full == compute_runs(S, max_period=3).tolist()


def test_filtered_run_overlap_bound(rng):
    # follows the proof: for filtered runs sorted by start, j1 < i2 + 8k, j1 < j2
    k = 1
    for _ in range(40):
        S = rng.integers(0, 2, 400)
        loose = [(i, j) for i, j, p in
                 compute_runs(as_codes(S), max_period=4 * k).tolist()
                 if j - i >= 8 * k * p]
        for a in range(len(loose)):
            for b in range(a + 1, len(loose)):
                (i1, j1), (i2, j2) = loose[a], loose[b]
                assert j1 < i2 + 8 * k
                assert j1 < j2


def test_lca_examples_and_oracle(interner, rng):
    F = forest("(a(b(c)(d))(e))(f)", interner)
    # same node, ancestor case, siblings' parent, different trees
    assert lca_depth(F.depth, [2, 1, 2, 2], [2, 3, 4, 5]).tolist() == [2, 1, 0, -1]
    assert lca_depth(F.depth, [2, 3], [3, 2], lo=1).tolist() == [1, 1]
    assert lca_depth(F.depth, [], []).tolist() == []
    syms = alphabet(interner, 2)
    for t in range(40):
        F = random_forest(rng, int(rng.integers(1, 80)), int(rng.integers(1, 30)),
                          syms, branch=0.3 + 0.65 * rng.random())
        a, b = rng.integers(0, F.n, (2, 60))
        want = [-1 if w is None else int(F.depth[w])
                for w in (naive_lca(F, int(x), int(y)) for x, y in zip(a, b))]
        assert lca_depth(F.depth, a, b).tolist() == want
        # any known common-ancestor depth may seed the search
        lo = np.minimum(want, rng.integers(-1, 3, 60))
        assert lca_depth(F.depth, a, b, lo=lo).tolist() == want


def substring(base: int, hs: HashedSeq, i: int, j: int) -> int:
    """Fingerprint of positions [i..j) in exact integers from the prefix
    table made under `base`, (P[j] - P[i]) * base^-(n-j); the empty range
    hashes to 0."""
    unscale = pow(base, -(hs.n - j), M61)
    return (int(hs.P[j]) - int(hs.P[i])) * unscale % M61


def concat_fp(base: int, fp_a: int, len_a: int, fp_b: int, len_b: int) -> int:
    """fp(A·B) from fp(A) and fp(B): fp(A)*base^|B| + fp(B) mod 2^61-1."""
    return (fp_a * pow(base, len_b, M61) + fp_b) % M61


def test_substring_fingerprints(rng):
    S = rng.integers(0, 4, 500)
    hs = HashedSeq(S, QueryContext(1, 987654321))
    assert substring(987654321, hs, 3, 3) == 0
    # equal text -> equal fingerprint; for random queries agree with compare
    i = rng.integers(0, 400, 100_000)
    ln = rng.integers(0, 100, 100_000)
    j = np.minimum(i + ln, 500)
    i2 = rng.integers(0, 400, 100_000)
    j2 = np.minimum(i2 + (j - i), 500)
    same_len = (j - i) == (j2 - i2)
    fp_eq = hs.substring_vec(i, j) == hs.substring_vec(i2, j2)
    for t in range(0, 100_000, 3571):
        direct = same_len[t] and np.array_equal(S[i[t]:j[t]], S[i2[t]:j2[t]])
        assert bool(fp_eq[t] & same_len[t]) == direct
    # full agreement on a vectorized equality baseline
    mism = 0
    for t in range(2000):
        direct = same_len[t] and np.array_equal(S[i[t]:j[t]], S[i2[t]:j2[t]])
        mism += int(bool(fp_eq[t] & same_len[t]) != direct)
    assert mism == 0


def power_fp(base: int, hs: HashedSeq, i: int, j: int, reps: int) -> int:
    """Fingerprint of the substring [i..j) concatenated `reps` times."""
    out, out_len, piece, piece_len = 0, 0, substring(base, hs, i, j), j - i
    while reps:
        if reps & 1:
            out = concat_fp(base, out, out_len, piece, piece_len)
            out_len += piece_len
        piece = concat_fp(base, piece, piece_len, piece, piece_len)
        piece_len *= 2
        reps >>= 1
    return out


def test_power_fingerprint(rng):
    S = rng.integers(0, 3, 40)
    ctx = QueryContext(1, 31337)
    hs = HashedSeq(S, ctx)
    tiled = np.tile(S[5:9], 7)
    hs2 = HashedSeq(np.concatenate([S[:5], tiled]), ctx)
    assert power_fp(31337, hs, 5, 9, 7) == substring(31337, hs2, 5, 5 + 28)


def test_prefix_and_power_tables_match_integers(rng):
    # P[i] = sum_{j<i} (code_j+1) * b^(n-1-j), pw[i] = b^i and ipw[i] = b^-i,
    # mod 2^61-1 in Python ints.  One context per base serves a run of
    # lengths that grow and shrink, so both its tables are grown from every
    # size a query can leave them at.
    pows = [2 ** j + s for j in range(1, 12) for s in (-1, 0, 1)]
    for t in range(6):
        base = int(rng.integers(1 << 10, M61 - 2))
        inv = pow(base, -1, M61)
        ctx = QueryContext(1, base)
        lengths = [0, 1, 2] + rng.permutation(pows).tolist()
        lengths += rng.integers(0, 3000, 10).tolist() + [0, 1]
        ref_pw, ref_ipw = [1], [1]
        for n in lengths:
            codes = rng.integers(0, 1 << 40, n)
            hs = ctx.table(codes)
            H = [0]
            for code in codes.tolist():
                H.append((H[-1] * base + code + 1) % M61)
            while len(ref_pw) < len(ctx.pw):
                ref_pw.append(ref_pw[-1] * base % M61)
            while len(ref_ipw) < len(ctx.ipw):
                ref_ipw.append(ref_ipw[-1] * inv % M61)
            assert hs.P.tolist() == prefix_table(codes, base)
            assert ctx.pw.tolist() == ref_pw[:len(ctx.pw)]
            assert ctx.ipw.tolist() == ref_ipw[:len(ctx.ipw)]
            assert len(ctx.pw) >= n + 1 and len(ctx.ipw) >= n + 1
            assert hs.pw.tolist() == ref_pw[:n + 1]
            assert hs.ipw.tolist() == ref_ipw[:n + 1]
            # every prefix and random ranges, against the textbook Horner
            # fingerprint H[j] - H[i] * b^(j-i)
            assert [substring(base, hs, 0, j) for j in range(n + 1)] == H
            i = rng.integers(0, n + 1, 50)
            j = np.maximum(i, rng.integers(0, n + 1, 50))
            want = [(H[b] - H[a] * ref_pw[b - a]) % M61
                    for a, b in zip(i.tolist(), j.tolist())]
            assert hs.substring_vec(i, j).tolist() == want
    # the multiply-mod, array x array and array x scalar, on edge operands
    edge = [0, 1, 2, M61 - 1, M61 - 2, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1,
            2 ** 60, 2 ** 61 - 2 ** 32]
    a = np.array(edge + rng.integers(0, M61, 200).tolist(), dtype=np.uint64)
    for b in (a, a[::-1].copy(), rng.permutation(a)):
        got = mulmod_vec(a, b)
        assert got.tolist() == [x * y % M61 for x, y in zip(a.tolist(), b.tolist())]
    for y in edge:
        want = [x * y % M61 for x in a.tolist()]
        assert mulmod_vec(a, np.uint64(y)).tolist() == want
        assert mulmod_vec(np.uint64(y), a).tolist() == want
        inplace = a.copy()
        mulmod_vec(inplace, np.uint64(y), out=inplace)
        assert inplace.tolist() == want
    # halves whose folded sum lands in [M61, 2*M61): the result is reduced
    terms = [2 ** 60 + 2 ** 32 - 1, 2 ** 60 - 1]
    got = sum_mod(np.array(terms, dtype=np.uint64), np.cumsum)
    assert got.tolist() == [terms[0], sum(terms) % M61]


def test_grow_powers_across_block_edges(rng):
    # the r new entries are one outer product of a column of heads by a
    # row of c = ceil(sqrt(r)) powers, cut to r; growths around _ROW and
    # its multiples cross mulmod_vec's block edges.  Growth from short and
    # long tables to lengths at and around every square and those edges
    # equals the powers by repeated multiplication, has exactly the length
    # asked for, and leaves the table it grew from (and views of it)
    # unchanged
    base = int(rng.integers(1 << 10, M61 - 2))
    growth = {1, 2, 3}
    for q in range(1, 13):
        for edge in (q * q, q * (q + 1)):
            growth |= {edge - 1, edge, edge + 1}
    for rows in (1, 2, 3):
        growth |= {rows * _ROW - 1, rows * _ROW, rows * _ROW + 1}
    want = [1]
    while len(want) < 300 + max(growth):
        want.append(want[-1] * base % M61)
    for start in (1, 7, 300):
        pw = np.array(want[:start], dtype=np.uint64)
        view = pw[start // 2:]
        assert grow_powers(pw, base, start) is pw
        for r in sorted(growth - {0}):
            out = grow_powers(pw, base, start + r)
            assert len(out) == start + r
            assert out.tolist() == want[:start + r]
            assert view.tolist() == want[start // 2:start]
        assert grow_powers(pw, base, start - 1) is pw
    # a column times a row broadcasts to their outer product
    col = rng.integers(0, M61, 9, dtype=np.uint64)
    row = rng.integers(0, M61, 13, dtype=np.uint64)
    assert mulmod_vec(col[:, None], row).tolist() == [
        [x * y % M61 for y in row.tolist()] for x in col.tolist()]


def test_prefix_blocks_match_integers(rng):
    # the prefix table and substring hashes are whole-array passes whose
    # multiply-mods run in blocks of _ROW: lengths around one and three of
    # mulmod_vec's blocks, every prefix, and ranges that start or end at a
    # block edge or cross one
    base = int(rng.integers(1 << 10, M61 - 2))
    for n in (0, 1, _ROW - 1, _ROW, _ROW + 1, 3 * _ROW + 5):
        codes = rng.integers(0, 1 << 40, n)
        hs = HashedSeq(codes, QueryContext(1, base))
        want = prefix_table(codes, base)
        assert hs.P.tolist() == want
        H = [0]
        for code in codes.tolist():
            H.append((H[-1] * base + code + 1) % M61)
        edges = list(range(0, n + 1, _ROW)) + [n]
        near = sorted({min(max(e + d, 0), n) for e in edges
                       for d in (-2, -1, 0, 1, 2)})
        i = np.array(near + rng.integers(0, n + 1, 3 * _ROW).tolist())
        j = np.array(rng.permutation(near).tolist()
                     + rng.integers(0, n + 1, 3 * _ROW).tolist())
        i, j = np.minimum(i, j), np.maximum(i, j)
        pw = [1]
        while len(pw) <= n:
            pw.append(pw[-1] * base % M61)
        assert hs.substring_vec(i, j).tolist() == [
            (H[b] - H[a] * pw[b - a]) % M61
            for a, b in zip(i.tolist(), j.tolist())]


def test_blocked_mulmod_matches_integers(rng):
    # outputs longer than one block: array x array, a scalar on either
    # side, and `out` that is one of the operands, block for block
    n = 2 * _ROW + 3
    a = rng.integers(0, M61, n, dtype=np.uint64)
    b = rng.integers(0, M61, n, dtype=np.uint64)
    a[:4] = [0, 1, M61 - 1, 2 ** 32]
    want = [x * y % M61 for x, y in zip(a.tolist(), b.tolist())]
    assert mulmod_vec(a, b).tolist() == want
    y = int(rng.integers(0, M61))
    scaled = [x * y % M61 for x in a.tolist()]
    assert mulmod_vec(a, np.uint64(y)).tolist() == scaled
    assert mulmod_vec(np.uint64(y), a).tolist() == scaled
    for left in (True, False):
        x, other = a.copy(), b.copy()
        mulmod_vec(x, other, out=x) if left else mulmod_vec(other, x, out=x)
        assert x.tolist() == want and other.tolist() == b.tolist()
    x = a.copy()
    mulmod_vec(x, np.uint64(y), out=x)
    assert x.tolist() == scaled
    # a reversed view as an operand, as the prefix table passes its powers
    assert mulmod_vec(a[::-1], b).tolist() == [
        x * y % M61 for x, y in zip(a[::-1].tolist(), b.tolist())]


def engine_runs(S, k):
    """The engine's call, compute_runs(S, 4k, 16k)."""
    return filter_runs(S, k).tolist()


def test_filtered_runs_at_the_filter_edge(rng):
    # runs one short of, at and one past the filter's stretch length, runs
    # touching either end, and two runs split by one mismatch: the engine's
    # call keeps exactly the planted runs that pass, as the naive scan does
    for k in (1, 2, 3):
        for _ in range(6):
            S, kept = planted_runs(rng, k)
            want = [[i, j, p] for i, j, p in naive_runs(S)
                    if p <= 4 * k and j - i >= 16 * k * p]
            assert engine_runs(S, k) == want == kept


def test_filtered_runs_at_every_block_offset(rng):
    # a stretch of exactly `need` equal positions holds a whole aligned
    # block of the scan wherever it starts; slide one run past every start
    # modulo the block size, with one position to spare and one too few,
    # behind symbols that occur once
    for k in (1, 2, 3):
        for p in range(1, 4 * k + 1):
            word = primitive_word(rng, p)
            need = (16 * k - 1) * p
            for a in range(need // 2 + 2):
                for delta in (-1, 0, 1):
                    S = np.concatenate([np.arange(3, 3 + a),
                                        np.resize(word, need + delta + p),
                                        [3 + a]])
                    want = [[a, a + need + delta + p, p]] if delta >= 0 else []
                    assert engine_runs(S, k) == want

"""A standing list of mutants of `src/tedk`, each with the tests that must
kill it.

Usage, from the repository root:

    python tools/mutants.py [NAME ...]

Every mutant in MUTANTS runs, or with NAME arguments only the named ones.
Each replaces one exact snippet of one file with its replacement, in a
temporary copy of `src/`, `tests/` and `pyproject.toml`, and runs its tests
there with pytest.  A mutant is killed when those tests fail.  Before any
mutant runs, the union of the running mutants' tests must pass on the
unmutated copy.  One line per mutant is printed: `killed`, `survived`, or
`equivalent` for a survivor whose entry gives the reason no test can kill
it.  The exit code is 0 when every mutant is killed or a known equivalent,
1 when another survives or a snippet no longer occurs exactly once (the
entry is stale), and 2 when the unmutated tests fail or a NAME is unknown
(the valid names are listed).

The script needs no package beyond pytest and is not part of the test suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    snippet: str  # must occur exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the root
    equivalent: str = ""  # why no test can kill it, for a known survivor


MUTANTS = [
    Mutant("engine-keeps-markov-failures", "src/tedk/engine.py",
           "continue  # rejected by the Markov bound",
           "pass  # rejected by the Markov bound",
           ("tests/test_engine.py::test_sampling_rounds_pinned",)),
    Mutant("engine-round-seeds-shifted", "src/tedk/engine.py",
           "entropy=(cfg.seed, 1 + i)", "entropy=(cfg.seed, i)",
           ("tests/test_engine.py::test_sampling_rounds_pinned",)),
    Mutant("lower-bound-past-ceil", "src/tedk/engine.py",
           "return (sed + 1) // 2", "return sed // 2 + 1",
           ("tests/test_engine.py::test_lower_bound_certified",
            "tests/test_engine.py::test_deep_chain_one_round_under_auto")),
    Mutant("lower-bound-floor", "src/tedk/engine.py",
           "return (sed + 1) // 2", "return sed // 2",
           ("tests/test_engine.py::test_lower_bound_certified",)),
    Mutant("early-exit-strict", "src/tedk/engine.py",
           "if kept[-1] <= bound:", "if kept[-1] < bound:",
           ("tests/test_engine.py::test_deep_chain_one_round_under_auto",
            "tests/test_engine.py::test_sampling_rounds_pinned")),
    Mutant("certificate-at-k", "src/tedk/engine.py",
           "if bound <= k else 0", "if bound < k else 0",
           ("tests/test_engine.py::test_deep_chain_one_round_under_auto",)),
    Mutant("context-records-by-length", "src/tedk/context.py",
           'if np.array_equal(rec["codes"], codes):',
           'if len(rec["codes"]) == len(codes):',
           ("tests/test_horizontal.py::test_context_runs_by_content",
            "tests/test_horizontal.py::test_context_runs_and_tables_share_records")),
    Mutant("forest-record-by-length", "src/tedk/context.py",
           'if np.array_equal(rec["codes"], codes):',
           'if rec["codes"].shape == codes.shape:',
           ("tests/test_forest.py::test_context_forest_by_content",)),
    Mutant("forest-record-stale", "src/tedk/context.py",
           'return rec[what]', 'return self._records[0][what]',
           ("tests/test_forest.py::test_context_forest_by_content",)),
    Mutant("context-records-by-identity-only", "src/tedk/context.py",
           'if np.array_equal(rec["codes"], codes):', 'if False:',
           ("tests/test_forest.py::test_context_forest_by_content",)),
    Mutant("context-audit-shares-base", "src/tedk/context.py",
           "max((base * base + 0x9E3779B97F4A7C15) % M61, 1 << 10)", "base",
           ("tests/test_labeling.py::test_audit_twin_fingerprints_under_its_own_base",)),
    Mutant("prune-diff-of-1", "src/tedk/partial.py",
           "(np.diff(P[order, 0]) == 2)", "(np.diff(P[order, 0]) == 1)",
           ("tests/test_partial.py::test_prune_redundant_examples",)),
    Mutant("prune-remap-off-by-one", "src/tedk/partial.py",
           "np.cumsum(keep) - 1", "np.cumsum(keep)",
           ("tests/test_partial.py::test_prune_redundant_bound_and_distance",)),
    Mutant("leaf-test-ignores-label", "src/tedk/partial.py",
           "(codes[at + 1] == codes[at] + 1)", "((codes[at + 1] & 1) == 1)",
           ("tests/test_partial.py::test_leaf_test_reads_the_label",)),
    Mutant("twin-side-without-diagonal-check", "src/tedk/partial.py",
           "return codes_g is codes_f and np.array_equal(P[:, 0], P[:, 1])",
           "return codes_g is codes_f",
           ("tests/test_partial.py::test_one_forest_on_the_diagonal_computes_one_side",)),
    Mutant("gadget-blocks-before-open", "src/tedk/partial.py",
           "np.repeat(at + 1, 2 * slots)", "np.repeat(at, 2 * slots)",
           ("tests/test_partial.py::test_gadget_examples",)),
    Mutant("fresh-labels-at-max-label", "src/tedk/partial.py",
           "return 1 + (int(max(codes_f.max(), codes_g.max())) >> 1)",
           "return int(max(codes_f.max(), codes_g.max())) >> 1",
           ("tests/test_partial.py::test_gadget_labels_fresh",)),
    Mutant("fingerprints-keyed-without-depth", "src/tedk/labeling.py",
           'state.derived(H.codes, ("fp", min(d, H.height())),',
           'state.derived(H.codes, "fp",',
           ("tests/test_labeling.py::test_lookahead_fingerprints_recorded_per_depth",)),
    Mutant("fp-key-caps-below-height", "src/tedk/labeling.py",
           '("fp", min(d, H.height()))', '("fp", min(d, H.height() - 1))',
           ("tests/test_labeling.py::test_lookahead_keys_effective_depth_per_forest",)),
    Mutant("joint-memo-by-shape", "src/tedk/labeling.py",
           "memo[0] is not fp_f or memo[1] is not fp_g",
           "memo[0].shape != fp_f.shape or memo[1].shape != fp_g.shape",
           ("tests/test_labeling.py::test_lookahead_ranks_a_fingerprint_pair_once",)),
    Mutant("lookahead-refines-f-labels-twice", "src/tedk/labeling.py",
           "labels if G is F else G.labels", "labels",
           ("tests/test_contracts.py::test_labeling_refines_contract",)),
    Mutant("dp-equal-exit-off", "src/tedk/oracle.py",
           "if dd == 0 and equal(fi, fe, gi):", "if False:",
           ("tests/test_oracle.py::test_dp_states_follow_the_edit",)),
    Mutant("dp-shift-sign-flipped", "src/tedk/oracle.py",
           "d = b - a", "d = a - b",
           ("tests/test_oracle.py::test_dp_matches_unpruned_recurrence",
            "tests/test_oracle.py::test_dp_matches_brute")),
    Mutant("dp-count-read-off-by-one", "src/tedk/oracle.py",
           "return count[e] == count[a]", "return count[e - 1] == count[a]",
           ("tests/test_oracle.py::test_dp_matches_unpruned_recurrence",
            "tests/test_oracle.py::test_dp_matches_brute")),
    Mutant("dp-right-sibling-state-off-by-one", "src/tedk/oracle.py",
           "right = (fend, fe, gend, ge)",
           "right = (fend, fe, min(gend + 1, ge), ge)",
           ("tests/test_oracle.py::test_dp_matches_zhang_shasha",)),
    Mutant("dp-jump-skips-g-end-check", "src/tedk/oracle.py",
           "if atf[cf - mid] < p and atg[cg - mid] < pd:",
           "if atf[cf - mid] < p:",
           ("tests/test_oracle.py::test_dp_jump_matches_unpruned_on_deep_pairs",)),
    Mutant("dp-jump-lands-on-p", "src/tedk/oracle.py",
           "        return x\n", "        return p\n",
           ("tests/test_oracle.py::test_dp_jump_matches_unpruned_on_deep_pairs",)),
    Mutant("dp-jump-ignores-depth-offset", "src/tedk/oracle.py",
           "key = (d, int(G.depth[gi] - F.depth[fi]))", "key = (d, 0)",
           ("tests/test_oracle.py::test_dp_jump_counts_on_a_deep_chain",)),
    Mutant("pairing-test-ignores-negative-xor", "src/tedk/forest.py",
           "self.codes[self.o] ^ self.codes[self.c] != 1",
           "self.codes[self.o] ^ self.codes[self.c] > 1",
           ("tests/test_forest.py::test_pair_parens_errors_match_reference",)),
    Mutant("label-mismatch-first-in-pre-order", "src/tedk/forest.py",
           "b = bad[np.argmin(self.depth[bad])]", "b = bad[0]",
           ("tests/test_forest.py::test_pair_parens_errors_match_reference",)),
    Mutant("shallow-loss-returns-inf", "src/tedk/shallow.py",
           'raise ContractError(f"shared matching of {len(M)} pairs misses more "\n'
           '                            f"than {allowed_loss} of {F1.n} nodes")',
           "return INF",
           ("tests/test_contracts.py::test_shallow_loss_contract",)),
    Mutant("compat-gather-unpadded", "src/tedk/labeling.py",
           "at = F.o + (off + w)", "at = F.o + (off)",
           ("tests/test_labeling.py::test_compat_refine_matches_naive_closure",)),
    Mutant("marked-class-counts-itself", "src/tedk/partial.py",
           "opens_before = np.cumsum(is_m) - is_m",
           "opens_before = np.cumsum(is_m)",
           ("tests/test_partial.py::test_marked_class_matches_parent_walk",)),
    Mutant("core-trims-one-more", "src/tedk/alignment.py",
           "keep = mask & (within >= trim)", "keep = mask & (within > trim)",
           ("tests/test_alignment.py::test_common_matching_trivial_formula",
            "tests/test_alignment.py::test_common_matching_two_fragments")),
    Mutant("core-keeps-untrimmed", "src/tedk/alignment.py",
           "keep = mask & (within >= trim)", "keep = mask",
           ("tests/test_alignment.py::test_common_matching_contained_in_every_greedy_witness",)),
    Mutant("core-builds-no-witness", "src/tedk/alignment.py",
           "if min(len(X), len(Y)) <= trim:", "if True:",
           ("tests/test_alignment.py::test_common_matching_two_fragments",)),
    Mutant("core-skips-width-exit", "src/tedk/alignment.py",
           "    if abs(len(X) - len(Y)) > w:\n"
           '        raise NoAlignmentError(f"no alignment with width <= {w}")\n',
           "",
           ("tests/test_shallow.py::test_lengths_past_the_width_answer_inf",)),
    Mutant("core-size-test-strict", "src/tedk/alignment.py",
           "if min(len(X), len(Y)) <= trim:", "if min(len(X), len(Y)) < trim:",
           ("tests/test_alignment.py::test_common_matching_builds_a_witness_only_above_the_trim",)),
    Mutant("eval-skips-end-check", "src/tedk/alignment.py",
           "if A[-1, 0] != len(X) or A[-1, 1] != len(Y):", "if False:",
           ("tests/test_alignment.py::test_eval_examples",
            "tests/test_contracts.py::test_contracts_survive_python_O")),
    Mutant("greedy-insertion-wins-ties", "src/tedk/alignment.py",
           "if c > s and 0 <= c <= limit:", "if c >= s and 0 <= c <= limit:",
           ("tests/test_alignment.py::test_greedy_align_mismatch_runs_match_rowwise",)),
    Mutant("run-blocks-too-wide", "src/tedk/indexes.py",
           "b = (need + 1) // 2\n", "b = need // 2 + 1\n",
           ("tests/test_indexes.py::test_filtered_runs_at_every_block_offset",)),
    Mutant("run-right-end-from-group", "src/tedk/indexes.py",
           "np.argmin(blocks[stop[right]], axis=1)",
           "np.argmin(blocks[stop[right] - 1], axis=1)",
           ("tests/test_indexes.py::test_filtered_runs_at_every_block_offset",
            "tests/test_indexes.py::test_filtered_runs_at_the_filter_edge")),
    Mutant("run-left-end-from-first-false", "src/tedk/indexes.py",
           "blocks[first[left] - 1, ::-1]", "blocks[first[left] - 1]",
           ("tests/test_indexes.py::test_filtered_runs_at_every_block_offset",
            "tests/test_indexes.py::test_filtered_runs_at_the_filter_edge")),
    Mutant("runs-keep-largest-period", "src/tedk/indexes.py",
           "best.setdefault(key, p)", "best[key] = p",
           ("tests/test_indexes.py::test_runs_match_naive_and_count",
            "tests/test_indexes.py::test_runs_examples")),
    Mutant("horizontal-site-at-min-start", "src/tedk/horizontal.py",
           "at = max(ai, bi)", "at = min(ai, bi)",
           ("tests/test_horizontal.py::test_sync_reductions_preserve_distance",
            "tests/test_horizontal.py::test_sync_occurrences_site_at_later_start")),
    Mutant("vert-right-site-off-by-one", "src/tedk/vertical.py",
           "q_r * e - 1", "q_r * e",
           ("tests/test_vertical.py::test_vert_reduction_preserves_distance",
            "tests/test_vertical.py::test_vert_sites_of_a_chain_pair")),
    Mutant("powers-head-off-by-one", "src/tedk/hashing.py",
           "pow(base, size, M61)", "pow(base, size + 1, M61)",
           ("tests/test_indexes.py::test_grow_powers_across_block_edges",)),
    Mutant("inverse-power-off-by-one", "src/tedk/hashing.py",
           "self.ipw[self.n - j]", "self.ipw[self.n - j - 1]",
           ("tests/test_indexes.py::test_prefix_and_power_tables_match_integers",)),
    Mutant("prefix-powers-shifted", "src/tedk/hashing.py",
           "pw[:n][::-1]", "pw[1:n + 1][::-1]",
           ("tests/test_indexes.py::test_prefix_and_power_tables_match_integers",)),
    Mutant("compat-one-side-without-label-identity", "src/tedk/labeling.py",
           "one_side = G is F and lab.g is lab.f", "one_side = G is F",
           ("tests/test_labeling.py::test_compat_one_side_equals_two_sides",)),
    Mutant("components-jump-once", "src/tedk/labeling.py",
           "    while len(nodes):\n", "    if len(nodes):\n",
           ("tests/test_labeling.py::test_components_of_long_paths",)),
    Mutant("components-hook-smaller-under-larger", "src/tedk/labeling.py",
           "hooked = np.maximum(r, c)\n"
           "        np.minimum.at(parent, hooked, np.minimum(r, c))",
           "hooked = np.minimum(r, c)\n"
           "        np.maximum.at(parent, hooked, np.maximum(r, c))",
           ("tests/test_labeling.py::test_components_of_random_bipartite_graphs",)),
    Mutant("dense-rank-off-by-one", "src/tedk/labeling.py",
           "out=rank[1:])", "out=rank[:-1])",
           ("tests/test_labeling.py::test_dense_joint_ranks_like_unique",)),
    Mutant("dense-rank-skips-high-digit", "src/tedk/labeling.py",
           "order = order[key.view(np.int64)]", "order = order + 0",
           ("tests/test_labeling.py::test_dense_joint_ranks_like_unique",)),
    Mutant("refines-skips-g-side-when-only-fine-shared", "src/tedk/labeling.py",
           "if not (fine.g is fine.f and coarse.g is coarse.f):",
           "if fine.g is not fine.f:",
           ("tests/test_labeling.py::test_refines_with_shared_arrays",)),
    Mutant("parse-keeps-unicode-whitespace", "src/tedk/forest.py",
           'text = " ".join(text.split())', "text = text",
           ("tests/test_forest.py::test_parse_matches_stack_parser",)),
    Mutant("parse-packs-label-short", "src/tedk/forest.py",
           "shift = (64 - 8 * lengths[short])",
           "shift = (72 - 8 * lengths[short])",
           ("tests/test_forest.py::test_parse_matches_stack_parser",)),
    Mutant("parse-interns-group-by-group", "src/tedk/forest.py",
           "order = sorted(range(len(texts)), key=texts.__getitem__)",
           "order = range(len(texts))",
           ("tests/test_forest.py::test_parse_interns_across_label_lengths_in_sorted_order",)),
    Mutant("vert-partner-from-high-end", "src/tedk/vertical.py",
           "next(filter(None, map(partner, window)), None)",
           "next(filter(None, map(partner, reversed(window))), None)",
           ("tests/test_vertical.py::test_vert_periods_partner_choice",)),
]


def _copy_tree(dst: Path) -> None:
    shutil.copytree(ROOT / "src", dst / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(ROOT / "tests", dst / "tests",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dst / "pyproject.toml")


def _pytest(where: Path, tests) -> bool:
    """True iff the tests pass in the copy at `where`."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=where, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def run_mutant(m: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="tedk-mutant-") as tmp:
        where = Path(tmp)
        _copy_tree(where)
        path = where / m.file
        text = path.read_text()
        if text.count(m.snippet) != 1:
            return "stale"
        path.write_text(text.replace(m.snippet, m.replacement))
        if not _pytest(where, m.tests):
            return "killed"
    return "equivalent" if m.equivalent else "survived"


def main(names: list[str]) -> int:
    valid = [m.name for m in MUTANTS]
    unknown = [name for name in names if name not in valid]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}; valid names:",
              *valid, sep="\n  ", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    tests = sorted({t for m in chosen for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="tedk-mutant-") as tmp:
        _copy_tree(Path(tmp))
        if not _pytest(Path(tmp), tests):
            print("the mutants' tests fail on the unmutated code")
            return 2
    bad = 0
    for m in chosen:
        outcome = run_mutant(m)
        bad += outcome in ("survived", "stale")
        reason = f"  ({m.equivalent})" if outcome == "equivalent" else ""
        print(f"{outcome:10s} {m.name}{reason}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

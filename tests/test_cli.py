import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import tedk.cli
import tedk.labeling
from tedk.cli import MAX_EDITS, MAX_N, MAX_PLANT_K, MAX_SIGMA, main
from tedk.forest import LabelInterner, serialize_paren
from tedk.generate import alphabet, apply_random_edits

from conftest import deep_chain

SRC = Path(tedk.cli.__file__).parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_and_compute(tmp_path, capsys):
    a = tmp_path / "a.paren"
    b = tmp_path / "b.paren"
    code, _, _ = run_cli(capsys, "gen", "--n", "60", "--height", "4",
                         "--sigma", "3", "--seed", "11",
                         "--out", str(a), "--out2", str(b), "--edits", "2")
    assert code == 0
    code, out, _ = run_cli(capsys, "compute", str(a), str(b), "--k", "3",
                           "--seed", "5")
    assert code == 0
    val, k, seed, rounds = out.strip().split("\t")
    assert k == "3" and seed == "5"
    assert val.isdigit() and int(val) <= 2
    # identical files, k=1 -> 0
    code, out, _ = run_cli(capsys, "compute", str(a), str(a), "--k", "1")
    assert code == 0 and out.split("\t")[0] == "0"


def test_compute_inf_and_k0(tmp_path, capsys):
    a = tmp_path / "a.paren"
    b = tmp_path / "b.paren"
    a.write_text("(x)\n")
    b.write_text("(y)\n")
    code, out, _ = run_cli(capsys, "compute", str(a), str(b), "--k", "0")
    assert code == 0 and out.split("\t")[0] == "INF"
    code, out, _ = run_cli(capsys, "compute", str(a), str(a), "--k", "0")
    assert code == 0 and out.split("\t")[0] == "0"
    code, out, _ = run_cli(capsys, "compute", str(a), str(b), "--k", "1")
    assert code == 0 and out.split("\t")[0] == "1"


def test_verify_and_oracle(tmp_path, capsys):
    a = tmp_path / "a.paren"
    b = tmp_path / "b.paren"
    run_cli(capsys, "gen", "--n", "40", "--height", "4", "--sigma", "2",
            "--seed", "3", "--out", str(a), "--out2", str(b), "--edits", "1")
    code, out, _ = run_cli(capsys, "compute", str(a), str(b), "--k", "2",
                           "--verify")
    assert code == 0
    code, out2, _ = run_cli(capsys, "oracle", str(a), str(b), "--k", "2")
    assert code == 0
    assert out.split("\t")[0] == out2.split("\t")[0]


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.paren"
    bad.write_text("(a))\n")
    ok = tmp_path / "ok.paren"
    ok.write_text("(a)\n")
    code, _, err = run_cli(capsys, "compute", str(bad), str(ok), "--k", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "compute", str(ok), str(tmp_path / "nope"),
                         "--k", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "compute", str(ok), "--k", "1")
    assert code == 3
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 3


def test_rounds_flag_is_auto_or_positive(tmp_path, capsys):
    # oracle runs no engine and takes none of the engine flags; the engine
    # runs its rounds in one thread, so there is no --threads
    a = tmp_path / "a.paren"
    a.write_text("(a(b))\n")
    for cmd in ("compute", "bench"):
        for bad in ("0", "-3", "x", ""):
            code, out, err = run_cli(capsys, cmd, str(a), str(a), "--k", "1",
                                     "--rounds", bad)
            assert code == 3 and out == "" and "--rounds" in err
        code, out, _ = run_cli(capsys, cmd, str(a), str(a), "--k", "1",
                               "--threads", "2")
        assert code == 3 and out == ""
    for flag in ("--seed", "--rounds"):
        code, out, err = run_cli(capsys, "oracle", str(a), str(a), "--k", "1",
                                 flag, "2")
        assert code == 3 and out == "" and flag in err
    code, out, _ = run_cli(capsys, "compute", str(a), str(a), "--k", "1",
                           "--oracle")
    assert code == 3 and out == ""
    code, out, _ = run_cli(capsys, "compute", str(a), str(a), "--k", "1",
                           "--rounds", "2")
    assert code == 0 and out.split("\t")[0] == "0"


def test_selftest_quick(capsys):
    assert main(["selftest", "--level", "quick"]) == 0


def run_python(args, cwd):
    """`python args` in `cwd` with only the package's `src` on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_selftest_needs_only_the_package(tmp_path):
    # from outside the repository, with nothing of tests/ importable, the
    # selftest still finds every reference it runs
    out = run_python(["-m", "tedk.cli", "selftest", "--level", "quick"],
                     tmp_path)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 6 and all(ln.startswith("[ok] ") for ln in lines)


def test_query_path_does_not_load_selftest(tmp_path):
    # the references live in tedk.selftest, which only `tedk selftest`
    # loads; the package needs numpy alone, so no scipy module loads either
    out = run_python(["-c", "import sys, tedk, tedk.engine, tedk.cli; "
                      "print('tedk.selftest' in sys.modules, "
                      "any(m.split('.')[0] == 'scipy' for m in sys.modules))"],
                     tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False False\n"


def test_compute_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.paren"
    b = tmp_path / "b.paren"
    run_cli(capsys, "gen", "--n", "80", "--height", "5", "--sigma", "2",
            "--seed", "21", "--out", str(a), "--out2", str(b), "--edits", "1")
    _, out1, _ = run_cli(capsys, "compute", str(a), str(b), "--k", "2",
                         "--seed", "9")
    _, out2, _ = run_cli(capsys, "compute", str(a), str(b), "--k", "2",
                         "--seed", "9")
    assert out1 == out2


def test_json_format(tmp_path, capsys):
    j = tmp_path / "f.json"
    code, _, _ = run_cli(capsys, "gen", "--n", "12", "--height", "3",
                         "--sigma", "2", "--seed", "2", "--out", str(j),
                         "--format", "json")
    assert code == 0
    code, out, _ = run_cli(capsys, "compute", str(j), str(j), "--k", "1",
                           "--format", "json")
    assert code == 0 and out.split("\t")[0] == "0"


def test_malformed_json_exits_2(tmp_path, capsys):
    ok = tmp_path / "ok.json"
    ok.write_text('[{"label": "a"}]\n')
    truncated = tmp_path / "truncated.json"
    truncated.write_text('[{"label": "a", "children": [\n')
    depth = 5000
    deep = tmp_path / "deep.json"
    deep.write_text('[{"label": "a", "children": ' * depth + "[]" + "}]" * depth)
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'[{"label": "\xe9"}]')
    for bad in (truncated, deep, not_utf8):
        code, out, err = run_cli(capsys, "compute", str(bad), str(ok),
                                 "--k", "1", "--format", "json")
        assert code == 2 and out == ""
        assert "parse error" in err and "Traceback" not in err


def test_bad_json_label_exits_2(tmp_path, capsys):
    ok = tmp_path / "ok.json"
    ok.write_text('[{"label": "a"}]\n')
    bad = tmp_path / "space.json"
    bad.write_text('[{"label": "a b"}]\n')
    code, out, err = run_cli(capsys, "compute", str(bad), str(ok),
                             "--k", "1", "--format", "json")
    assert code == 2 and out == ""
    assert "bad label token" in err and "Traceback" not in err


def test_non_string_json_label_exits_2(tmp_path, capsys):
    # a null label is not the string "None": no answer 0 for these two
    none_text = tmp_path / "none_text.json"
    none_text.write_text('[{"label": "None"}]\n')
    for label in ("null", "5", "true"):
        bad = tmp_path / "bad.json"
        bad.write_text(f'[{{"label": {label}}}]\n')
        code, out, err = run_cli(capsys, "compute", str(bad), str(none_text),
                                 "--k", "1", "--format", "json")
        assert code == 2 and out == ""
        assert "not a JSON string" in err and "Traceback" not in err


def test_bench_csv(tmp_path, capsys):
    a = tmp_path / "a.paren"
    run_cli(capsys, "gen", "--n", "50", "--height", "4", "--sigma", "2",
            "--seed", "1", "--out", str(a))
    code, out, _ = run_cli(capsys, "bench", str(a), str(a), "--k", "2")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.startswith("n,k,wall_ms,reduction_ms,anchor_ms")
    assert row.split(",")[0] == "100"


def test_huge_k_answers_exactly(tmp_path, capsys):
    a = tmp_path / "a.paren"
    b = tmp_path / "b.paren"
    a.write_text("(a(b)(c))\n")
    b.write_text("(a(c))\n")
    code, out, err = run_cli(capsys, "compute", str(a), str(b), "--k",
                             "99999999999999999999")
    assert code == 0 and out.split("\t")[0] == "1" and err == ""


def test_k_below_range_exits_3(tmp_path, capsys):
    # bench times the engine, which has no k = 0 path; compute answers k = 0
    a = tmp_path / "a.paren"
    a.write_text("(a(b))\n")
    for cmd, bad in (("bench", "-1"), ("bench", "0"), ("compute", "-1"),
                     ("oracle", "-1")):
        code, out, err = run_cli(capsys, cmd, str(a), str(a), "--k", bad)
        assert code == 3 and out == ""
        assert "--k must be" in err and "Traceback" not in err


def test_log_env_smoke(tmp_path, capsys, caplog, monkeypatch):
    # the INFO line carries the parse time and the report's timings, forest
    # and fingerprint counts included
    monkeypatch.setenv("TEDK_LOG", "INFO")
    a = tmp_path / "a.paren"
    a.write_text("(a(b))\n")
    caplog.set_level(logging.INFO, logger="tedk")
    code, out, _ = run_cli(capsys, "compute", str(a), str(a), "--k", "1")
    assert code == 0 and out.split("\t")[0] == "0"
    assert re.search(r" k=1 parse_ms=\d+\.\d rounds=", caplog.text)
    assert "'forests_built': 1," in caplog.text
    assert "'forests_reused': " in caplog.text
    assert "'fingerprints_built': 1," in caplog.text
    assert "'fingerprints_reused': " in caplog.text


def test_oracle_log_line(tmp_path, capsys, caplog, monkeypatch):
    # every exact DP run logs one INFO line with n, k, the parse time and
    # the DP's work counts; standard output and the exit code are as
    # without the log
    monkeypatch.setenv("TEDK_LOG", "INFO")
    a, b = tmp_path / "a.paren", tmp_path / "b.paren"
    a.write_text("(a(b)(c))\n")
    b.write_text("(a(b)(d))\n")
    caplog.set_level(logging.INFO, logger="tedk")
    line = (r"oracle n=6 k={} parse_ms=\d+\.\d dp_states=(\d+) "
            r"dp_tables=\d+ dp_prefix_tables=\d+ dp_jumps=\d+$")
    for argv, k, want in ((("oracle",), 1, "1\t1\t0\t0\n"),
                          (("compute",), 0, "INF\t0\t0\t0\n"),
                          (("compute", "--verify"), 2, "1\t2\t0\t0\n")):
        caplog.clear()
        code, out, _ = run_cli(capsys, *argv, str(a), str(b), "--k", str(k))
        assert code == 0 and out == want
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("oracle ")]
        assert len(lines) == 1
        match = re.match(line.format(k), lines[0])
        # at k = 0 the label bound (1) answers before the DP runs
        assert match and (int(match[1]) > 0) == (k > 0)


def test_compute_reports_rounds_run_and_bound(tmp_path, capsys, caplog,
                                              rng):
    # a deep chain takes the sampling path; its first round meets the lower
    # bound L = 1, so one round runs, and the INFO log line says why
    it = LabelInterner()
    syms = alphabet(it, 2)
    F = deep_chain(rng, 20_200, syms)
    G = apply_random_edits(rng, F, 1, syms)
    a, b = tmp_path / "a.paren", tmp_path / "b.paren"
    a.write_text(serialize_paren(F, it))
    b.write_text(serialize_paren(G, it))
    caplog.set_level(logging.INFO, logger="tedk")
    code, out, _ = run_cli(capsys, "compute", str(a), str(b), "--k", "1")
    assert code == 0 and out == "1\t1\t0\t1\n"
    assert "rounds=1 kept=1 bound=1 " in caplog.text


def test_gen_planted(tmp_path, capsys):
    a = tmp_path / "p.paren"
    code, _, _ = run_cli(capsys, "gen", "--n", "30", "--height", "4",
                         "--sigma", "2", "--seed", "4", "--out", str(a),
                         "--plant", "mixed", "--plant-k", "1")
    assert code == 0
    text = a.read_text()
    assert text.count("(") > 40  # planting grew the forest


def test_negative_seed_exits_3(tmp_path, capsys):
    a = tmp_path / "a.paren"
    a.write_text("(a(b))\n")
    for argv in (("compute", str(a), str(a), "--k", "1", "--seed", "-1"),
                 ("bench", str(a), str(a), "--k", "1", "--seed", "-1"),
                 ("gen", "--n", "5", "--seed", "-2", "--out",
                  str(tmp_path / "x.paren"))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert "--seed" in err and "Traceback" not in err
    assert not (tmp_path / "x.paren").exists()


def test_gen_bad_plant_k_and_edits_exit_3(tmp_path, capsys):
    a = tmp_path / "a.paren"
    b = tmp_path / "b.paren"
    for extra in (("--plant", "vertical", "--plant-k", "-1"),
                  ("--plant", "horizontal", "--plant-k", "0"),
                  ("--out2", str(b), "--edits", "-1")):
        code, out, err = run_cli(capsys, "gen", "--n", "50", "--out", str(a),
                                 *extra)
        assert code == 3 and "bad gen parameters" in err
    assert not a.exists() and not b.exists()
    code, _, _ = run_cli(capsys, "gen", "--n", "50", "--out", str(a),
                         "--out2", str(b), "--edits", "0")
    assert code == 0 and a.read_text() == b.read_text()


def test_gen_unwritable_output_exits_2(tmp_path, capsys):
    a = tmp_path / "a.paren"
    missing = tmp_path / "no-such-dir" / "x.paren"
    for extra in (("--out", str(missing)),
                  ("--out", str(a), "--out2", str(missing))):
        code, out, err = run_cli(capsys, "gen", "--n", "5", *extra)
        assert code == 2 and out == ""
        assert "tedk: error:" in err and "Traceback" not in err
    assert not missing.exists()


def test_gen_json_too_deep_exits_3(tmp_path, capsys):
    # a forest 949 levels deep, above JSON_MAX_HEIGHT, has no JSON output:
    # gen says so before it opens either file
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code, out, err = run_cli(capsys, "gen", "--n", "3000", "--height", "3000",
                             "--format", "json", "--seed", "1",
                             "--out", str(a), "--out2", str(b))
    assert code == 3 and out == ""
    assert err.startswith("tedk: error:") and "too deep" in err
    assert "Traceback" not in err
    assert not a.exists() and not b.exists()


def test_gen_sigma_above_bound_exits_3(tmp_path, capsys, monkeypatch):
    # the bound is checked before any label is interned
    a = tmp_path / "a.paren"

    def no_alphabet(interner, sigma):
        raise AssertionError(f"alphabet of {sigma} labels built")

    monkeypatch.setattr(tedk.cli, "alphabet", no_alphabet)
    for sigma in (MAX_SIGMA + 1, 100_000_000_000):
        code, out, err = run_cli(capsys, "gen", "--n", "3", "--sigma",
                                 str(sigma), "--out", str(a))
        assert code == 3 and out == ""
        assert "tedk: error:" in err and "--sigma" in err
    assert not a.exists()


def test_gen_size_flags_above_bound_exit_3(tmp_path, capsys, monkeypatch):
    # each bound is checked before any label is interned or node generated
    a = tmp_path / "a.paren"
    b = tmp_path / "b.paren"

    def no_generation(*args, **kwargs):
        raise AssertionError("generation started")

    for name in ("alphabet", "random_forest", "plant_horizontal",
                 "plant_vertical", "apply_random_edits"):
        monkeypatch.setattr(tedk.cli, name, no_generation)
    cases = [(("--n", str(MAX_N + 1)), "--n"),
             (("--n", "3", "--plant", "horizontal",
               "--plant-k", str(MAX_PLANT_K + 1)), "--plant-k"),
             (("--n", "3", "--plant", "mixed", "--plant-k", "100000000"),
              "--plant-k"),
             (("--n", "3", "--out2", str(b), "--edits", str(MAX_EDITS + 1)),
              "--edits")]
    for extra, flag in cases:
        code, out, err = run_cli(capsys, "gen", "--out", str(a), *extra)
        assert code == 3 and out == ""
        assert f"tedk: error: {flag} must be <=" in err
    assert not a.exists() and not b.exists()


def test_compute_audit(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.paren"
    b = tmp_path / "b.paren"
    a.write_text("(a(b)(c(d)))(e)\n")
    b.write_text("(a(b)(c(x)))(e)\n")
    argv = ("compute", str(a), str(b), "--k", "2", "--seed", "3")
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    code, audited, err = run_cli(capsys, *argv, "--audit")
    assert code == 0 and audited == plain and err == ""
    # a second base that merges every class is a detected collision; only
    # the audit twin has no twin of its own
    real = tedk.labeling._subtree_fingerprints

    def merged_under_audit(F, d, ctx):
        fp = real(F, d, ctx)
        return fp if ctx.audit is not None else np.zeros_like(fp)

    monkeypatch.setattr(tedk.labeling, "_subtree_fingerprints",
                        merged_under_audit)
    code, out, err = run_cli(capsys, *argv, "--audit")
    assert code == 1 and out == ""
    assert err.startswith("tedk: audit failed:") and "Traceback" not in err

from tedk.cli import main


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


def test_bench_csv(tmp_path, capsys):
    a = tmp_path / "a.paren"
    run_cli(capsys, "gen", "--n", "50", "--height", "4", "--sigma", "2",
            "--seed", "1", "--out", str(a))
    code, out, _ = run_cli(capsys, "bench", str(a), str(a), "--k", "2")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.startswith("n,k,wall_ms,reduction_ms,anchor_ms")
    assert row.split(",")[0] == "100"


def test_log_env_smoke(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TEDK_LOG", "INFO")
    a = tmp_path / "a.paren"
    a.write_text("(a(b))\n")
    code, out, _ = run_cli(capsys, "compute", str(a), str(a), "--k", "1")
    assert code == 0 and out.split("\t")[0] == "0"


def test_gen_planted(tmp_path, capsys):
    a = tmp_path / "p.paren"
    code, _, _ = run_cli(capsys, "gen", "--n", "30", "--height", "4",
                         "--sigma", "2", "--seed", "4", "--out", str(a),
                         "--plant", "mixed", "--plant-k", "1")
    assert code == 0
    text = a.read_text()
    assert text.count("(") > 40  # planting grew the forest

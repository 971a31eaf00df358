import pytest

from conftest import run_guarded
from sparseproj.cli import main

SUPPORT_3VAR_WITH_SIMPLEX = """\
system n=3 r=3 l=1
poly
0 0 0 : 2
1 1 0 : 3
0 1 1 : -1
poly
0 0 0 : -1
2 1 1 : 2
0 2 0 : 2
1 1 1 : 1
poly
0 0 0 : 1
1 0 0 : 1
0 1 0 : 1
0 0 1 : 1
"""

SYSTEM_5VAR = """\
system n=5 r=2 l=3
poly
0 0 0 0 0 : 3
1 1 1 0 0 : 2
2 0 0 4 2 : -1
0 0 0 8 4 : 5
poly
1 0 1 1 2 : 2
0 1 2 5 4 : -3
1 3 0 5 4 : 7
"""

SYSTEM_3VAR = """\
system n=3 r=2 l=2
poly
0 0 0 : 2
1 1 0 : 3
0 1 1 : -1
poly
0 0 0 : -1
2 1 1 : 2
0 2 0 : 2
1 1 1 : 1
"""

FIBER_3VAR = """\
system n=2 r=2 l=1
poly
0 0 : 2
1 0 : 3
1 1 : -1
poly
0 0 : -1
1 1 : 3
2 0 : 2
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("support3", SUPPORT_3VAR_WITH_SIMPLEX),
                       ("sys5", SYSTEM_5VAR), ("sys3", SYSTEM_3VAR),
                       ("fiber3", FIBER_3VAR)]:
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    paths["tmp"] = tmp_path
    return paths


def test_mv_prints_paper_value(files, capsys):
    assert main(["mv", files["support3"]]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_transbasis_prints_one_based(files, capsys):
    assert main(["transbasis", files["sys5"]]) == 0
    assert capsys.readouterr().out.strip() == "1 2 4"


def test_gamma_lists_components(files, capsys):
    assert main(["gamma", files["sys3"]]) == 0
    out = capsys.readouterr().out
    assert "I: -" in out  # the empty subset is present


def test_solve0d_fiber(files, capsys):
    assert main(["solve0d", files["fiber3"], "--lambda", "X2=1"]) == 0
    out = capsys.readouterr().out
    assert "q(Y) = Y^2-12/5*Y-1/5" in out
    assert "X1 = -5/4*Y-3/4" in out
    assert "X2 = Y" in out


def test_project_threevar_golden_fraction(files, capsys):
    code = main(["project", files["sys3"], "--lambda", "X3=1", "--mu", "X2=1",
                 "--xi", "X1=1", "--format", "structured"])
    assert code == 0
    out = capsys.readouterr().out
    assert "(-12*X1^3-6*X1^2+6*X1)/(4*X1^2+2*X1-1)" in out


def test_project_deterministic_bytes(files, capsys):
    argv = ["project", files["sys5"], "--seed", "7", "--lambda", "X5=1",
            "--mu", "X3=1", "--b", "X4=1", "--xi", "X1=2,X2=3",
            "--format", "structured"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "q 4 : (3/2)/(X1*X2)" in first


def test_project_text_output(files, capsys):
    code = main(["project", files["sys5"], "--lambda", "X5=1", "--mu", "X3=1",
                 "--b", "X4=1", "--xi", "X1=2,X2=3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "free variables: X1 X2" in out
    assert "q(Y) = Y^5+(3/2)/(X1*X2)*Y^4" in out
    assert "X3 = Y" in out


def test_verify_roundtrip_and_mutation(files, capsys):
    res_path = str(files["tmp"] / "res.txt")
    assert main(["project", files["sys5"], "--lambda", "X5=1", "--mu", "X3=1",
                 "--b", "X4=1", "--xi", "X1=2,X2=3", "--output", res_path,
                 "--format", "structured"]) == 0
    capsys.readouterr()
    assert main(["verify", files["sys5"], res_path]) == 0
    out = capsys.readouterr().out
    assert "all identities pass" in out

    # corrupt one coefficient and expect a named failing identity
    text = open(res_path).read()
    bad = text.replace("q 4 : (3/2)/(X1*X2)", "q 4 : (5/2)/(X1*X2)")
    assert bad != text
    bad_path = str(files["tmp"] / "bad.txt")
    open(bad_path, "w").write(bad)
    assert main(["verify", files["sys5"], bad_path]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "q_mu(p_mu)" in captured.err or "q_mu" in captured.out


def test_usage_and_parse_errors(files, capsys, tmp_path):
    assert main(["mv", str(tmp_path / "missing.txt")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("not a system\n")
    assert main(["mv", str(bad)]) == 2
    assert main(["project", files["sys5"], "--lambda", "X9=1"]) == 2
    assert main(["project", files["sys5"], "--lambda", "X1=1"]) == 2  # free var
    capsys.readouterr()


@pytest.mark.parametrize("flag,value,message", [
    ("--lambda", "X1=1", "--lambda: X1 is not a dependent variable (dependents: X3 X5)"),
    ("--mu", "X5=1", "--mu: X5 is not a projected dependent variable (projected: X3)"),
    ("--b", "", "--b must assign exactly the specialized variables: X4"),
    ("--xi", "X1=2", "--xi must assign exactly the free variables: X1 X2"),
], ids=["lambda", "mu", "b", "xi"])
def test_pin_outside_its_variables_is_a_usage_error(files, capsys, flag, value, message):
    capsys.readouterr()
    assert main(["project", files["sys5"], flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_solve0d_reads_the_file_seed(files, capsys):
    seeded = files["tmp"] / "fiber3_seed7.txt"
    seeded.write_text(FIBER_3VAR.replace("l=1\n", "l=1\nseed 7\n", 1))
    assert main(["solve0d", str(seeded)]) == 0
    via_file = capsys.readouterr().out
    assert main(["solve0d", files["fiber3"], "--seed", "7"]) == 0
    via_flag = capsys.readouterr().out
    assert main(["solve0d", files["fiber3"]]) == 0
    unseeded = capsys.readouterr().out
    assert via_file == via_flag
    assert via_file != unseeded


UNIT_SQUARES = """\
system n=2 r=2 l=1
poly
2 0 : 1
0 0 : -1
poly
0 2 : 1
0 0 : -1
"""


def test_solve0d_retries_count_redraws(files, capsys):
    # seed 7 at bound 2 draws four forms with |lam_1| = |lam_2| first
    path = files["tmp"] / "unit_squares.txt"
    path.write_text(UNIT_SQUARES)
    args = ["solve0d", str(path), "--seed", "7", "--bound", "2"]
    assert main(args + ["--retries", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["deg 4", "lambda 2 -1"]
    assert main(args + ["--retries", "3"]) == 1
    assert "genericity failure after retries" in capsys.readouterr().err


def test_degenerate_family_is_a_math_failure(files, capsys):
    # both supports on the X1 axis: the toric variety is empty
    path = files["tmp"] / "axis.txt"
    path.write_text(UNIT_SQUARES.replace("0 2 : 1", "1 0 : 1"))
    assert main(["transbasis", str(path)]) == 1
    assert "degenerate support family" in capsys.readouterr().err


def test_verify_rejects_a_changed_parent_lambda(files, capsys):
    res_path = str(files["tmp"] / "res.txt")
    assert main(["project", files["sys5"], "--lambda", "X5=1", "--mu", "X3=1",
                 "--b", "X4=1", "--xi", "X1=2,X2=3", "--output", res_path,
                 "--format", "structured"]) == 0
    text = open(res_path).read()
    bad = text.replace("parent_lambda 0 1\n", "parent_lambda 3 1\n")
    assert bad != text
    bad_path = str(files["tmp"] / "bad_lambda.txt")
    open(bad_path, "w").write(bad)
    capsys.readouterr()
    assert main(["verify", files["sys5"], bad_path]) == 1
    out = capsys.readouterr().out
    assert "parametric sum lambda_j v_j = Y: FAIL" in out
    assert "parametric membership f1: pass" in out


@pytest.mark.parametrize("good,bad", [("parent_lambda 0 1\n", "parent_lambda 0 1 5\n"),
                                      ("parent_lambda 0 1\n", "parent_lambda 1\n"),
                                      ("\nmu 1\n", "\nmu 1 9\n")],
                         ids=["parent_lambda", "parent_lambda_short", "mu"])
def test_verify_rejects_a_wrong_entry_count(files, capsys, good, bad):
    res_path = str(files["tmp"] / "res.txt")
    assert main(["project", files["sys5"], "--lambda", "X5=1", "--mu", "X3=1",
                 "--b", "X4=1", "--xi", "X1=2,X2=3", "--output", res_path,
                 "--format", "structured"]) == 0
    text = open(res_path).read()
    assert good in text
    bad_path = str(files["tmp"] / "bad_count.txt")
    open(bad_path, "w").write(text.replace(good, bad))
    capsys.readouterr()
    assert main(["verify", files["sys5"], bad_path]) == 2
    captured = capsys.readouterr()
    assert "entries" in captured.err
    assert "all identities pass" not in captured.out


@pytest.fixture(scope="module")
def fivevar_resolution(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fivevar")
    sys_path, res_path = tmp / "sys5.txt", tmp / "res.txt"
    sys_path.write_text(SYSTEM_5VAR)
    assert main(["project", str(sys_path), "--lambda", "X5=1", "--mu", "X3=1",
                 "--b", "X4=1", "--xi", "X1=2,X2=3", "--output", str(res_path),
                 "--format", "structured"]) == 0
    return str(sys_path), res_path.read_text()


@pytest.mark.parametrize("key", ["n", "l", "free", "projected", "parent_dependent",
                                 "parent_lambda"])
def test_verify_names_a_missing_line(fivevar_resolution, tmp_path, capsys, key):
    sys_path, text = fivevar_resolution
    lines = text.splitlines(keepends=True)
    kept = [line for line in lines if line.split(None, 1)[0] != key]
    assert len(kept) == len(lines) - 1
    bad_path = tmp_path / "missing.txt"
    bad_path.write_text("".join(kept))
    capsys.readouterr()
    assert main(["verify", sys_path, str(bad_path)]) == 2
    captured = capsys.readouterr()
    assert f"missing {key!r} line" in captured.err
    assert "all identities pass" not in captured.out


@pytest.mark.parametrize("good,bad,message", [
    ("provenance seed 0\n", "provenance\n", "malformed"),
    ("v 3 1 : 1\n", "v 3 -1 : 1\n", "negative degree"),
    ("parent_w 3 0 :", "parent_w 3 -1 :", "negative degree"),
    ("v 3 1 : 1\n", "v 3 1 : 1\nv 9 1 : 5\n", "not among the projected"),
    ("parent_w 5 1 : 1\n", "parent_w 5 1 : 1\nparent_w 4 0 : 1\n",
     "not among the parent_dependent"),
    ("\nq 0 : ", "\nq 0 : 7\nq 0 : ", "repeated term"),
    ("provenance b 1\n", "provenance b 1 7\n", "lacks the provenance"),
    ("provenance b 1\n", "", "lacks the provenance"),
    ("provenance order 1 2 3 5 4\n", "provenance order 1 2 3 5 5\n", "lacks the provenance"),
    ("\nmu 1\n", "\nmu 2\nmu 1\n", "repeated 'mu' line"),
    ("provenance b 1\n", "provenance b 7\nprovenance b 1\n", "repeated provenance"),
], ids=["bare_provenance", "negative_sole_degree", "negative_degree", "stray_v",
        "stray_parent_w", "repeated_degree", "long_b", "missing_b", "repeated_order",
        "repeated_line", "repeated_provenance"])
def test_verify_rejects_a_malformed_line(fivevar_resolution, tmp_path, capsys,
                                          good, bad, message):
    # a negative degree beside other terms would index the top coefficient; a
    # v line for a variable outside its block, a repeated line and a b of the
    # wrong length would be ignored, overridden or cut short, and an order that
    # is not a permutation would bind one variable twice
    sys_path, text = fivevar_resolution
    assert good in text
    bad_path = tmp_path / "malformed.txt"
    bad_path.write_text(text.replace(good, bad))
    capsys.readouterr()
    assert main(["verify", sys_path, str(bad_path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "all identities pass" not in captured.out


CLI = "import sys; from sparseproj.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("how", ["flag", "file", "pinned_project", "unpinned_project"])
def test_bound_zero_is_a_usage_error(files, how):
    if how == "flag":
        args = ["solve0d", files["fiber3"], "--bound", "0"]
    elif how == "file":
        path = files["tmp"] / "fiber3_bound0.txt"
        path.write_text(FIBER_3VAR.replace("l=1\n", "l=1\nbound 0\n", 1))
        args = ["solve0d", str(path)]
    elif how == "pinned_project":
        # b and xi pinned, so the first draw is the separating form's
        args = ["project", files["sys3"], "--xi", "X1=2", "--bound", "0"]
    else:
        # nothing pinned, so the first draw is b's
        args = ["project", files["sys5"], "--bound", "0"]
    out = run_guarded(CLI, *args)
    assert out.returncode == 2, out.stderr
    assert "bound must be at least 1" in out.stderr

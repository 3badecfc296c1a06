import csv
import hashlib
import json
import math

import pytest

from pilab import gallery, verify
from pilab.cli import main
from pilab.gallery import load_space, sector_union_origin
from pilab.space import FiniteMetricMeasureSpace, default_profile_samples
from test_verify import SEARCH_IDS, SEARCH_SPACES, _count_searches


_INEQS = ("hardy", "weighted-sobolev", "annulus", "local-sobolev", "ahlfors")


def run(*argv):
    return main(list(argv))


def test_gen_grid(tmp_path):
    out = tmp_path / "g.json"
    assert run("gen", "--kind", "grid_quadrant", "--n", "64", "-o", str(out)) == 0
    assert load_space(out).n == 65 * 65


def test_gen_requires_out(capsys):
    assert run("gen", "--kind", "grid_quadrant") == 1


# `pilab profile` stdout, pinned at the commit before one profile pass fed
# both fits
PROFILE_OUTPUT = {
    ("grid_quadrant", "--n", "16"):
        "C_D 4.52\nQ 2.17632\neta 1.69157\nC_o 0.6556\nahlfors_Q 1.88695\nahlfors_C_A 2.23353\n",
    ("cone_grid", "--n", "20", "--eta", "2"):
        "C_D 4.89474\nQ 2.29123\neta 2.21184\nC_o 0.86583\nahlfors_Q 2.04597\nahlfors_C_A 1.60465\n",
}


def test_profile(tmp_path, capsys):
    for gen, text in PROFILE_OUTPUT.items():
        out = tmp_path / f"{gen[0]}.json"
        run("gen", "--kind", *gen, "-o", str(out))
        capsys.readouterr()
        assert run("profile", "--space", str(out)) == 0
        assert capsys.readouterr().out == text


@pytest.mark.parametrize("make", SEARCH_SPACES, ids=SEARCH_IDS)
def test_profile_reads_each_center_row_once(tmp_path, monkeypatch, make):
    # the doubling and Ahlfors fits share one pass over the profile rows;
    # besides them, only the diameter's rows and o's full row are searched
    probe = make()
    probe.diameter()
    count, _, _ = default_profile_samples(probe)
    out = tmp_path / "s.json"
    gallery.save_space(make(), out)
    searches = []
    _count_searches(monkeypatch, searches)
    assert run("profile", "--space", str(out)) == 0
    assert len(searches) == len(set(searches)) <= count + len(probe._dist_cache) + 1


def test_decompose_rejects_bad_kappa(tmp_path):
    out = tmp_path / "g.json"
    run("gen", "--kind", "grid_quadrant", "--n", "8", "-o", str(out))
    assert run("decompose", "--space", str(out), "--kappa", "0.5") == 1


# `pilab decompose` stdout, pinned at the commit before a decomposition
# became its owner array and one level per piece
DECOMPOSE_OUTPUT = {
    (("grid_quadrant", "--n", "16"), "2"):
        "kappa 2\npieces 6\nlevels 5\ntruncated 1\nQ1_emp 6\nQ2_emp 8\n",
    (("cone_grid", "--n", "20", "--eta", "2"), "2"):
        "kappa 2\npieces 4\nlevels 4\ntruncated 360\nQ1_emp 4\nQ2_emp 6\n",
    (("sector_union", "--resolution", "1.0"), "1.2"):
        "kappa 1.2\npieces 117\nlevels 18\ntruncated 10\nQ1_emp 96\nQ2_emp 23\n",
}
AXIOMS_PASS = "".join(f"{name} pass\n" for name in
                      ("axiom1_nested", "axiom2_cover", "axiom4_measure", "eq_Q1", "eq_Q12"))


def test_decompose_runs(tmp_path, capsys):
    for (gen, kappa), text in DECOMPOSE_OUTPUT.items():
        out = tmp_path / f"{gen[0]}.json"
        run("gen", "--kind", *gen, "-o", str(out))
        base = sector_union_origin(load_space(out)) if gen[0] == "sector_union" else 0
        capsys.readouterr()
        assert run("decompose", "--space", str(out), "--base", str(base), "--kappa", kappa) == 0
        assert capsys.readouterr().out == text + AXIOMS_PASS


def test_graph_command(tmp_path, capsys):
    space = tmp_path / "g.json"
    dot = tmp_path / "g.dot"
    run("gen", "--kind", "grid_quadrant", "--n", "16", "-o", str(space))
    assert run("graph", "--space", str(space), "--out", str(dot)) == 0
    lines = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert float(lines["isoperimetric"]) * float(lines["poincare_1"]) == pytest.approx(1.0, rel=1e-5)
    assert dot.read_text().startswith("graph covering {")


def test_verify_hardy_csv(tmp_path):
    space = tmp_path / "g.json"
    rep = tmp_path / "rep.csv"
    run("gen", "--kind", "grid_quadrant", "--n", "16", "-o", str(space))
    code = run(
        "verify", "--space", str(space), "--ineq", "hardy", "--o", "0", "--s", "1",
        "--seed", "7", "--count", "40", "--format", "csv", "--out", str(rep),
    )
    assert code == 0
    header = rep.read_text().splitlines()[0]
    assert header.startswith("inequality,s,t,kappa,Q1,Q2,C1,C2,empirical_best,theoretical")


def test_verify_json_provenance(tmp_path):
    space = tmp_path / "g.json"
    rep = tmp_path / "rep.json"
    run("gen", "--kind", "grid_quadrant", "--n", "12", "-o", str(space))
    assert run(
        "verify", "--space", str(space), "--ineq", "hardy", "--seed", "3",
        "--count", "30", "--format", "json", "--out", str(rep),
    ) == 0
    doc = json.loads(rep.read_text())
    assert doc["provenance"]["seed"] == 3
    assert len(doc["reports"]) == 1


def test_verify_hashes_space_only_for_json(tmp_path, monkeypatch):
    space = tmp_path / "g.json"
    run("gen", "--kind", "grid_quadrant", "--n", "12", "-o", str(space))
    expected = verify.space_hash(load_space(space))

    def no_hash(_space):
        raise AssertionError("space_hash called for a CSV report")

    with monkeypatch.context() as m:
        m.setattr(verify, "space_hash", no_hash)
        assert run(
            "verify", "--space", str(space), "--ineq", "hardy", "--seed", "3",
            "--count", "30", "--out", str(tmp_path / "rep.csv"),
        ) == 0
    rep = tmp_path / "rep.json"
    assert run(
        "verify", "--space", str(space), "--ineq", "hardy", "--seed", "3",
        "--count", "30", "--format", "json", "--out", str(rep),
    ) == 0
    assert json.loads(rep.read_text())["provenance"]["space"] == expected


def test_verify_deterministic_output(tmp_path):
    space = tmp_path / "g.json"
    run("gen", "--kind", "grid_quadrant", "--n", "12", "-o", str(space))
    outs = []
    for name, threads in (("a.csv", "1"), ("b.csv", "4")):
        rep = tmp_path / name
        assert run(
            "verify", "--space", str(space), "--ineq", "hardy", "--seed", "5",
            "--count", "30", "--threads", threads, "--deterministic-output",
            "--out", str(rep),
        ) == 0
        outs.append(rep.read_bytes())
    assert outs[0] == outs[1]


def test_seed_env_fallback(tmp_path, monkeypatch):
    space = tmp_path / "g.json"
    run("gen", "--kind", "grid_quadrant", "--n", "10", "-o", str(space))
    monkeypatch.setenv("PILAB_SEED", "11")
    rep1 = tmp_path / "env.csv"
    assert run(
        "verify", "--space", str(space), "--ineq", "hardy", "--count", "20",
        "--deterministic-output", "--out", str(rep1),
    ) == 0
    rep2 = tmp_path / "flag.csv"
    assert run(
        "verify", "--space", str(space), "--ineq", "hardy", "--seed", "11",
        "--count", "20", "--deterministic-output", "--out", str(rep2),
    ) == 0
    assert rep1.read_bytes() == rep2.read_bytes()


def test_missing_space_file(tmp_path):
    assert run("profile", "--space", str(tmp_path / "none.json")) == 1


def test_render_svg(tmp_path):
    space = tmp_path / "g.json"
    svg = tmp_path / "g.svg"
    run("gen", "--kind", "grid_quadrant", "--n", "8", "-o", str(space))
    assert run("render", "--space", str(space), "--kappa", "2.0", "--out", str(svg)) == 0
    assert svg.read_text().startswith("<svg")


def test_render_svg_bytes_are_pinned_on_many_pieces(tmp_path):
    # sector_union(1.0) at kappa 1.2 around its origin: 117 pieces share the
    # palette cyclically, and o and the truncated tail stay grey
    space = tmp_path / "s.json"
    svg = tmp_path / "s.svg"
    run("gen", "--kind", "sector_union", "--resolution", "1.0", "-o", str(space))
    base = sector_union_origin(load_space(space))
    assert run("render", "--space", str(space), "--base", str(base), "--kappa", "1.2", "-o", str(svg)) == 0
    digest = hashlib.sha256(svg.read_bytes()).hexdigest()
    assert digest == "07eb3762cd4aed0c56759c9aa4200917c39543ecaed22d24f7df6a0caafd4ba9"


@pytest.mark.parametrize(
    "eta",
    [
        "12",
        "20",
        # the weighted masses overflow in float64 (ROADMAP item 9)
        pytest.param("120", marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    ],
)
def test_verify_nonfinite_constant_fails_with_flag(tmp_path, eta):
    # At eta=12 the assembled constant is inf; at eta=20 it overflows; at
    # eta=120 the weighted masses overflow before the covering-graph LP.
    space = tmp_path / "r.json"
    rep = tmp_path / "rep.csv"
    run("gen", "--kind", "radial_profile", "--n", "256", "--eta", eta, "-o", str(space))
    code = run(
        "verify", "--space", str(space), "--ineq", "weighted-sobolev", "--s", "1",
        "--t", "2", "--seed", "1", "--deterministic-output", "--out", str(rep),
    )
    assert code == 2
    with open(rep, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["pass"] == "False"
    assert not math.isfinite(float(row["theoretical"]))
    assert "constant_nonfinite" in row["hypotheses_violated"].split(";")


def test_verify_json_report_is_strict_json_with_nonfinite_constant(tmp_path):
    # at eta=12 C1 and the assembled constant are inf; JSON has no token
    # for them, so the report carries the CSV's strings
    space = tmp_path / "r.json"
    rep = tmp_path / "rep.json"
    run("gen", "--kind", "radial_profile", "--n", "256", "--eta", "12", "-o", str(space))
    code = run(
        "verify", "--space", str(space), "--ineq", "weighted-sobolev", "--s", "1",
        "--t", "2", "--format", "json", "--out", str(rep),
    )
    assert code == 2

    def reject(token):
        raise ValueError(f"bare {token} in a JSON report")

    (report,) = json.loads(rep.read_text(), parse_constant=reject)["reports"]
    assert report["C1"] == "inf"
    assert report["theoretical"] == "inf"


ONE_LEVEL = "kappa 2.0 puts every covering piece on the boundary level 1, so no piece is interior"
NO_KAPPA = "; the pieces span two levels at kappa none of 1.2, 1.5, 2, 3, 4"
SMALL_KAPPAS = "; the pieces span two levels at kappa 1.2, 1.5"


@pytest.mark.parametrize(
    "kind, n, ineq, message",
    [
        ("radial_profile", "2", "hardy", "the covering has no pieces"),
        ("radial_profile", "2", "weighted-sobolev", "the covering has no pieces"),
        ("radial_profile", "2", "annulus", "the annulus [4, 8) around 0 is empty"),
        ("cone_grid", "3", "annulus", "the annulus [4, 8) around 0 is empty"),
        ("grid_quadrant", "2", "annulus", "A is a single vertex, on which every oscillation is zero"),
        ("cone_grid", "2", "hardy", ONE_LEVEL + NO_KAPPA),
        ("cone_grid", "3", "weighted-sobolev", ONE_LEVEL + SMALL_KAPPAS),
    ],
)
def test_verify_degenerate_space_fails_with_pilab_error(tmp_path, capsys, kind, n, ineq, message):
    # radial_profile(2, 1) has no complete kappa-level, cone_grid(3, 2) no
    # vertex in [R, 2R), grid_quadrant(2) only vertex 8 there, and the
    # pieces of cone_grid(2 | 3, 2) all sit on the boundary level at the
    # default kappa 2: each must end in a typed pilab error, exit 1, and a
    # one-level refusal names the kappas at which the pieces span two levels
    space = tmp_path / "s.json"
    eta = "1" if kind == "radial_profile" else "2"
    run("gen", "--kind", kind, "--n", n, "--eta", eta, "-o", str(space))
    capsys.readouterr()
    assert run("verify", "--space", str(space), "--ineq", ineq) == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"


@pytest.mark.parametrize(
    "kind, n, kappas",
    [("cone_grid", "2", NO_KAPPA), ("cone_grid", "3", SMALL_KAPPAS),
     ("radial_profile", "3", NO_KAPPA), ("radial_profile", "4", SMALL_KAPPAS)],
    ids=["cone_grid(2)", "cone_grid(3)", "radial_profile(3)", "radial_profile(4)"],
)
def test_graph_on_one_level_names_the_kappas_that_work(tmp_path, capsys, kind, n, kappas):
    space = tmp_path / "s.json"
    run("gen", "--kind", kind, "--n", n, "--eta", "2", "-o", str(space))
    capsys.readouterr()
    assert run("graph", "--space", str(space)) == 1
    assert capsys.readouterr().err.strip() == f"error: {ONE_LEVEL}{kappas}"


def test_base_flag_and_its_alias_write_identical_reports(tmp_path):
    space = tmp_path / "g.json"
    run("gen", "--kind", "grid_quadrant", "--n", "12", "-o", str(space))
    outs = []
    for flag in ("--base", "--o"):
        rep = tmp_path / f"{flag.strip('-')}.csv"
        assert run(
            "verify", "--space", str(space), "--ineq", "hardy", flag, "7", "--count", "30",
            "--deterministic-output", "-o", str(rep),
        ) == 0
        outs.append(rep.read_bytes())
    assert outs[0] == outs[1]
    other = tmp_path / "other.csv"
    run("verify", "--space", str(space), "--ineq", "hardy", "--count", "30",
        "--deterministic-output", "-o", str(other))
    assert other.read_bytes() != outs[0]


@pytest.fixture(scope="module")
def grid8(tmp_path_factory):
    space = tmp_path_factory.mktemp("grid8") / "g.json"
    run("gen", "--kind", "grid_quadrant", "--n", "8", "-o", str(space))
    return space


@pytest.mark.parametrize("above", [False, True], ids=["base-1", "base-n"])
@pytest.mark.parametrize(
    "argv",
    [
        ["profile"],
        ["decompose"],
        ["graph"],
        ["verify", "--ineq", "hardy"],
        ["verify", "--ineq", "annulus"],
        ["verify", "--ineq", "local-sobolev"],
        ["render", "--kappa", "2", "-o", "out.svg"],
    ],
    ids=["profile", "decompose", "graph", "hardy", "annulus", "local-sobolev", "render"],
)
def test_base_outside_the_vertices_is_an_error(grid8, tmp_path, monkeypatch, capsys, argv, above):
    # -1 used to read as the last vertex, and n to end in scipy's error
    monkeypatch.chdir(tmp_path)
    n = load_space(grid8).n
    base = str(n if above else -1)
    assert run(*argv[:1], "--space", str(grid8), "--base", base, *argv[1:]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: --base {base} is outside the vertices 0..{n - 1}"]


def test_short_o_still_names_the_output_file(tmp_path, capsys):
    space = tmp_path / "g.json"
    run("gen", "--kind", "grid_quadrant", "--n", "8", "-o", str(space))
    dot = tmp_path / "g.dot"
    assert run("graph", "--space", str(space), "--base", "0", "-o", str(dot)) == 0
    assert dot.read_text().startswith("graph covering {")
    svg = tmp_path / "g.svg"
    assert run("render", "--space", str(space), "--base", "0", "--kappa", "2", "-o", str(svg)) == 0
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize(
    "gen",
    [
        pytest.param(["--kind", "grid_quadrant", "--n", "16"], id="grid_quadrant-16"),
        pytest.param(["--kind", "cone_grid", "--n", "20"], id="cone_grid-20"),
        # the sampled Poincare rows hold inf beyond their reach, so a slope
        # read there would raise on inf - inf
        pytest.param(
            ["--kind", "sector_union", "--resolution", "1", "--r-max", "8"], id="sector_union-1-8"
        ),
    ],
)
def test_verify_reports_unchanged_by_truncated_rows(tmp_path, monkeypatch, gen):
    space = tmp_path / "s.json"
    run("gen", *gen, "--eta", "2", "-o", str(space))

    def reports(tag):
        out = {}
        for ineq in _INEQS:
            rep = tmp_path / f"{tag}-{ineq}.csv"
            assert run(
                "verify", "--space", str(space), "--ineq", ineq, "--s", "1", "--t", "2",
                "--deterministic-output", "-o", str(rep),
            ) in (0, 2)
            out[ineq] = rep.read_bytes()
        return out

    truncated = reports("truncated")
    full = FiniteMetricMeasureSpace.dist_from
    monkeypatch.setattr(
        FiniteMetricMeasureSpace, "dist_from", lambda self, x, limit=math.inf: full(self, x)
    )
    assert reports("full") == truncated


def test_verify_hardy_warns_that_it_ignores_t(tmp_path, capsys):
    space = tmp_path / "g.json"
    run("gen", "--kind", "grid_quadrant", "--n", "8", "-o", str(space))
    capsys.readouterr()
    outcomes = []
    for extra in ([], ["--t", "2"], ["--t", "1.5"]):
        rep = tmp_path / "rep.csv"
        code = run(
            "verify", "--space", str(space), "--ineq", "hardy", "--s", "1.5", *extra,
            "--deterministic-output", "-o", str(rep),
        )
        outcomes.append((code, rep.read_bytes(), capsys.readouterr().err))
    warning = "warning: --ineq hardy takes t = s; --t is ignored\n"
    assert [err for _, _, err in outcomes] == ["", warning, ""]
    assert len({(code, text) for code, text, _ in outcomes}) == 1


def test_verify_hardy_json_provenance_records_the_t_it_ran_with(tmp_path):
    space = tmp_path / "g.json"
    run("gen", "--kind", "grid_quadrant", "--n", "8", "-o", str(space))
    rep = tmp_path / "rep.json"
    assert run(
        "verify", "--space", str(space), "--ineq", "hardy", "--s", "1.5", "--t", "2",
        "--format", "json", "-o", str(rep),
    ) == 0
    doc = json.loads(rep.read_text())
    assert doc["provenance"]["t"] == doc["reports"][0]["t"] == 1.5


@pytest.mark.parametrize("kappa", ["2", "auto"])
def test_verify_profiles_once_per_call(tmp_path, monkeypatch, kappa):
    # wrapped under the names the checks look up, as perfbench's tracer does
    space = tmp_path / "g.json"
    run("gen", "--kind", "grid_quadrant", "--n", "16", "-o", str(space))
    calls = []

    def counted(name):
        fit = getattr(verify, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fit(*args, **kwargs)

        return wrapper

    # one pass reads both fits; the standalone readers are not called
    for name in ("Profile", "doubling_profile", "measure_poincare"):
        monkeypatch.setattr(verify, name, counted(name))
    for ineq in _INEQS:
        calls.clear()
        assert run(
            "verify", "--space", str(space), "--ineq", ineq, "--kappa", kappa, "--count", "30"
        ) in (0, 2)
        assert calls == ["Profile"], ineq


@pytest.mark.parametrize(
    "gen, ineq, code, kappa, flags, warned",
    [
        (["grid_quadrant", "--n", "32"], "hardy", 0, 1.5, "", False),
        (["cone_grid", "--n", "50"], "hardy", 0, 1.2, "", False),
        (["radial_profile", "--n", "256", "--eta", "12"], "weighted-sobolev", 2, 1.2,
         "constant_nonfinite", False),
        # no kappa in AUTO_KAPPAS makes the sector's annuli relatively connected
        (["sector_union", "--resolution", "1"], "hardy", 0, 2.0, "", True),
    ],
    ids=["grid_quadrant-32", "cone_grid-50", "radial_profile-256-12", "sector_union-1"],
)
def test_verify_kappa_auto_picks_the_smallest_rca_kappa(tmp_path, capsys, gen, ineq, code, kappa,
                                                        flags, warned):
    space = tmp_path / "s.json"
    run("gen", "--kind", *gen, *([] if "--eta" in gen else ["--eta", "2"]), "-o", str(space))
    o = sector_union_origin(load_space(space)) if gen[0] == "sector_union" else 0
    rep = tmp_path / "rep.json"
    capsys.readouterr()
    assert run(
        "verify", "--space", str(space), "--ineq", ineq, "--base", str(o), "--s", "1", "--t", "2",
        "--kappa", "auto", "--format", "json", "-o", str(rep),
    ) == code
    (report,) = json.loads(rep.read_text())["reports"]
    assert (report["kappa"], report["hypotheses_violated"]) == (kappa, flags)
    assert ("warning: --kappa auto" in capsys.readouterr().err) == warned


def test_decompose_kappa_auto(tmp_path, capsys):
    space = tmp_path / "g.json"
    run("gen", "--kind", "grid_quadrant", "--n", "32", "-o", str(space))
    capsys.readouterr()
    assert run("decompose", "--space", str(space), "--kappa", "auto") in (0, 2)
    assert "kappa 1.5" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("count", ["4", "0", "-5", "x"])
def test_verify_rejects_count_below_five(tmp_path, capsys, count):
    # one function per generator is the smallest family; smaller counts
    # used to sweep five functions silently
    space = tmp_path / "g.json"
    run("gen", "--kind", "grid_quadrant", "--n", "8", "-o", str(space))
    assert run("verify", "--space", str(space), "--ineq", "hardy", "--count", count) == 1
    assert "--count" in capsys.readouterr().err
    assert run("verify", "--space", str(space), "--ineq", "hardy", "--count", "5") == 0


@pytest.mark.parametrize(
    "flags, env, option",
    [
        (["--seed", "-3"], None, "--seed"),
        (["--seed", "abc"], None, "--seed"),
        ([], "-4", "PILAB_SEED"),
        ([], "abc", "PILAB_SEED"),
    ],
    ids=["seed-negative", "seed-text", "env-negative", "env-text"],
)
def test_verify_rejects_a_bad_seed_before_loading(tmp_path, capsys, monkeypatch, flags, env, option):
    # the seed used to be read first by the family's generator, after the
    # load, the profile, the covering and the LP, in numpy's own words
    space = tmp_path / "g.json"
    run("gen", "--kind", "grid_quadrant", "--n", "8", "-o", str(space))
    capsys.readouterr()
    if env is None:
        monkeypatch.delenv("PILAB_SEED", raising=False)
    else:
        monkeypatch.setenv("PILAB_SEED", env)
    loads = []
    monkeypatch.setattr(gallery, "load_space", loads.append)
    assert run("verify", "--space", str(space), "--ineq", "hardy", *flags) == 1
    out, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if "error:" in line]
    assert out == "" and loads == []
    assert len(errors) == 1 and option in errors[0], err


_HEADER = (
    "inequality,s,t,kappa,Q1,Q2,C1,C2,empirical_best,theoretical,witness,pass,"
    "hypotheses_violated,seconds"
)


@pytest.mark.parametrize(
    "ineq, extra, row",
    [
        ("hardy", [],
         "hardy,1,1,2,6,8,1.82754093436e+35,2.47626132264,3.13900683264,1.56509858722e+39,"
         "radial_power[0.2500],True,,0"),
        ("weighted-sobolev", ["--s", "1", "--t", "2"],
         "weighted-sobolev,1,2,2,6,8,1.39108303696e+33,22.271101279,1.65938764864,"
         "5.3535084981e+37,radial_power[0.2500],True,,0"),
        ("annulus", [],
         "annulus-poincare,1,1,0,7410.21927634,539.359259255,1,641438389.908,0.680473372781,"
         '2.81550473068e+23,"indicator_smooth[9,4.0000,8.0000]",True,,0'),
        ("local-sobolev", [],
         "local-sobolev,1,1,0,0,0,1,73591682.1768,0.385416666667,73591682.1768,"
         '"indicator_smooth[136,4.0000,4.0000]",True,,0'),
        ("ahlfors", ["--s", "1", "--t", "1"],
         "ahlfors-sobolev,1,1,2,6,8,1.82754093436e+35,2.47626132264,3.13900683264,"
         "1.56509858722e+39,radial_power[0.2500],True,,0"),
    ],
)
def test_verify_report_bytes_are_pinned(tmp_path, ineq, extra, row):
    # pinned rows: a refactor must keep every report byte-identical, and a
    # change meant to move a report updates its row here
    code, text = _report(tmp_path, ["grid_quadrant", "16", "2"], ["--ineq", ineq, *extra])
    assert (code, text) == (0, f"{_HEADER}\n{row}\n")


@pytest.mark.parametrize(
    "gen, extra, code, row",
    [
        (["radial_profile", "64", "1"], ["--ineq", "hardy", "--s", "2"], 0,
         "hardy,2,2,2,5,10.0327677664,2.66116309475e+16,454.271845854,6.63364733186,"
         '1.21087048789e+21,"annulus_cutoff[2.0000,32.0000]",True,eta_not_above_s;s_not_below_Q,0'),
        (["grid_quadrant", "16", "2"], ["--ineq", "local-sobolev", "--s", "3", "--t", "3"], 0,
         "local-sobolev,3,3,0,0,0,1,92.345408,0.43088768758,92.345408,"
         '"tent[13,16.0000]",True,s_not_below_Q,0'),
        (["radial_profile", "256", "12"], ["--ineq", "weighted-sobolev", "--s", "1", "--t", "2"], 2,
         "weighted-sobolev,1,2,2,7,40821354.7077,inf,36142.5510773,2.70015267604,inf,"
         "radial_power[0.2500],False,constant_nonfinite,0"),
    ],
)
def test_verify_flagged_report_bytes_are_pinned(tmp_path, gen, extra, code, row):
    # flags are joined in the order the check raises them
    assert _report(tmp_path, gen, extra) == (code, f"{_HEADER}\n{row}\n")


def _report(tmp_path, gen, extra, resolution="0.25", base=0, kappa="2"):
    """Exit code and CSV report of a deterministic `pilab verify` run at
    `kappa` on the space `gen` = (kind, n, eta) at `resolution`, from the
    vertex `base` or, if it is a function, `base(space)`."""
    kind, n, eta = gen
    space = tmp_path / "s.json"
    run("gen", "--kind", kind, "--n", n, "--eta", eta, "--resolution", resolution, "-o", str(space))
    if callable(base):
        base = base(load_space(space))
    rep = tmp_path / "rep.csv"
    code = run("verify", "--space", str(space), *extra, "--base", str(base), "--kappa", kappa,
               "--deterministic-output", "-o", str(rep))
    return code, rep.read_text()


@pytest.mark.parametrize(
    "ineq, extra, row",
    [
        ("hardy", [],
         "hardy,1,1,1.2,96,23,7.26619618856e+36,35.2583768291,3.52632362289,1.04265587486e+46,"
         "radial_power[0.2500],True,,0"),
        ("weighted-sobolev", ["--s", "1", "--t", "2"],
         "weighted-sobolev,1,2,1.2,96,23,8.51164403736e+34,9909.53396721,3.78621056076,"
         '1.01225351642e+46,"indicator_smooth[257,16.0000,4.0000]",True,,0'),
    ],
)
def test_verify_report_bytes_are_pinned_on_many_pieces(tmp_path, ineq, extra, row):
    # sector_union(1.0) has 1 616 vertices and 117 covering pieces at
    # kappa 1.2 around its origin, where every row above sits on at most 8
    code, text = _report(tmp_path, ["sector_union", "0", "2"], ["--ineq", ineq, *extra],
                         resolution="1.0", base=sector_union_origin, kappa="1.2")
    assert (code, text) == (0, f"{_HEADER}\n{row}\n")


@pytest.mark.parametrize(
    "flag, value",
    [("--s", "0"), ("--s", "-1"), ("--s", "0.5"), ("--s", "inf"), ("--s", "nan"), ("--t", "-2")],
)
def test_verify_rejects_exponent_below_one_or_nonfinite(tmp_path, capsys, flag, value):
    # s = 0 and t = 0 divided by zero, and the other values ran to a verdict
    space = tmp_path / "g.json"
    run("gen", "--kind", "grid_quadrant", "--n", "8", "-o", str(space))
    capsys.readouterr()
    for ineq in _INEQS:
        assert run("verify", "--space", str(space), "--ineq", ineq, "--s", "1", flag, value) == 1
        assert f"argument {flag}: exponent must be finite and >= 1" in capsys.readouterr().err


def test_verify_hardy_at_large_s_ends_cleanly(tmp_path, capsys):
    # 2^s kappa^(2s) leaves the float range at s = 600, kappa = 2: the run
    # must end in a pilab error or a flagged report, not an OverflowError
    space = tmp_path / "g.json"
    run("gen", "--kind", "grid_quadrant", "--n", "8", "-o", str(space))
    capsys.readouterr()
    rep = tmp_path / "rep.csv"
    code = run("verify", "--space", str(space), "--ineq", "hardy", "--s", "600", "-o", str(rep))
    if code == 1:
        assert capsys.readouterr().err.startswith("error: ")
    else:
        assert code == 2
        with open(rep, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert "constant_nonfinite" in row["hypotheses_violated"].split(";")

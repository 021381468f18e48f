import json
import random
from pathlib import Path

import pytest

from shiftlab import cli, fixtures, io
from shiftlab.errors import InvariantViolation, ParseError
from shiftlab.properties import gen_labeled_graph

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
SNAPSHOT = Path(__file__).resolve().parent / "data" / "gen_snapshot.json"


def test_fixture_corpus_round_trips_byte_identically():
    paths = sorted(FIXTURE_DIR.glob("*.json"))
    assert len(paths) == 23
    for path in paths:
        raw = path.read_bytes()
        assert io.dumps(io.load_json(path)).encode() == raw


def test_graph_json_rejects_unknown_fields():
    obj = io.graph_to_json(fixtures.golden_graph())
    obj["extra"] = 1
    with pytest.raises(ParseError):
        io.graph_from_json(obj)


def test_graph_json_rejects_unknown_vertex():
    obj = io.graph_to_json(fixtures.golden_graph())
    obj["edges"][0]["src"] = "nowhere"
    with pytest.raises(InvariantViolation):
        io.graph_from_json(obj)


def test_shift_json_requires_sofic_kind():
    obj = io.shift_to_json(fixtures.golden_shift())
    obj["kind"] = "market"
    with pytest.raises(ParseError):
        io.shift_from_json(obj)


def test_code_json_multicharacter_symbols_use_separator():
    code = fixtures.golden_cover()  # domain symbols e1, e2, e3
    obj = io.code_to_json(code)
    assert obj["separator"] == ","
    back = io.code_from_json(obj, code.domain)
    assert back.table == code.table


def test_code_json_needs_some_domain():
    obj = io.code_to_json(fixtures.even_cover())
    with pytest.raises(ParseError):
        io.code_from_json(obj)
    embedded = io.code_to_json(fixtures.even_cover(), embed_domain=True)
    back = io.code_from_json(embedded)
    assert back.table == fixtures.even_cover().table


def test_load_json_reports_line():
    with pytest.raises(ParseError) as err:
        io.load_json(FIXTURE_DIR / ".." / "pyproject.toml")
    assert "line" in str(err.value)


def test_generator_snapshot_is_stable():
    frozen = json.loads(SNAPSHOT.read_text())
    rng = random.Random(frozen["seed"])
    for expected in frozen["draws"]:
        g = gen_labeled_graph(rng, frozen["max_vertices"],
                              frozen["max_alphabet"])
        assert io.graph_to_json(g) == expected


def _run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_cli_entropy_prints_twelve_decimals(capsys):
    rc, out = _run(capsys, "entropy", "-i",
                   str(FIXTURE_DIR / "golden_shift.json"))
    assert rc == 0
    assert out.strip() == "0.481211825059"


def test_cli_magic_exit_codes(capsys):
    rc, out = _run(capsys, "magic", "-i", str(FIXTURE_DIR / "golden.json"))
    assert rc == 0 and json.loads(out)["magic_word"] == ["0"]
    rc, out = _run(capsys, "magic", "-i",
                   str(FIXTURE_DIR / "phase_doubling.json"))
    assert rc == 1 and json.loads(out)["magic_word"] is None


def test_cli_fischer_writes_cover(tmp_path, capsys):
    out_path = tmp_path / "cover.json"
    rc, _ = _run(capsys, "fischer", "-i",
                 str(FIXTURE_DIR / "even_shift.json"), "-o", str(out_path))
    assert rc == 0
    cover = io.load_graph(out_path)
    assert cover.n == 2


def test_cli_degree(capsys):
    rc, out = _run(capsys, "degree",
                   "-x", str(FIXTURE_DIR / "even_cover_shift.json"),
                   "-c", str(FIXTURE_DIR / "even_cover_code.json"))
    assert rc == 0 and json.loads(out)["degree"] == 1
    rc, out = _run(capsys, "degree",
                   "-x", str(FIXTURE_DIR / "right_closing_cover_shift.json"),
                   "-c", str(FIXTURE_DIR / "right_closing_cover_code.json"))
    assert rc == 1 and json.loads(out)["degree"] is None


def test_cli_check_semi_open_exit_codes_and_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc, out = _run(capsys, "check", "semi-open",
                   "-x", str(FIXTURE_DIR / "fig1_shift.json"),
                   "-c", str(FIXTURE_DIR / "fig1_code.json"),
                   "--report", str(report_path))
    assert rc == 1
    report = json.loads(report_path.read_text())
    assert report["verdict"] == "Refuted"
    assert report["payload"]["zone"] == ["2"]
    assert "timing_ms" in report
    assert json.loads(out)["verdict"] == "Refuted"

    rc, out = _run(capsys, "check", "semi-open",
                   "-x", str(FIXTURE_DIR / "even_cover_shift.json"),
                   "-c", str(FIXTURE_DIR / "even_cover_code.json"))
    assert rc == 0
    report = json.loads(out)
    tags = {c["tag"] for c in report["certificates"]}
    assert "CorollaryNew" in tags and "ThmFischer" in tags
    for cert in report["certificates"]:
        assert all(line.endswith(": Proved") for line in cert["hypotheses"])


def test_cli_check_semi_open_ignores_kmax(capsys):
    # --kmax bounds check open only; a semi-open report does not depend on it
    for name in ("fig1", "even_cover"):
        reports = []
        for kmax in ("1", "30"):
            _, out = _run(capsys, "check", "semi-open",
                          "-x", str(FIXTURE_DIR / f"{name}_shift.json"),
                          "-c", str(FIXTURE_DIR / f"{name}_code.json"),
                          "--kmax", kmax)
            report = json.loads(out)
            del report["timing_ms"]
            reports.append(json.dumps(report, sort_keys=True))
        assert reports[0] == reports[1], name


def test_cli_check_open(capsys):
    rc, _ = _run(capsys, "check", "open",
                 "-x", str(FIXTURE_DIR / "even_cover_shift.json"),
                 "-c", str(FIXTURE_DIR / "even_cover_code.json"),
                 "--kmax", "6")
    assert rc == 1
    rc, _ = _run(capsys, "check", "open",
                 "-x", str(FIXTURE_DIR / "golden_cover_shift.json"),
                 "-c", str(FIXTURE_DIR / "golden_cover_code.json"),
                 "--kmax", "6")
    assert rc == 0


@pytest.mark.parametrize("mode,bound", [("semi-open", "--lmax"),
                                        ("open", "--lmax"),
                                        ("open", "--kmax")])
def test_cli_check_rejects_negative_bounds(capsys, mode, bound):
    rc = cli.main(["check", mode,
                   "-x", str(FIXTURE_DIR / "golden_cover_shift.json"),
                   "-c", str(FIXTURE_DIR / "golden_cover_code.json"),
                   bound, "-2"])
    assert rc == 3
    assert "must be >= 0" in capsys.readouterr().err


def test_cli_check_right_continuing(capsys):
    rc, out = _run(capsys, "check", "right-continuing",
                   "-x", str(FIXTURE_DIR / "golden_cover_shift.json"),
                   "-c", str(FIXTURE_DIR / "golden_cover_code.json"),
                   "--retract", "0")
    assert rc == 0
    assert "ThmBallier" in {c["tag"] for c in json.loads(out)["certificates"]}
    rc, _ = _run(capsys, "check", "right-continuing",
                 "-x", str(FIXTURE_DIR / "even_cover_shift.json"),
                 "-c", str(FIXTURE_DIR / "even_cover_code.json"),
                 "--retract", "3")
    assert rc == 1


def test_cli_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("SHIFTLAB_STATE_BUDGET", "2")
    rc, out = _run(capsys, "check", "semi-open",
                   "-x", str(FIXTURE_DIR / "even_cover_shift.json"),
                   "-c", str(FIXTURE_DIR / "even_cover_code.json"))
    assert rc == 2
    assert json.loads(out)["payload"]["reason"] == "budget"


def test_cli_degree_budget_exhaustion_is_inconclusive(capsys, monkeypatch):
    monkeypatch.setenv("SHIFTLAB_STATE_BUDGET", "1")
    rc, out = _run(capsys, "degree",
                   "-x", str(FIXTURE_DIR / "even_cover_shift.json"),
                   "-c", str(FIXTURE_DIR / "even_cover_code.json"))
    assert rc == 2
    assert json.loads(out)["reason"] == "budget"


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_cli_malformed_budget_env_var_exits_3(capsys, monkeypatch, value):
    monkeypatch.setenv("SHIFTLAB_STATE_BUDGET", value)
    rc = cli.main(["check", "semi-open",
                   "-x", str(FIXTURE_DIR / "even_cover_shift.json"),
                   "-c", str(FIXTURE_DIR / "even_cover_code.json")])
    assert rc == 3
    assert "SHIFTLAB_STATE_BUDGET" in capsys.readouterr().err


def test_cli_retract_budget_exhaustion_writes_report(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setenv("SHIFTLAB_STATE_BUDGET", "2")
    report = tmp_path / "report.json"
    rc, out = _run(capsys, "check", "right-continuing",
                   "-x", str(FIXTURE_DIR / "golden_cover_shift.json"),
                   "-c", str(FIXTURE_DIR / "golden_cover_code.json"),
                   "--retract", "1", "--side", "bi",
                   "--report", str(report))
    assert rc == 2
    written = json.loads(report.read_text())
    assert written == json.loads(out)
    assert written["verdict"] == "Inconclusive"
    assert written["payload"]["right"]["payload"]["reason"] == "budget"


def test_cli_fiber_and_lift(tmp_path, capsys):
    c1 = tmp_path / "c1.json"
    io.save_json(c1, io.code_to_json(fixtures.golden_cover(),
                                     embed_domain=True))
    sigma = tmp_path / "sigma.json"
    rc, out = _run(capsys, "fiber", "-c1", str(c1), "-c2", str(c1),
                   "-o", str(sigma))
    assert rc == 0
    assert json.loads(out)["sigma_vertices"] == 2
    assert io.load_shift(sigma).presentation.n == 2

    ident = tmp_path / "ident.json"
    ident.write_text(json.dumps(
        {"memory": 0, "anticipation": 0, "table": {"0": "0", "1": "1"}}))
    rc, out = _run(capsys, "lift", "-f", str(ident),
                   "-x1", str(FIXTURE_DIR / "golden_shift.json"),
                   "-x2", str(FIXTURE_DIR / "golden_shift.json"))
    assert rc == 0
    assert "domain" in json.loads(out)


def test_cli_proptest_reports_are_byte_stable(tmp_path, capsys):
    args = ("proptest", "-p", "magic-witness", "--trials", "10",
            "--seed", "3")
    rc1, out1 = _run(capsys, *args)
    rc2, out2 = _run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert json.loads(out1)["counts"]["satisfied"] == 10


def test_cli_replay_unreproduced_artifact(tmp_path, capsys):
    instance = {
        "graph": io.graph_to_json(fixtures.golden_graph()),
        "table": {"0": "0", "1": "1"},
    }
    artifact = tmp_path / "failure.json"
    artifact.write_text(json.dumps({
        "property": "factor-semi-open", "trial": 0,
        "instance": instance, "detail": {}}))
    rc, out = _run(capsys, "replay", "-i", str(artifact))
    assert rc == 1
    assert json.loads(out)["reproduced"] is False


def test_cli_replay_malformed_record_exits_3(tmp_path, capsys):
    artifact = tmp_path / "failure.json"
    for record in ({"property": "factor-semi-open"}, [1, 2],
                   {"instance": {}}):
        artifact.write_text(json.dumps(record))
        rc = cli.main(["replay", "-i", str(artifact)])
        out, err = capsys.readouterr()
        assert (rc, out) == (3, ""), record
        assert "property and instance" in err


def test_cli_proptest_rejects_nonsense_sizes_with_exit_3(capsys):
    for option, value in (("--trials", "-3"), ("--max-vertices", "0"),
                          ("--max-alphabet", "0")):
        rc = cli.main(["proptest", "-p", "factor-semi-open", option, value])
        out, err = capsys.readouterr()
        assert (rc, out) == (3, ""), option
        assert option[2:].replace("-", "_") in err and value in err
    # zero trials is an empty, well-formed run
    rc, out = _run(capsys, "proptest", "-p", "factor-semi-open",
                   "--trials", "0")
    assert rc == 0 and json.loads(out)["trials"] == 0


def test_cli_export_dot(tmp_path, capsys):
    rc, out = _run(capsys, "export-dot",
                   "-i", str(FIXTURE_DIR / "golden.json"))
    assert rc == 0
    assert out.startswith("digraph shift {")
    assert '"v1" -> "v2" [label="1"]' in out
    # quotes and backslashes in names and labels are escaped
    path = tmp_path / "quoted.json"
    path.write_text(json.dumps({
        "alphabet": ['a"'],
        "vertices": ['v"1', "w\\"],
        "edges": [{"id": "e", "src": 'v"1', "dst": "w\\", "label": 'a"'}],
    }))
    rc, out = _run(capsys, "export-dot", "-i", str(path))
    assert rc == 0
    assert out.splitlines()[2:] == [
        '  "v\\"1";', '  "w\\\\";',
        '  "v\\"1" -> "w\\\\" [label="a\\""];', "}"]


def test_cli_bad_inputs_exit_3(capsys):
    assert cli.main(["entropy", "-i", "/no/such/file.json"]) == 3
    assert cli.main(["proptest", "-p", "no-such-property"]) == 3
    capsys.readouterr()


def test_cli_usage_error_exits_3():
    with pytest.raises(SystemExit) as err:
        cli.main(["check", "sideways", "-x", "a", "-c", "b"])
    assert err.value.code == 3

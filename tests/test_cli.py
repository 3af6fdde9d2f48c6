import json

import pytest

from monotest.cli import main


def test_gen_and_test_roundtrip(tmp_path, capsys):
    out_dir = tmp_path / "instances"
    rc = main(["gen", "--family", "signed-majority", "--n", "15", "--k", "3",
               "--count", "2", "--seed", "5", "--out-dir", str(out_dir)])
    assert rc == 0
    files = sorted(out_dir.glob("*.json"))
    assert len(files) == 4  # 2 instances + 2 meta sidecars
    instance = next(p for p in files if not p.name.endswith(".meta.json"))
    meta = json.loads((out_dir / (instance.stem + ".meta.json")).read_text())
    assert meta["family"] == "signed-majority"
    assert meta["distance"] > 0

    out_json = tmp_path / "run.json"
    rc = main(["test", "--instance", str(instance), "--epsilon", "0.05",
               "--seed", "7", "--out", str(out_json)])
    assert rc == 0
    result = json.loads(out_json.read_text())
    assert result["verdict"] in ("monotone", "non-monotone")
    assert list(result["queries"]) == ["total"]
    assert result["queries"]["total"] > 0
    assert result["schedule"]["n"] == 15
    if result["verdict"] == "non-monotone":
        assert result["certificate"]["coordinate"] >= 0


def test_test_command_budget_error(tmp_path):
    out_dir = tmp_path / "inst"
    main(["gen", "--family", "monotone-random", "--n", "24", "--count", "1",
          "--seed", "1", "--out-dir", str(out_dir)])
    instance = next(p for p in out_dir.glob("*.json")
                    if not p.name.endswith(".meta.json"))
    rc = main(["test", "--instance", str(instance), "--epsilon", "0.1",
               "--max-queries", "50"])
    assert rc == 1


def test_bench_command_writes_outputs(tmp_path, capsys):
    csv_path = tmp_path / "records.csv"
    json_path = tmp_path / "summary.json"
    rc = main(["bench", "--family", "signed-majority", "--n", "21", "--k",
               "5", "--count", "4", "--epsilon", "0.05", "--seed", "2",
               "--out-csv", str(csv_path), "--out-json", str(json_path)])
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("family,n,epsilon,seed")
    payload = json.loads(json_path.read_text())
    assert payload["summary"]["trials"] == 4
    printed = json.loads(capsys.readouterr().out)
    assert printed["trials"] == 4


def test_validate_command(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["validate", "--count", "25", "--seed", "3", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    names = {c["name"] for c in report["checks"]}
    assert names == {"distance-oracles-agree",
                     "restriction-preserves-distance"}
    for check in report["checks"]:
        assert check.get("fail", 0) == 0


def test_usage_error_exits_1(tmp_path):
    # 2 is reserved for hard-invariant violations
    out_dir = tmp_path / "inst"
    main(["gen", "--family", "monotone-random", "--n", "16", "--count", "1",
          "--seed", "1", "--out-dir", str(out_dir)])
    instance = next(p for p in out_dir.glob("*.json")
                    if not p.name.endswith(".meta.json"))
    with pytest.raises(SystemExit) as exc:
        main(["test", "--instance", str(instance), "--epsilon", "0.1",
              "--profile", "theoretical"])
    assert exc.value.code == 1


def test_bench_rejects_threads_flag():
    # bench has no --threads option, and an unknown option is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--family", "signed-majority", "--n", "21", "--k",
              "5", "--count", "1", "--epsilon", "0.05", "--threads", "2"])
    assert exc.value.code == 1


@pytest.mark.parametrize("command", [["gen"], ["bench", "--epsilon", "0.05"]],
                         ids=["gen", "bench"])
def test_gen_and_bench_reject_mc_radius_flag(command):
    # no instance is certified by sampling, so there is no radius to set:
    # --mc-radius is an unknown option, a usage error
    with pytest.raises(SystemExit) as exc:
        main(command + ["--family", "signed-majority", "--n", "21", "--k",
                        "5", "--count", "1", "--mc-radius", "0.01"])
    assert exc.value.code == 1


@pytest.mark.parametrize("command", [["gen"], ["bench", "--epsilon", "0.05"]],
                         ids=["gen", "bench"])
def test_gen_and_bench_report_family_errors_in_one_line(command, tmp_path,
                                                       capsys):
    # a family parameter the generators refuse is a one-line error, exit 1,
    # at n <= 20 (exact certification) and above (the DP)
    for n in ("16", "64"):
        rc = main(command + ["--family", "heavy-coordinate", "--n", n,
                             "--heavy", "8.5", "--count", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines() == [
            "error: heavy-coordinate needs an integer heavy weight, "
            "got 8.5"]

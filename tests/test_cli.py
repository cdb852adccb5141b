import csv
import json
from pathlib import Path

import pytest

from memlen import GeometricJumpChain, generate
from memlen.cli import SCHEMES, main

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def parity_spec(tmp_path):
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps({"type": "hidden", "preset": "parity"}))
    return spec


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestSimulate:
    def test_writes_sample_and_manifest(self, tmp_path, parity_spec):
        out = tmp_path / "run"
        rc = main(
            ["simulate", "--model", str(parity_spec), "--n", "100", "--seed", "7",
             "--out", str(out)]
        )
        assert rc == 0
        sample = (out / "sample_000.txt").read_text()
        assert len(sample.splitlines()) == 101
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rng"] == "pcg64"
        assert manifest["model"]["type"] == "hidden"

    def test_byte_identical_reruns(self, tmp_path, parity_spec):
        outs = []
        for d in ("a", "b"):
            out = tmp_path / d
            main(["simulate", "--model", str(parity_spec), "--n", "200", "--seed", "3",
                  "--out", str(out)])
            outs.append((out / "sample_000.txt").read_bytes())
        assert outs[0] == outs[1]

    def test_binary_format_size(self, tmp_path, parity_spec):
        out = tmp_path / "run"
        main(["simulate", "--model", str(parity_spec), "--n", "99", "--seed", "1",
              "--format", "bin", "--out", str(out)])
        assert (out / "sample_000.bin").stat().st_size == 4 * 100


class TestEstimate:
    def test_backward_run(self, tmp_path, parity_spec):
        out = tmp_path / "run"
        rc = main(
            ["estimate", "--model", str(parity_spec), "--scheme", "backward",
             "--checkpoints", "500,2000", "--seed", "5", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out / "estimate_000.csv")
        assert [r["n"] for r in rows] == ["500", "2000"]
        assert set(rows[0]) == {"n", "in_set", "estimate", "oracle", "match", "theta", "kappa", "ms"}

    def test_param_violation_exits_2(self, tmp_path, parity_spec, capsys):
        with pytest.raises(SystemExit) as e:
            main(["estimate", "--model", str(parity_spec), "--scheme", "backward",
                  "--gamma", "0.5", "--beta", "0.3", "--n", "100",
                  "--out", str(tmp_path / "x")])
        assert e.value.code == 2

    @pytest.mark.parametrize(
        "flag", [["--checkpoints", "1e3"], ["--checkpoints=-5,10"]], ids=["float", "negative"]
    )
    def test_bad_checkpoints_exit_2(self, tmp_path, parity_spec, flag):
        # a float is not a time, and a negative one would slice from the end
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as e:
            main(["estimate", "--model", str(parity_spec), "--scheme", "backward", *flag,
                  "--n", "100", "--out", str(out)])
        assert e.value.code == 2
        assert not (out / "estimate_000.csv").exists()

    def test_checkpoint_past_input_exits_2_before_estimating(self, tmp_path, monkeypatch, capsys):
        sample = tmp_path / "sample.txt"
        sample.write_text("".join(f"{i % 2}\n" for i in range(1000)))
        monkeypatch.setattr(
            "memlen.cli.backward_memory_estimate",
            lambda *_: pytest.fail("a row was estimated before the checkpoints were checked"),
        )
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as e:
            main(["estimate", "--input", str(sample), "--scheme", "backward",
                  "--checkpoints", "500,5000", "--out", str(out)])
        assert e.value.code == 2
        assert "checkpoint 5000" in capsys.readouterr().err
        assert not list(out.glob("estimate_*.csv"))

    @pytest.mark.parametrize("replicas", ["0", "-2"])
    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_replicas_below_one_exit_2(self, tmp_path, parity_spec, capsys, command, replicas):
        # no replica means no sample and no estimate: refused, not an empty run
        out = tmp_path / "x"
        scheme = ["--scheme", "backward"] if command == "estimate" else []
        with pytest.raises(SystemExit) as e:
            main([command, "--model", str(parity_spec), *scheme, "--n", "100",
                  "--replicas", replicas, "--out", str(out)])
        assert e.value.code == 2
        assert capsys.readouterr().err.startswith("error: --replicas")
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "text", [None, '{"type": ', "[1, 2]", '{"type": "markov"}'],
        ids=["missing", "not-json", "not-an-object", "missing-field"],
    )
    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_bad_model_spec_exits_2(self, tmp_path, capsys, command, text):
        spec = tmp_path / "model.json"
        if text is not None:
            spec.write_text(text)
        scheme = ["--scheme", "backward"] if command == "estimate" else []
        with pytest.raises(SystemExit) as e:
            main([command, "--model", str(spec), *scheme, "--n", "100",
                  "--out", str(tmp_path / "x")])
        assert e.value.code == 2
        want = "error: cannot read" if text is None else "error: malformed"
        assert capsys.readouterr().err.startswith(f"{want} model spec")

    @pytest.mark.parametrize("text", [None, "0\n1\nx\n"], ids=["missing", "not-integers"])
    def test_bad_input_exits_2(self, tmp_path, capsys, text):
        sample = tmp_path / "sample.txt"
        if text is not None:
            sample.write_text(text)
        with pytest.raises(SystemExit) as e:
            main(["estimate", "--input", str(sample), "--scheme", "backward",
                  "--n", "1", "--out", str(tmp_path / "x")])
        assert e.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_forward_p_run(self, tmp_path, parity_spec):
        out = tmp_path / "run"
        rc = main(
            ["estimate", "--model", str(parity_spec), "--scheme", "forward-p",
             "--checkpoints", "2000", "--seed", "5", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out / "estimate_000.csv")
        assert rows[0]["in_set"] in {"0", "1"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["contract"] == "checked"

    def test_condprob_run_has_symbol_column(self, tmp_path, parity_spec):
        out = tmp_path / "run"
        rc = main(
            ["estimate", "--model", str(parity_spec), "--scheme", "condprob-markov",
             "--checkpoints", "2000", "--seed", "5", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out / "estimate_000.csv")
        assert "symbol" in rows[0]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["csv_schema"] == "condprob-v1"

    def test_input_run_is_contract_unchecked(self, tmp_path, parity_spec):
        sim = tmp_path / "sim"
        main(["simulate", "--model", str(parity_spec), "--n", "1000", "--seed", "2",
              "--out", str(sim)])
        out = tmp_path / "run"
        rc = main(
            ["estimate", "--input", str(sim / "sample_000.txt"), "--scheme", "backward",
             "--checkpoints", "1000", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out / "estimate_000.csv")
        assert rows[0]["oracle"] == "" and rows[0]["match"] == ""
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["contract"] == "unchecked"

    def test_deterministic_modulo_timing(self, tmp_path, parity_spec):
        def run(d):
            out = tmp_path / d
            main(["estimate", "--model", str(parity_spec), "--scheme", "backward",
                  "--checkpoints", "500,1500", "--seed", "4", "--replicas", "2",
                  "--out", str(out)])
            rows = []
            for f in sorted(out.glob("estimate_*.csv")):
                for r in read_csv(f):
                    r.pop("ms")
                    rows.append(r)
            return rows

        assert run("a") == run("b")

    def test_replica_r_estimates_simulated_sample_r(self, tmp_path, parity_spec):
        # replica r of a --model run is stream r of the seed, as simulate writes it
        cols = ["n", "in_set", "estimate", "theta", "kappa"]
        sim = tmp_path / "sim"
        assert main(["simulate", "--model", str(parity_spec), "--n", "1500", "--seed", "4",
                     "--replicas", "3", "--format", "bin", "--out", str(sim)]) == 0
        run = tmp_path / "run"
        assert main(["estimate", "--model", str(parity_spec), "--scheme", "forward-p",
                     "--checkpoints", "500,1500", "--seed", "4", "--replicas", "3",
                     "--out", str(run)]) == 0
        for r in range(3):
            one = tmp_path / f"input_{r}"
            assert main(["estimate", "--input", str(sim / f"sample_{r:03d}.bin"),
                         "--format", "bin", "--scheme", "forward-p",
                         "--checkpoints", "500,1500", "--out", str(one)]) == 0
            got = [[row[c] for c in cols] for row in read_csv(run / f"estimate_{r:03d}.csv")]
            want = [[row[c] for c in cols] for row in read_csv(one / "estimate_000.csv")]
            assert got == want


@pytest.fixture(scope="module")
def jump_bin(tmp_path_factory):
    # the jump chain has no exact memory oracle, so it is estimated from a file
    tmp = tmp_path_factory.mktemp("jump")
    spec = tmp / "model.json"
    spec.write_text(json.dumps({"type": "geometric_jump"}))
    assert main(["simulate", "--model", str(spec), "--n", "20000", "--seed", "21",
                 "--format", "bin", "--out", str(tmp)]) == 0
    return tmp / "sample_000.bin"


@pytest.mark.parametrize(
    "source, scheme",
    [("parity", s) for s in SCHEMES] + [("jump", "condprob-fm"), ("jump", "condprob-markov")],
)
def test_estimate_matches_golden(tmp_path, parity_spec, jump_bin, source, scheme):
    """CLI rows, apart from the ms column, equal the recorded outputs."""
    if source == "parity":
        src = ["--model", str(parity_spec), "--seed", "21"]
    else:
        src = ["--input", str(jump_bin), "--format", "bin"]
    out = tmp_path / "run"
    assert main(["estimate", *src, "--scheme", scheme,
                 "--checkpoints", "5000,12000,20000", "--out", str(out)]) == 0
    with open(out / "estimate_000.csv", newline="") as f:
        rows = list(csv.reader(f))
    ms = rows[0].index("ms")
    got = [r[:ms] + r[ms + 1 :] for r in rows]
    with open(GOLDEN / f"{source}_{scheme}.csv", newline="") as f:
        assert got == list(csv.reader(f))


class TestModelWithoutMemoryOracle:
    """The jump chain has a conditional-law oracle but no memory oracle."""

    @pytest.fixture()
    def jump_spec(self, tmp_path):
        spec = tmp_path / "jump.json"
        spec.write_text(json.dumps({"type": "geometric_jump"}))
        return spec

    def test_condprob_oracle_is_the_row_of_the_last_state(self, tmp_path, jump_spec):
        out = tmp_path / "run"
        assert main(["estimate", "--model", str(jump_spec), "--scheme", "condprob-markov",
                     "--checkpoints", "3000,8000", "--seed", "3", "--out", str(out)]) == 0
        data = generate(GeometricJumpChain(), 8000, 3).symbols
        rows = [r for r in read_csv(out / "estimate_000.csv") if r["symbol"] != ""]
        assert {r["n"] for r in rows} == {"3000", "8000"}
        for r in rows:
            law = GeometricJumpChain().row(int(data[int(r["n"])]))
            assert float(r["oracle"]) == pytest.approx(law[int(r["symbol"])], abs=1e-6)
            assert r["match"] in {"0", "1"}

    @pytest.mark.parametrize("scheme", ["backward", "forward-p", "forward-r"])
    def test_memory_schemes_leave_the_oracle_blank(self, tmp_path, jump_spec, scheme):
        out = tmp_path / "run"
        assert main(["estimate", "--model", str(jump_spec), "--scheme", scheme,
                     "--checkpoints", "3000,8000", "--seed", "3", "--out", str(out)]) == 0
        rows = read_csv(out / "estimate_000.csv")
        assert [r["n"] for r in rows] == ["3000", "8000"]
        assert all(r["oracle"] == "" and r["match"] == "" for r in rows)


class TestReport:
    def _make_run(self, tmp_path, parity_spec, name, scheme="backward"):
        out = tmp_path / name
        main(["estimate", "--model", str(parity_spec), "--scheme", scheme,
              "--checkpoints", "500,1500", "--seed", "1", "--replicas", "2",
              "--out", str(out)])
        return out

    def test_aggregate_row(self, tmp_path, parity_spec):
        run = self._make_run(tmp_path, parity_spec, "r1")
        out_csv = tmp_path / "summary.csv"
        rc = main(["report", str(run), "--out", str(out_csv)])
        assert rc == 0
        rows = read_csv(out_csv)
        assert rows[-1]["run"] == "aggregate"
        assert rows[-1]["replica"] == "2 replicas"

    def test_mixed_schemes_refused(self, tmp_path, parity_spec):
        r1 = self._make_run(tmp_path, parity_spec, "r1", "backward")
        r2 = self._make_run(tmp_path, parity_spec, "r2", "forward-p")
        with pytest.raises(SystemExit) as e:
            main(["report", str(r1), str(r2)])
        assert e.value.code == 2

    def test_missing_manifest_refused(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit) as e:
            main(["report", str(empty)])
        assert e.value.code == 2

    @pytest.mark.parametrize(
        "manifest, csv_text",
        [
            ('{"scheme": ', "n,in_set,match\n100,1,1\n"),
            ("[1]", "n,in_set,match\n100,1,1\n"),
            ('{"scheme": "backward"}', "n,estimate\n100,3\n"),
        ],
        ids=["not-json", "not-an-object", "no-in-set-column"],
    )
    def test_malformed_run_exits_2(self, tmp_path, capsys, manifest, csv_text):
        run = tmp_path / "run"
        run.mkdir()
        (run / "manifest.json").write_text(manifest)
        (run / "estimate_000.csv").write_text(csv_text)
        with pytest.raises(SystemExit) as e:
            main(["report", str(run)])
        assert e.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_empty_stopping_set_gives_density_zero(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "manifest.json").write_text(json.dumps({"scheme": "forward-p"}))
        (run / "estimate_000.csv").write_text(
            "n,in_set,estimate,oracle,match,theta,kappa,ms\n"
            "100,0,,,,5,,1\n200,0,,,,7,,1\n"
        )
        out_csv = tmp_path / "summary.csv"
        rc = main(["report", str(run), "--out", str(out_csv)])
        assert rc == 0
        rows = read_csv(out_csv)
        assert rows[0]["density"] == "0.000000"
        assert rows[0]["match_rate"] == ""

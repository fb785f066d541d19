import pytest

from derivqa.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, main

from conftest import FIXTURES

BENCHMARK_CONFIG = str(FIXTURES / "benchmark" / "config.json")
COUPER_FAMILY_CONFIG = str(FIXTURES / "couper_family" / "config.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuildResource:
    def test_benchmark_stats(self, capsys):
        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG, "build-resource")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "entries processed: 18"
        assert lines[2] == "derivatives accepted: 23"
        assert len(lines) == 5

    def test_single_entry_setup(self, capsys, tmp_path):
        out_path = tmp_path / "resource.tsv"
        code, out, err = run(capsys, "--config", COUPER_FAMILY_CONFIG,
                             "build-resource", "--out", str(out_path))
        assert code == EXIT_OK
        assert out.splitlines() == [
            "entries processed: 1",
            "candidates generated: 21",
            "derivatives accepted: 5",
            "instructions total: 5",
            "instructions unmatched: 0",
        ]
        rows = out_path.read_text(encoding="utf-8").splitlines()
        surfaces = {row.split("\t")[1] for row in rows}
        assert surfaces == {"coupure", "coupage", "coupeur", "coupant", "coupé"}


class TestPreprocessAndAsk:
    def test_bank_round_trip(self, capsys, tmp_path):
        bank_path = tmp_path / "bank.jsonl"
        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG,
                             "preprocess", "--out", str(bank_path))
        assert code == EXIT_OK
        assert out.strip() == "bank written: 55 graphs, 0 sentences skipped"

        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG, "ask",
                             "--question", "De quel chef Domitien est-il le successeur ?",
                             "--bank", str(bank_path))
        assert code == EXIT_OK
        assert out.splitlines()[0] == "1.\ts06\t1\tDomitien succéda à l'empereur Titus ."

    def test_ask_without_bank_builds_from_config(self, capsys):
        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG, "ask",
                             "--question", "quelle coupure du flux ?")
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("1.\ts11\t")

    def test_ask_no_answer(self, capsys):
        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG,
                             "--mode", "base", "ask",
                             "--question", "quelle coupure du flux ?")
        assert code == EXIT_OK
        assert out.strip() == "no answer"

    def test_ask_unanalyzable_question(self, capsys):
        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG, "ask",
                             "--question", "zzz grmbl ?")
        assert code == EXIT_INPUT
        assert "unanalyzable" in err


class TestEvaluate:
    def test_deriv_mode(self, capsys, tmp_path):
        report = tmp_path / "report.tsv"
        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG,
                             "evaluate", "--out", str(report))
        assert code == EXIT_OK
        assert out.strip() == "deriv\t0.8636363636363636\t3"
        lines = report.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 23
        assert lines[-1] == "deriv\t0.8636363636363636\t3"

    def test_mode_override(self, capsys):
        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG,
                             "--mode", "all", "evaluate")
        assert code == EXIT_OK
        assert out.strip() == "all\t1.0\t0"

    def test_k_override_changes_results(self, capsys):
        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG,
                             "--mode", "baseline", "--k", "1", "evaluate")
        assert code == EXIT_OK
        mode, mean, no_answer = out.strip().split("\t")
        assert mode == "baseline"
        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG,
                             "--mode", "baseline", "--k", "5", "evaluate")
        _, mean5, _ = out.strip().split("\t")
        assert float(mean5) >= float(mean)

    def test_evaluate_with_prebuilt_bank(self, capsys, tmp_path):
        bank_path = tmp_path / "bank.jsonl"
        run(capsys, "--config", BENCHMARK_CONFIG, "preprocess",
            "--out", str(bank_path))
        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG,
                             "evaluate", "--bank", str(bank_path))
        assert code == EXIT_OK
        assert out.strip() == "deriv\t0.8636363636363636\t3"


class TestStats:
    def test_stats_lines(self, capsys, tmp_path):
        dump = tmp_path / "rules.tsv"
        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG,
                             "stats", "--wsd-report", str(dump))
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "suffixes learned: 15"
        assert lines[1] == "resource size: 23 derivatives over 14 lemmas"
        assert lines[5] == "patterns loaded: 11"
        assert lines[6] == ("sense examples compiled: 18 rules from "
                            "18/18 examples (100.0%)")
        assert dump.is_file()


class TestExitCodes:
    def test_missing_config_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "--config", str(tmp_path / "none.json"),
                             "stats")
        assert code == EXIT_CONFIG
        assert "config error" in err

    def test_bad_override(self, capsys):
        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG,
                             "--k", "9", "stats")
        assert code == EXIT_CONFIG
        assert "k must be in [1, 5]" in err

    @pytest.mark.parametrize("field, value", [
        ("sentences", 5),
        ("questions", [1]),
        ("k", True),
    ])
    def test_bad_field_type(self, capsys, tmp_path, field, value):
        import json
        raw = json.loads((FIXTURES / "benchmark" / "config.json").read_text(encoding="utf-8"))
        for name, path in raw.items():
            if isinstance(path, str) and path.endswith(".tsv"):
                raw[name] = str(FIXTURES / "benchmark" / path)
        raw[field] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        code, out, err = run(capsys, "--config", str(config), "stats")
        assert code == EXIT_CONFIG
        assert "config error" in err and f"{field} must be" in err

    def test_broken_resource_file(self, capsys, tmp_path):
        import json
        from conftest import FIXTURES as FX
        benchmark = FX / "benchmark"
        for name in ("inflections.tsv", "corpus_lexicon.tsv", "synonyms.tsv"):
            (tmp_path / name).write_bytes((benchmark / name).read_bytes())
        (tmp_path / "dictionary.tsv").write_text("broken row\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "dictionary": "dictionary.tsv",
            "inflections": "inflections.tsv",
            "corpus_lexicon": "corpus_lexicon.tsv",
            "synonyms": "synonyms.tsv",
        }), encoding="utf-8")
        code, out, err = run(capsys, "--config", str(config), "stats")
        assert code == EXIT_INPUT
        assert "expected 12 columns" in err

    def test_corrupt_bank(self, capsys, tmp_path):
        bank = tmp_path / "bank.jsonl"
        bank.write_text("{broken\n", encoding="utf-8")
        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG,
                             "ask", "--question", "quelle coupure du flux ?",
                             "--bank", str(bank))
        assert code == EXIT_INPUT
        assert "not valid JSON" in err

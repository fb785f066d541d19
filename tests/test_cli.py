import contextlib
import gc
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import derivqa
from derivqa import cli, depgraph, derivfilter, lexica, morphogen, pipeline, rephrase
from derivqa.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, main
from derivqa.depgraph import save_depbank, toy_parse
from derivqa.pipeline import packaged_data

from conftest import FIXTURES

# JSON the parser refuses: nesting past the recursion limit raises
# RecursionError, and an integer past Python's 4,300 digits a plain ValueError.
NESTED = "[" * 200_000 + "]" * 200_000 + "\n"
LONG_INT = "1" * 5_000

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_CONFIG = str(FIXTURES / "benchmark" / "config.json")
COUPER_FAMILY_CONFIG = str(FIXTURES / "couper_family" / "config.json")

# Resource files a `--bank` run hashes into the fingerprint but never parses.
SKIPPED_BY_BANK_RUNS = ("patterns.txt", "synonyms.tsv", "corpus_lexicon.tsv", "euphonics.tsv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, program=("-m", "derivqa.cli")):
    """`python -m derivqa.cli ARGV` with this checkout's package on the path;
    `program` replaces `-m derivqa.cli`."""
    package_root = str(Path(derivqa.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *program, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


# `cli.main(ARGV)`, then, as the last line of stderr, the derivqa modules loaded.
MAIN_THEN_MODULES = """
import sys
from derivqa import cli
code = cli.main(sys.argv[1:])
print(*sorted(m for m in sys.modules if m.startswith("derivqa.")), file=sys.stderr)
sys.exit(code)
"""


def run_fresh(*argv):
    """`cli.main(ARGV)` in a fresh interpreter: (exit code, stdout, stderr
    lines, set of the derivqa modules the process imported)."""
    proc = run_process(*argv, program=("-c", MAIN_THEN_MODULES))
    *err, modules = proc.stderr.splitlines()
    return proc.returncode, proc.stdout, err, set(modules.split())


def write_small_setup(directory) -> list:
    """Write the couper_family resources, the packaged patterns and code
    table, a one-sentence corpus and the bank built from them under
    `directory`; return the `ask --bank` argv that reads every one of them.
    Without its last two items, the argv builds the bank from the corpus."""
    family = FIXTURES / "couper_family"
    for name in ("dictionary.tsv", "inflections.tsv", "corpus_lexicon.tsv", "synonyms.tsv"):
        (directory / name).write_bytes((family / name).read_bytes())
    for name in ("patterns.txt", "code_table.tsv"):
        (directory / name).write_bytes(packaged_data(name).read_bytes())
    (directory / "sentences.tsv").write_text("s1\tJean a coupé le coupon .\n", encoding="utf-8")
    raw = json.loads((family / "config.json").read_text(encoding="utf-8"))
    raw["patterns"] = "patterns.txt"
    raw["code_table"] = "code_table.tsv"
    raw["sentences"] = "sentences.tsv"
    (directory / "config.json").write_text(json.dumps(raw, indent=1), encoding="utf-8")
    res = pipeline.load_resources(pipeline.load_config(directory / "config.json"))
    save_depbank(pipeline.build_bank(res, res.config.mode), directory / "bank.jsonl")
    return ["--config", str(directory / "config.json"), "ask",
            "--question", "Jean coupa le coupon ?", "--bank", str(directory / "bank.jsonl")]


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

    @pytest.mark.parametrize("fixture, symmetrize, counts, digest", [
        ("benchmark", True, (18, 493, 23, 22, 0),
         "cab52733aeae9c4f280447e7eadc4d1c58e6e52021009fa003ab31785a6bad3c"),
        ("benchmark", False, (18, 493, 21, 20, 0),
         "ccc493c64070b15507e8721aafe3d6006a9c6431c7c2378dd70dd7e1cde06b8d"),
        ("couper_family", False, (1, 21, 5, 5, 0),
         "a79fd3207c16828246a51bd54f4c013e6c7f8f62dc5e4edc3f527b2a3721c574"),
    ])
    def test_resource_bytes(self, capsys, tmp_path, fixture, symmetrize, counts, digest):
        """The fixtures' resources and stats, byte for byte: a change meant to
        leave the build as it is must leave these as they are."""
        directory = FIXTURES / fixture
        raw = json.loads((directory / "config.json").read_text(encoding="utf-8"))
        for key, value in raw.items():
            if isinstance(value, str) and (directory / value).is_file():
                raw[key] = str(directory / value)
        raw["symmetrize"] = symmetrize
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        out_path = tmp_path / "resource.tsv"
        code, out, err = run(capsys, "--config", str(config),
                             "build-resource", "--out", str(out_path))
        assert (code, err) == (EXIT_OK, "")
        names = ("entries processed", "candidates generated", "derivatives accepted",
                 "instructions total", "instructions unmatched")
        assert out.splitlines() == [f"{name}: {n}" for name, n in zip(names, counts)]
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


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
        assert lines[-1] == "deriv\t0.8636363636363636\t3\t0"

    def test_out_summary_counts_questions_answered_only_wrongly(self, capsys, tmp_path):
        report = tmp_path / "report.tsv"
        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG, "--mode", "baseline",
                             "evaluate", "--out", str(report))
        assert code == EXIT_OK
        assert out.strip() == "baseline\t0.17803030303030304\t14"
        lines = report.read_text(encoding="utf-8").splitlines()
        assert lines[-1] == "baseline\t0.17803030303030304\t14\t2"
        wrong = [line for line in lines[:-1] if line.split("\t")[1] == "-"]
        assert len(wrong) == 14 + 2

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


def copy_benchmark_setup(directory, **overrides) -> str:
    """Copy the benchmark fixture's config and files into `directory`, with
    config fields replaced by `overrides`; return the config path."""
    benchmark = FIXTURES / "benchmark"
    raw = json.loads((benchmark / "config.json").read_text(encoding="utf-8"))
    for value in raw.values():
        if isinstance(value, str) and value.endswith(".tsv"):
            (directory / value).write_bytes((benchmark / value).read_bytes())
    raw.update(overrides)
    (directory / "config.json").write_text(json.dumps(raw), encoding="utf-8")
    return str(directory / "config.json")


# sha256 of the fixture's `preprocess` bank in each mode.
FORMAT_3_DIGESTS = {
    "baseline": "1cfd3e8abc94586dbfd50ccab09b7a050a181dcfcf756433808740e975fc1803",
    "base": "23955a621daaf8051256e78eee62f1cd9595386ebfd82eebff58f54d56d78bf5",
    "deriv": "953579d11be995363598f6dfcae40fc2d6151cf71f1d78fd246b14abc1338e6f",
    "all": "f902438d6fb081fd2d59a5ddcaed748271c97a72526e0d66e20fbe63941190fd",
}


def format_2_text(bank) -> str:
    """`bank` as format 2 wrote it: a JSON header, then one JSON array per
    graph, `[id, text, tokens, deps]`."""
    header = {"derivqa_bank": 2, "mode": bank.mode, "fingerprint": bank.fingerprint}
    lines = [json.dumps(header, separators=(",", ":"))]
    for g in bank:
        row = [g.sentence_id, g.text,
               [[t.surface, t.lemma, t.pos, {} if t.deriv_pattern is None else
                 {"deriv_pattern": t.deriv_pattern, "deriv_source": t.deriv_source},
                 t.sense_id, sorted(t.alternates)] for t in g.tokens],
               [[d.label, *d.args, d.prep, d.provenance] for d in g.deps]]
        lines.append(json.dumps(row, ensure_ascii=False, separators=(",", ":"), sort_keys=True))
    return "".join(line + "\n" for line in lines)


class TestBankConfiguration:
    """`ask` and `evaluate --bank` refuse a bank built under another mode or
    fingerprint (resource files and bank-shaping tunables)."""

    @pytest.mark.parametrize("mode, expected", [
        ("baseline", "baseline\t0.17803030303030304\t14"),
        ("base", "base\t0.4090909090909091\t13"),
        ("deriv", "deriv\t0.8636363636363636\t3"),
        ("all", "all\t1.0\t0"),
    ])
    def test_preprocessed_bank_scores_as_a_fresh_build(self, capsys, tmp_path, mode, expected):
        bank = str(tmp_path / "bank.jsonl")
        assert run(capsys, "--config", BENCHMARK_CONFIG, "--mode", mode, "evaluate") == (
            EXIT_OK, expected + "\n", "")
        code, _, _ = run(capsys, "--config", BENCHMARK_CONFIG, "--mode", mode,
                         "preprocess", "--out", bank)
        assert code == EXIT_OK
        assert run(capsys, "--config", BENCHMARK_CONFIG, "--mode", mode,
                   "evaluate", "--bank", bank) == (EXIT_OK, expected + "\n", "")

    @pytest.mark.parametrize("mode, digest", [
        ("baseline", "baa69edc6fcf1a38cc5386f6a78a862fe59879bac23c868f19d71cf3014c17d5"),
        ("base", "0d791a75048f50e97c222d17581f26a1f2d3308b81b5b21104acbeef3d38dc62"),
        ("deriv", "ee497881781e9c8b7d3a32e98cc12dae41564e59f26f2943054272103488b36b"),
        ("all", "bd9a12adb7debb1675b3fed313f3fb2f4c4246c6831ce4f882aa50b6b229f19c"),
    ])
    def test_preprocessed_bank_bytes(self, capsys, tmp_path, mode, digest):
        """The fixture's banks, byte for byte: a change meant to leave the
        output as it is must leave these digests as they are.

        `digest` is the bank's digest in format 2, which the loaded format-3
        bank still gives when `format_2_text` writes it: format 3 holds the
        very graphs format 2 held. `FORMAT_3_DIGESTS` pins the file."""
        bank = tmp_path / "bank.jsonl"
        code, _, _ = run(capsys, "--config", BENCHMARK_CONFIG, "--mode", mode,
                         "preprocess", "--out", str(bank))
        assert code == EXIT_OK
        assert hashlib.sha256(bank.read_bytes()).hexdigest() == FORMAT_3_DIGESTS[mode]
        legacy = format_2_text(depgraph.load_depbank(bank)).encode("utf-8")
        assert hashlib.sha256(legacy).hexdigest() == digest

    @pytest.mark.parametrize("mode", pipeline.MODES)
    def test_format_2_bank_is_refused(self, capsys, tmp_path, mode):
        """A bank format 2 wrote under this very configuration (see
        `test_preprocessed_bank_bytes`) is refused: it must be rebuilt."""
        bank, legacy = tmp_path / "bank.jsonl", tmp_path / "legacy.jsonl"
        run(capsys, "--config", BENCHMARK_CONFIG, "--mode", mode,
            "preprocess", "--out", str(bank))
        legacy.write_text(format_2_text(depgraph.load_depbank(bank)), encoding="utf-8")
        refusal = f"error: {legacy}:1: not a derivqa_bank 3 header; rerun preprocess\n"
        for command in (["ask", "--question", "De quel chef Domitien est-il le successeur ?"],
                        ["evaluate"]):
            assert run(capsys, "--config", BENCHMARK_CONFIG, "--mode", mode, *command,
                       "--bank", str(legacy)) == (EXIT_INPUT, "", refusal)

    def test_bank_from_another_mode(self, capsys, tmp_path):
        bank = str(tmp_path / "bank.jsonl")
        run(capsys, "--config", BENCHMARK_CONFIG, "--mode", "base", "preprocess", "--out", bank)
        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG, "--mode", "deriv",
                             "evaluate", "--bank", bank)
        assert (code, out) == (EXIT_INPUT, "")
        assert len(err.splitlines()) == 1
        assert "bank built with mode=base fingerprint=" in err
        assert "but this run has mode=deriv fingerprint=" in err
        assert err.rstrip().endswith("; rerun preprocess")

    def test_bank_built_without_symmetrize(self, capsys, tmp_path):
        config = copy_benchmark_setup(tmp_path, symmetrize=False)
        bank = str(tmp_path / "bank.jsonl")
        run(capsys, "--config", config, "preprocess", "--out", bank)
        assert run(capsys, "--config", config, "ask", "--question",
                   "quelle coupure du flux ?", "--bank", bank)[0] == EXIT_OK
        code, out, err = run(capsys, "--config", config, "--symmetrize", "ask",
                             "--question", "quelle coupure du flux ?", "--bank", bank)
        assert (code, out) == (EXIT_INPUT, "")
        assert "rerun preprocess" in err

    def test_bank_built_before_a_dictionary_edit(self, capsys, tmp_path):
        config = copy_benchmark_setup(tmp_path)
        bank = str(tmp_path / "bank.jsonl")
        run(capsys, "--config", config, "preprocess", "--out", bank)
        dictionary = tmp_path / "dictionary.tsv"
        data = dictionary.read_bytes()
        dictionary.write_bytes(data.replace(b"sectionner", b"sectionnes", 1))
        assert run(capsys, "--config", config, "stats")[0] == EXIT_OK
        code, out, err = run(capsys, "--config", config, "evaluate", "--bank", bank)
        assert (code, out) == (EXIT_INPUT, "")
        assert "rerun preprocess" in err

    def test_bank_saved_from_a_plain_list(self, capsys, tmp_path, benchmark_resources):
        bank = tmp_path / "bank.jsonl"
        save_depbank([toy_parse("l'ouvrier a coupé le courant .",
                                benchmark_resources.lexicon, "s1")], bank)
        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG, "ask",
                             "--question", "l'ouvrier coupa quel courant ?", "--bank", str(bank))
        assert (code, out) == (EXIT_INPUT, "")
        assert "bank built with mode=None fingerprint=None" in err


class TestBankRuns:
    """`ask --bank` and `evaluate --bank` load only the question side: code
    table, dictionary, inflections and sense rules."""

    QUESTIONS = ("De quel chef Domitien est-il le successeur ?", "quelle coupure du flux ?",
                 "l'ouvrier coupa-t-il le courant ?")

    @pytest.mark.parametrize("symmetrize", [True, False])
    @pytest.mark.parametrize("mode", pipeline.MODES)
    def test_bank_runs_print_what_fresh_builds_print(self, capsys, tmp_path, mode, symmetrize):
        config = copy_benchmark_setup(tmp_path, symmetrize=symmetrize, mode=mode)
        bank = str(tmp_path / "bank.jsonl")
        assert run(capsys, "--config", config, "preprocess", "--out", bank)[0] == EXIT_OK
        for question in self.QUESTIONS:
            fresh = run(capsys, "--config", config, "ask", "--question", question)
            assert fresh[0] == EXIT_OK
            assert run(capsys, "--config", config, "ask", "--question", question,
                       "--bank", bank) == fresh
        fresh = run(capsys, "--config", config, "evaluate", "--out", str(tmp_path / "a.tsv"))
        assert fresh[0] == EXIT_OK
        assert run(capsys, "--config", config, "evaluate", "--bank", bank,
                   "--out", str(tmp_path / "b.tsv")) == fresh
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    def test_bank_runs_skip_the_text_side(self, capsys, tmp_path, monkeypatch):
        bank = str(tmp_path / "bank.jsonl")
        assert run(capsys, "--config", BENCHMARK_CONFIG, "preprocess", "--out", bank)[0] == EXIT_OK

        def refuse(*args, **kwargs):
            raise AssertionError("a --bank run loaded the text side")

        for module, name in ((morphogen, "learn_suffix_model"), (derivfilter, "build_resource"),
                             (lexica, "load_synonyms"), (rephrase, "parse_patterns")):
            monkeypatch.setattr(module, name, refuse)
        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG, "ask",
                             "--question", self.QUESTIONS[0], "--bank", bank)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "1.\ts06\t1\tDomitien succéda à l'empereur Titus ."
        assert run(capsys, "--config", BENCHMARK_CONFIG, "evaluate", "--bank", bank) == (
            EXIT_OK, "deriv\t0.8636363636363636\t3\n", "")

    @pytest.mark.parametrize("command, flag", [
        (["ask", "--question", QUESTIONS[0]], "--bank"),
        (["evaluate"], "--bank"),
        (["build-resource"], "--out"),
        (["preprocess"], "--out"),
        (["evaluate"], "--out"),
        (["stats"], "--wsd-report"),
    ], ids=["ask", "evaluate", "build-resource-out", "preprocess-out", "evaluate-out",
            "stats-wsd-report"])
    def test_empty_bank_path_is_an_input_error(self, capsys, monkeypatch, command, flag):
        def refuse(*args, **kwargs):
            raise AssertionError(f"an empty {flag} loaded resources")

        monkeypatch.setattr(pipeline, "load_question_resources", refuse)
        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG, *command, flag, "")
        assert (code, out, err) == (EXIT_INPUT, "", f"error: {flag} is an empty path\n")

    @pytest.mark.parametrize("name", SKIPPED_BY_BANK_RUNS)
    def test_skipped_file_edit_makes_the_bank_foreign(self, capsys, tmp_path, name):
        (tmp_path / "patterns.txt").write_bytes(packaged_data("patterns.txt").read_bytes())
        config = copy_benchmark_setup(tmp_path, patterns="patterns.txt")
        bank = str(tmp_path / "bank.jsonl")
        assert run(capsys, "--config", config, "preprocess", "--out", bank)[0] == EXIT_OK
        ask = ["--config", config, "ask", "--question", self.QUESTIONS[0]]
        assert run(capsys, *ask, "--bank", bank)[0] == EXIT_OK
        path = tmp_path / name
        data = path.read_bytes()
        cut = data.index(b"\n") + 1
        path.write_bytes(data[:cut] + b"\xe9" + data[cut + 1:])  # one byte of line 2
        code, out, err = run(capsys, *ask, "--bank", bank)
        assert (code, out) == (EXIT_INPUT, "")
        assert len(err.splitlines()) == 1
        assert err.rstrip().endswith("; rerun preprocess")
        # the edit breaks the file for a run that parses it
        code, out, err = run(capsys, *ask)
        assert code == EXIT_INPUT
        assert f"{name}:2: not valid UTF-8: byte 0xe9" in err


class TestStderr:
    """Run as a process: under pytest the root logger already has handlers,
    so `cli.main`'s logging set-up does nothing and capsys sees no log line."""

    @pytest.mark.parametrize("command", ["ask --bank", "ask", "stats"])
    def test_every_command_warns_once_about_an_unknown_code(self, capsys, tmp_path, command):
        argv = ["--config", BENCHMARK_CONFIG, "stats"]
        if command.startswith("ask"):
            argv[-1:] = ["ask", "--question", "quelle coupure du flux ?"]
        if command.endswith("--bank"):
            bank = str(tmp_path / "bank.jsonl")
            assert run(capsys, "--config", BENCHMARK_CONFIG, "preprocess",
                       "--out", bank)[0] == EXIT_OK
            argv += ["--bank", bank]
        proc = run_process(*argv)
        assert proc.returncode == EXIT_OK
        warnings = [line for line in proc.stderr.splitlines()
                    if "unknown derivation code 'R'" in line]
        assert len(warnings) == 1


@pytest.fixture(scope="module")
def benchmark_bank(tmp_path_factory):
    """The benchmark fixture's bank, written by `preprocess`."""
    bank = str(tmp_path_factory.mktemp("bank") / "bank.jsonl")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--config", BENCHMARK_CONFIG, "preprocess", "--out", bank]) == EXIT_OK
    return bank


class TestCollector:
    """A command runs with the cyclic garbage collector off; `main` gives
    the caller back the setting it found, however the command ends."""

    ASK = ("ask", "--question", "De quel chef Domitien est-il le successeur ?")

    @pytest.fixture(params=[True, False], ids=["caller-enabled", "caller-disabled"])
    def caller_setting(self, request):
        collecting = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if collecting else gc.disable)()

    @pytest.mark.parametrize("flags, exit_code", [
        ((), EXIT_OK),
        (("--mode", "base"), EXIT_INPUT),  # a bank from another configuration
        (("--k", "9"), EXIT_CONFIG),
    ], ids=["exit-0", "exit-1", "exit-2"])
    def test_exit_codes_restore_the_caller_setting(self, capsys, benchmark_bank,
                                                   caller_setting, flags, exit_code):
        code = run(capsys, "--config", BENCHMARK_CONFIG, *flags, *self.ASK,
                   "--bank", benchmark_bank)[0]
        assert code == exit_code
        assert gc.isenabled() is caller_setting

    def test_a_missing_subcommand_restores_the_caller_setting(self, capsys, caller_setting):
        with pytest.raises(SystemExit) as exc:
            main(["--config", BENCHMARK_CONFIG])
        assert exc.value.code == 2
        assert "required: command" in capsys.readouterr().err
        assert gc.isenabled() is caller_setting

    def test_the_command_runs_with_the_collector_off(self, capsys, monkeypatch,
                                                     caller_setting):
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "stats",
                            lambda res, args: seen.append(gc.isenabled()) or EXIT_OK)
        assert run(capsys, "--config", BENCHMARK_CONFIG, "stats")[0] == EXIT_OK
        assert seen == [False]
        assert gc.isenabled() is caller_setting

    def test_a_process_prints_what_main_prints(self, capsys, benchmark_bank):
        argv = ["--config", BENCHMARK_CONFIG, *self.ASK, "--bank", benchmark_bank]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert out.startswith("1.\ts06\t1\t")
        proc = run_process(*argv)
        assert (proc.returncode, proc.stdout) == (code, out)


BUILD_SIDE = {"derivqa.morphogen", "derivqa.derivfilter", "derivqa.rephrase"}


class TestImportBoundary:
    """A `--bank` process imports only the question side: it never learns
    suffixes, builds a resource or enriches a graph, so it does not compile
    the modules that do. Every other command imports them where it runs
    them and prints what `main` prints in-process."""

    ASK = ("ask", "--question", "De quel chef Domitien est-il le successeur ?")

    @pytest.mark.parametrize("command", [ASK, ("evaluate",)], ids=["ask", "evaluate"])
    def test_bank_runs_leave_the_build_side_unimported(self, capsys, benchmark_bank, command):
        argv = ["--config", BENCHMARK_CONFIG, *command, "--bank", benchmark_bank]
        code, out, _, modules = run_fresh(*argv)
        assert (code, out) == run(capsys, *argv)[:2]
        assert code == EXIT_OK
        assert "derivqa.qaengine" in modules
        assert modules.isdisjoint(BUILD_SIDE)

    def test_a_broken_skipped_file_still_makes_the_bank_foreign(self, capsys, tmp_path):
        (tmp_path / "patterns.txt").write_bytes(packaged_data("patterns.txt").read_bytes())
        config = copy_benchmark_setup(tmp_path, patterns="patterns.txt")
        bank = str(tmp_path / "bank.jsonl")
        assert run(capsys, "--config", config, "preprocess", "--out", bank)[0] == EXIT_OK
        (tmp_path / "patterns.txt").write_bytes(b"\xe9\n")
        code, out, err, modules = run_fresh("--config", config, *self.ASK, "--bank", bank)
        assert (code, out) == (EXIT_INPUT, "")
        errors = [line for line in err if not line.startswith("WARNING ")]
        assert len(errors) == 1
        assert errors[0].startswith("error: ") and errors[0].endswith("; rerun preprocess")
        assert modules.isdisjoint(BUILD_SIDE)

    @pytest.mark.parametrize("command", [
        ("build-resource",), ("preprocess", "--out", "bank.jsonl"), ("stats",), ASK,
    ], ids=["build-resource", "preprocess", "stats", "ask"])
    def test_other_commands_print_what_main_prints(self, capsys, tmp_path, monkeypatch,
                                                   command):
        monkeypatch.chdir(tmp_path)
        argv = ["--config", BENCHMARK_CONFIG, *command]
        code, out, _, modules = run_fresh(*argv)
        fresh_bank = tmp_path / "bank.jsonl"
        if fresh_bank.exists():
            fresh_bank = fresh_bank.replace(tmp_path / "fresh.jsonl")
        assert (code, out) == run(capsys, *argv)[:2]
        assert code == EXIT_OK
        assert BUILD_SIDE <= modules
        if command[0] == "preprocess":
            assert fresh_bank.read_bytes() == (tmp_path / "bank.jsonl").read_bytes()


class TestStages:
    """`--verbose` logs one line per stage with its milliseconds; without it,
    a run prints what it prints with it, less those lines."""

    @pytest.mark.parametrize("command, stages", [
        (("ask", "--question", "quelle coupure du flux ?", "--bank", None),
         ["load question side", "parse question", "load bank", "answer"]),
        (("ask", "--question", "quelle coupure du flux ?"),
         ["load question side and build resource", "parse question", "build bank", "answer"]),
        (("evaluate", "--bank", None),
         ["load question side", "read questions", "load bank", "evaluate"]),
        (("preprocess", "--out", None),
         ["load question side and build resource", "build bank", "write bank"]),
    ], ids=["ask-bank", "ask", "evaluate-bank", "preprocess"])
    def test_stage_lines(self, benchmark_bank, tmp_path, command, stages):
        path = str(tmp_path / "bank.jsonl") if command[0] == "preprocess" else benchmark_bank
        argv = ["--config", BENCHMARK_CONFIG, *(path if a is None else a for a in command)]
        quiet = run_process(*argv)
        verbose = run_process("--verbose", *argv)
        assert quiet.returncode == verbose.returncode == EXIT_OK
        logged = [re.fullmatch(r"INFO derivqa\.cli: (.+): \d+\.\d ms", line)
                  for line in verbose.stderr.splitlines()]
        assert [m[1] for m in logged if m] == stages
        assert quiet.stdout == verbose.stdout
        assert quiet.stderr.splitlines() == [
            line for line in verbose.stderr.splitlines() if not line.startswith("INFO ")]


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


def readme_quickstart():
    """(command, expected stdout) of each `$ ` line in README's Quickstart
    code blocks; a trailing backslash continues a command."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Quickstart\n", 1)[1].split("\n## ", 1)[0]
    sessions = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for chunk in re.split(r"^\$ ", block.replace("\\\n", " "), flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            sessions.append((command, output.rstrip("\n") + "\n"))
    return sessions


def derivqa_argvs(command) -> list:
    """The argv of each `derivqa` run a Quickstart command makes."""
    loop = re.fullmatch(r"for (\w+) in (.*?); do (.*); done", command)
    if loop:
        name, values, body = loop.groups()
        return [argv for value in values.split()
                for argv in derivqa_argvs(body.replace("$" + name, value).strip())]
    program, *argv = shlex.split(command)
    assert program == "derivqa"
    return [argv]


class TestReadmeQuickstart:
    def test_every_command_prints_what_the_readme_shows(self, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        sessions = readme_quickstart()
        assert [derivqa_argvs(command)[0][2] for command, _ in sessions] == [
            "stats", "ask", "--mode"]
        for command, expected in sessions:
            out = ""
            for argv in derivqa_argvs(command):
                code, stdout, _ = run(capsys, *argv)
                assert code == EXIT_OK
                out += stdout
            assert out == expected, command


class TestExitCodes:
    def test_empty_config_path(self, capsys):
        assert run(capsys, "--config", "", "stats") == (
            EXIT_CONFIG, "", "config error: --config is an empty path\n")

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

    def test_path_longer_than_the_file_system_allows(self, capsys, tmp_path):
        config = copy_benchmark_setup(tmp_path, synonyms="a" * 5_000)
        code, out, err = run(capsys, "--config", config, "stats")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("config error: synonyms: ")
        assert len(err.splitlines()) == 1

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
        assert err == f"error: {bank}:1: not a derivqa_bank 3 header; rerun preprocess\n"

    def test_bank_with_boolean_dependency_arg(self, capsys, tmp_path):
        bank = tmp_path / "bank.jsonl"
        bank.write_text("derivqa_bank\t3\t\t\n"
                        "s1\tx\t1\ta\ta\tNOUN\t\t\t\t\tMODIFIER\tfalse\t0\t\tBASE\n",
                        encoding="utf-8")
        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG,
                             "ask", "--question", "quelle coupure du flux ?",
                             "--bank", str(bank))
        assert code == EXIT_INPUT
        assert err == (f"error: {bank}:2: id='s1': dependency arg0 is not an integer: "
                       "'false'\n")

    def test_preprocess_refuses_a_bank_it_could_not_read_back(self, capsys, tmp_path):
        config = copy_benchmark_setup(tmp_path)
        sentences = tmp_path / "sentences.tsv"
        sentences.write_text(sentences.read_text(encoding="utf-8").replace(
            "s01\t", "derivqa_bank\t", 1), encoding="utf-8")
        bank = tmp_path / "bank.tsv"
        assert run(capsys, "--config", config, "preprocess", "--out", str(bank)) == (
            EXIT_INPUT, "",
            f"error: {bank}: id='derivqa_bank': an id must not be the bank header tag\n")
        assert not bank.exists()

    def test_bank_with_repeated_sentence_id(self, capsys, tmp_path, benchmark_resources):
        # two banks saved apart, then concatenated: the writer refuses a repeated id
        parts = []
        for name, text in [("a", "l'ouvrier a coupé le courant ."),
                           ("b", "le domestique lave le linge .")]:
            save_depbank([toy_parse(text, benchmark_resources.lexicon, "x")], tmp_path / name)
            parts.append((tmp_path / name).read_bytes())
        bank = tmp_path / "bank.jsonl"
        bank.write_bytes(b"".join(parts))
        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG, "--mode", "baseline",
                             "ask", "--question", "l'ouvrier coupa quel courant ?",
                             "--bank", str(bank))
        assert code == EXIT_INPUT
        assert out == ""
        assert "error:" in err and "duplicate sentence id 'x'" in err

    def test_bank_with_foreign_label(self, capsys, tmp_path, benchmark_resources):
        bank = tmp_path / "bank.jsonl"
        save_depbank([toy_parse("l'ouvrier a coupé le courant .",
                                benchmark_resources.lexicon, "s1")], bank)
        bank.write_text(bank.read_text(encoding="utf-8").replace("\tSUBJECT\t", "\tFOREIGN\t"),
                        encoding="utf-8")
        code, out, err = run(capsys, "--config", BENCHMARK_CONFIG,
                             "ask", "--question", "l'ouvrier coupa quel courant ?",
                             "--bank", str(bank))
        assert code == EXIT_INPUT
        assert out == ""
        assert "error:" in err and "unknown dependency label 'FOREIGN'" in err


class TestEncoding:
    def test_small_setup_answers(self, capsys, tmp_path):
        argv = write_small_setup(tmp_path)
        for args in (argv, argv[:-2]):
            code, out, err = run(capsys, *args)
            assert code == EXIT_OK
            assert out == "1.\ts1\t1\tJean a coupé le coupon .\n"

    @pytest.mark.parametrize("name, exit_code", [
        ("config.json", EXIT_CONFIG),
        ("dictionary.tsv", EXIT_INPUT),
        ("patterns.txt", EXIT_INPUT),
        ("code_table.tsv", EXIT_INPUT),
        ("bank.jsonl", EXIT_INPUT),
    ])
    def test_non_utf8_file(self, capsys, tmp_path, name, exit_code):
        argv = write_small_setup(tmp_path)
        path = tmp_path / name
        data = path.read_bytes()
        cut = data.index(b"\n") + 1
        path.write_bytes(data[:cut] + b"\xe9" + data[cut:])  # a latin-1 byte opens line 2
        if name in SKIPPED_BY_BANK_RUNS:
            # the bank run would not parse it (test_skipped_file_edit_makes_the_bank_foreign)
            argv = argv[:-2]
        code, out, err = run(capsys, *argv)
        assert code == exit_code
        assert f"{name}:2: not valid UTF-8: byte 0xe9" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, edit, exit_code, message", [
        ("config.json", lambda text: NESTED, EXIT_CONFIG,
         "config.json: invalid JSON: maximum recursion depth"),
        ("bank.jsonl", lambda text: NESTED, EXIT_INPUT,
         "bank.jsonl:1: not a derivqa_bank 3 header; rerun preprocess"),
        ("config.json", lambda text: text.replace('"k": 5', f'"k": {LONG_INT}'), EXIT_CONFIG,
         "config.json: invalid JSON: Exceeds the limit (4300 digits)"),
        ("bank.jsonl", lambda text: text + f"s2\tt\t{LONG_INT}\n", EXIT_INPUT,
         "bank.jsonl:3: id='s2': token count is not an integer: 5000 digits is too many"),
    ], ids=["config.json", "bank.jsonl", "config.json-long-integer", "bank.jsonl-long-integer"])
    def test_deeply_nested_json(self, capsys, tmp_path, name, edit, exit_code, message):
        argv = write_small_setup(tmp_path)
        path = tmp_path / name
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        code, out, err = run(capsys, *argv)
        assert code == exit_code
        assert message in err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, edit, column", [
        ("dictionary.tsv", lambda text: text.replace("couper\t1\t", f"couper\t{LONG_INT}\t"),
         "sense_id"),
        ("dictionary.tsv", lambda text: text.replace("-Q-\t1", f"-Q-\t{LONG_INT}"), "level"),
        ("corpus_lexicon.tsv", lambda text: text.replace("coup\t212", f"coup\t{LONG_INT}"),
         "count"),
        ("synonyms.tsv", lambda text: text + f"couper\t{LONG_INT}\ttrancher\n", "sense"),
    ], ids=["sense_id", "level", "count", "synonym-sense"])
    def test_long_integer_cell(self, capsys, tmp_path, name, edit, column):
        argv = write_small_setup(tmp_path)[:-2]  # a --bank run skips two of these files
        path = tmp_path / name
        text = edit(path.read_text(encoding="utf-8"))
        path.write_text(text, encoding="utf-8")
        lineno = text[:text.index(LONG_INT)].count("\n") + 1
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert err == f"error: {path}:{lineno}: {column} is not an integer: 5000 digits is too many\n"

    def test_nul_in_config_path(self, capsys, tmp_path):
        argv = write_small_setup(tmp_path)
        path = tmp_path / "config.json"
        raw = json.loads(path.read_text(encoding="utf-8"))
        raw["patterns"] = "pat\u0000terns.txt"
        path.write_text(json.dumps(raw), encoding="utf-8")
        code, out, err = run(capsys, *argv)
        assert code == EXIT_CONFIG
        assert err == f"config error: {path}: patterns: embedded null byte\n"


@pytest.fixture(scope="module")
def small_setup(tmp_path_factory):
    directory = tmp_path_factory.mktemp("small")
    return directory, write_small_setup(directory)


EDITS = st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                           st.integers(min_value=0), st.integers(0, 255)),
                 min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["config.json", "dictionary.tsv", "patterns.txt",
                            "code_table.tsv", "sentences.tsv", "bank.jsonl"]),
       edits=EDITS)
@example(name="config.json", edits=[("insert", 0, 0xE9)])
@example(name="dictionary.tsv", edits=[("insert", 0, 0xE9)])
@example(name="patterns.txt", edits=[("insert", 0, 0xE9)])
@example(name="code_table.tsv", edits=[("insert", 0, 0xE9)])
@example(name="bank.jsonl", edits=[("insert", 0, 0xE9)])
# The bank's header, "derivqa_bank<TAB>3<TAB>deriv<TAB>FINGERPRINT": the
# format digit at byte 13, the first byte of the tag, and the first byte of
# the fingerprint, which starts at byte 21 in a deriv bank.
@example(name="bank.jsonl", edits=[("replace", 13, ord("2"))])
@example(name="bank.jsonl", edits=[("delete", 0, 0)])
@example(name="bank.jsonl", edits=[("replace", 21, ord("x"))])
def test_mutated_inputs_never_raise(small_setup, name, edits):
    """Both with the bank, which any resource edit makes foreign, and
    without it, so a question is answered under the edited resources."""
    directory, argv = small_setup
    path = directory / name
    original = path.read_bytes()
    data = bytearray(original)
    for op, index, byte in edits:
        i = index % (len(data) + 1)
        if op == "insert":
            data[i:i] = bytes([byte])
        elif op == "replace":
            data[i:i + 1] = bytes([byte])
        else:
            del data[i:i + 1]
    path.write_bytes(bytes(data))
    try:
        assert main(argv) in (EXIT_OK, EXIT_INPUT, EXIT_CONFIG)
        assert main(argv[:-2]) in (EXIT_OK, EXIT_INPUT, EXIT_CONFIG)
    finally:
        path.write_bytes(original)


# Cell values that probe every column's checks: empty, NUL, a line separator
# and a byte-order mark that a line-based reader might split or strip, the
# synonym wildcard, a negative integer, one past every bank graph's tokens
# and a 5,000-digit one, and the names parts of speech and dependency
# labels go by.
HOSTILE_CELLS = ["", "\x00", "\u2028", "\ufeff", "*", "-1", "99", "9" * 5_000,
                 *sorted(lexica.CONTENT_POS), *sorted(depgraph.KNOWN_LABELS),
                 *sorted(depgraph.PROVENANCES)]
CELL_FILES = ["config.json", "dictionary.tsv", "inflections.tsv", "corpus_lexicon.tsv",
              "synonyms.tsv", "euphonics.tsv", "code_table.tsv", "sentences.tsv",
              "questions.tsv", "bank.jsonl"]
# The cells of a bank graph line the test sets, one per drawn column.
BANK_CELLS = ("count", "sense", "label", "arg0", "arg1")


@pytest.fixture(scope="module")
def cell_setup(tmp_path_factory):
    """The benchmark fixture with the packaged code table and patterns
    named in its config, so one `evaluate` run reads every file above but
    the bank, and its `all` bank, which `ask --bank` reads."""
    directory = tmp_path_factory.mktemp("cells")
    for name in ("code_table.tsv", "patterns.txt"):
        (directory / name).write_bytes(packaged_data(name).read_bytes())
    config = copy_benchmark_setup(directory, code_table="code_table.tsv",
                                  patterns="patterns.txt")
    argv = ["--config", config, "--mode", "all"]
    bank = str(directory / "bank.jsonl")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "preprocess", "--out", bank]) == EXIT_OK
    return directory, [*argv, "evaluate"], [
        *argv, "ask", "--question", "De quel chef Domitien est-il le successeur ?", "--bank", bank]


def set_bank_cell(text, row, column, value):
    """`text`, a bank, with one cell of a graph line set to `value`: the
    token count, a token's sense, or a dependency's label or arg, as
    `column` picks; `row` picks the line and the token or dependency."""
    lines = text.split("\n")
    rows = [i for i, line in enumerate(lines) if line and not line.startswith("derivqa_bank")]
    i = rows[row % len(rows)]
    cells = lines[i].split("\t")
    n = int(cells[2])
    deps = (len(cells) - 3 - 7 * n) // 5
    kind = BANK_CELLS[column % len(BANK_CELLS)]
    if kind == "sense":
        index = 3 + 7 * (row % n) + 3
    elif kind != "count" and deps:
        index = 3 + 7 * n + 5 * (row % deps) + ("label", "arg0", "arg1").index(kind)
    else:
        index = 2
    cells[index] = value
    lines[i] = "\t".join(cells)
    return "\n".join(lines)


def set_cell(name, text, row, column, value):
    """`text` with one cell set to `value`: a config value, written as a
    JSON number when it is one, a bank cell (see `set_bank_cell`), or a cell
    of a TSV data row."""
    if name == "bank.jsonl":
        return set_bank_cell(text, row, column, value)
    if name == "config.json":
        raw = json.loads(text)
        key = sorted(raw)[row % len(raw)]
        literal = value if value.lstrip("-").isdigit() else json.dumps(value)
        return "{" + ", ".join(f"{json.dumps(k)}: {literal if k == key else json.dumps(v)}"
                               for k, v in raw.items()) + "}"
    lines = text.split("\n")
    rows = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    i = rows[row % len(rows)]
    cells = lines[i].split("\t")
    cells[column % len(cells)] = value
    lines[i] = "\t".join(cells)
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(CELL_FILES), row=st.integers(min_value=0, max_value=200),
       column=st.integers(min_value=0, max_value=11), value=st.sampled_from(HOSTILE_CELLS))
@example(name="dictionary.tsv", row=0, column=1, value="9" * 5_000)
@example(name="corpus_lexicon.tsv", row=0, column=1, value="9" * 5_000)
@example(name="config.json", row=0, column=0, value="9" * 5_000)
@example(name="bank.jsonl", row=0, column=0, value="9" * 5_000)
@example(name="bank.jsonl", row=0, column=1, value="9" * 5_000)
@example(name="bank.jsonl", row=0, column=3, value="9" * 5_000)
@example(name="bank.jsonl", row=0, column=2, value="")
@example(name="bank.jsonl", row=0, column=4, value="99")
def test_hostile_cells_keep_the_exit_contract(cell_setup, name, row, column, value):
    """A run ends in 0, 1 or 2, and a failing one prints one error line. An
    edited bank is read by `ask --bank`, any other file by `evaluate`."""
    directory, evaluate_argv, bank_argv = cell_setup
    argv = bank_argv if name == "bank.jsonl" else evaluate_argv
    path = directory / name
    original = path.read_bytes()
    path.write_text(set_cell(name, original.decode("utf-8"), row, column, value),
                    encoding="utf-8")
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        path.write_bytes(original)
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_CONFIG)
    errors = [line for line in err.getvalue().split("\n")
              if line.startswith(("error: ", "config error: "))]
    assert len(errors) == (code != EXIT_OK)

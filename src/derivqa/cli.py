"""Command-line entry point.

Subcommands: build-resource, preprocess, ask, evaluate, stats. One JSON
config file names the resources; a few global flags override config
fields per run. Exit codes: 0 success, 1 input error, 2 config error.
"""

import argparse
import gc
import logging
import sys

from . import depgraph, derivfilter, pipeline, qaengine, wsd
from .lexica import LexiconError
from .pipeline import ConfigError
from .qaengine import QuestionError

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derivqa",
        description="Question answering with derivational rephrasing "
                    "over a dependency bank.")
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--mode", choices=pipeline.MODES,
                        help="enrichment mode (overrides config)")
    parser.add_argument("--k", type=int, help="answers per question (1-5)")
    parser.add_argument("--require-full-match", action="store_true", default=None,
                        help="only report full-coverage candidates")
    parser.add_argument("--symmetrize", action="store_true", default=None,
                        help="add verb back-instructions to derived entries")
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")

    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build-resource",
                             help="build the derivational resource and print stats")
    p_build.add_argument("--out", help="write the resource TSV here")

    p_pre = sub.add_parser("preprocess",
                           help="parse, disambiguate, and enrich the corpus")
    p_pre.add_argument("--out", required=True,
                       help="write the bank (tab-separated, one line per graph) here")

    p_ask = sub.add_parser("ask", help="answer one question against a bank")
    p_ask.add_argument("--question", required=True, help="question text")
    p_ask.add_argument("--bank", help="preprocessed bank file; built from "
                                      "config sentences when omitted")

    p_eval = sub.add_parser("evaluate", help="score a question file against a bank")
    p_eval.add_argument("--bank", help="preprocessed bank file; built from "
                                       "config sentences when omitted")
    p_eval.add_argument("--out", help="write the per-question report here")

    p_stats = sub.add_parser("stats", help="print resource and rule statistics")
    p_stats.add_argument("--wsd-report", help="write the compiled rule dump here")

    return parser


def _apply_overrides(config: pipeline.PipelineConfig, args) -> pipeline.PipelineConfig:
    for name in ("mode", "k", "require_full_match", "symmetrize"):
        value = getattr(args, name)
        if value is not None:
            setattr(config, name, value)
    config.validate()
    return config


def _load_bank(res, args):
    """The `--bank` file, refused unless it was built under this run's mode
    and fingerprint; without `--bank`, a bank built from the config."""
    if getattr(args, "bank", None) is None:
        return pipeline.build_bank(res, res.config.mode)
    bank = depgraph.load_depbank(args.bank)
    built, wanted = (bank.mode, bank.fingerprint), (res.config.mode, res.fingerprint)
    if built != wanted:
        raise depgraph.DepbankError(
            f"{args.bank}: bank built with {depgraph.describe_bank(*built)}, "
            f"but this run has {depgraph.describe_bank(*wanted)}; rerun preprocess")
    return bank


def cmd_build_resource(res: pipeline.Resources, args) -> int:
    stats = res.resource.stats
    if args.out is not None:
        derivfilter.save_resource(res.resource, args.out)
    print(f"entries processed: {stats.entries_processed}")
    print(f"candidates generated: {stats.candidates_generated}")
    print(f"derivatives accepted: {stats.derivatives_accepted}")
    print(f"instructions total: {stats.instructions_total}")
    print(f"instructions unmatched: {stats.instructions_unmatched}")
    return EXIT_OK


def cmd_preprocess(res: pipeline.Resources, args) -> int:
    bank = pipeline.build_bank(res, res.config.mode)
    depgraph.save_depbank(bank, args.out)
    print(f"bank written: {len(bank)} graphs, "
          f"{len(res.skipped_sentences)} sentences skipped")
    return EXIT_OK


def cmd_ask(res: pipeline.QuestionResources, args) -> int:
    question = qaengine.parse_question("q", args.question, res.lexicon)
    wsd.disambiguate(question.graph, res.compilation, res.dictionary)
    bank = _load_bank(res, args)
    candidates = qaengine.answer_for_mode(question, bank, res.config.mode, res.config.k,
                                          res.config.require_full_match)
    if not candidates:
        print("no answer")
        return EXIT_OK
    for rank, candidate in enumerate(candidates, start=1):
        print(f"{rank}.\t{candidate.sentence_id}\t{candidate.coverage}\t{candidate.text}")
    return EXIT_OK


def cmd_evaluate(res: pipeline.QuestionResources, args) -> int:
    if res.config.questions is None:
        raise ConfigError("config has no questions file")
    rows = qaengine.load_questions(res.config.questions)
    bank = _load_bank(res, args)
    questions = pipeline.parse_questions(res, rows)
    try:
        report = qaengine.evaluate(
            questions, bank, res.config.mode, k=res.config.k,
            require_full_match=res.config.require_full_match)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.out is not None:
        qaengine.write_report(report, args.out)
    print(f"{report.mode}\t{float(report.mean_score)!r}\t{report.no_answer_count}")
    return EXIT_OK


def cmd_stats(res: pipeline.Resources, args) -> int:
    stats = res.resource.stats
    print(f"suffixes learned: {len(res.model.suffixes)}")
    print(f"resource size: {stats.derivatives_accepted} derivatives "
          f"over {len(res.resource.by_lemma)} lemmas")
    print(f"entries processed: {stats.entries_processed}")
    print(f"candidates generated: {stats.candidates_generated}")
    print(f"derivatives accepted: {stats.derivatives_accepted}")
    print(f"patterns loaded: {len(res.patterns)}")
    total = res.compilation.examples_total
    compiled = sum(len(r) for r in res.compilation.rules.values())
    skipped = len(res.compilation.skipped)
    covered = total - skipped
    pct = (100 * covered / total) if total else 100.0
    print(f"sense examples compiled: {compiled} rules from "
          f"{covered}/{total} examples ({pct:.1f}%)")
    if args.wsd_report is not None:
        wsd.dump_rules(res.compilation, args.wsd_report)
        print(f"rule dump written: {args.wsd_report}")
    return EXIT_OK


_COMMANDS = {
    "build-resource": cmd_build_resource,
    "preprocess": cmd_preprocess,
    "ask": cmd_ask,
    "evaluate": cmd_evaluate,
    "stats": cmd_stats,
}


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector off.

    The package builds no reference cycles (`tests/test_acyclic.py`), so a
    collection would walk every container a command allocates and find
    none of the package's to free. The caller's setting is restored on
    every way out, `SystemExit` included.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    for name in ("out", "bank", "wsd_report"):
        if getattr(args, name, None) == "":
            print(f"error: --{name.replace('_', '-')} is an empty path", file=sys.stderr)
            return EXIT_INPUT
    try:
        config = pipeline.load_config(args.config)
        config = _apply_overrides(config, args)
        if getattr(args, "bank", None) is not None:
            res = pipeline.load_question_resources(config)
        else:
            res = pipeline.load_resources(config)
        return _COMMANDS[args.command](res, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (LexiconError, depgraph.DepbankError,
            depgraph.ToyParseError, QuestionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

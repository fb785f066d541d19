"""Measuring process of one benchmark run (started by run.py).

It loads the inputs run.py generated, then repeats rounds of the same
operations until the run's seconds are spent. A round makes the workload's
set-ups, its preprocess passes (each over one fixed-size chunk of the
bank), its loads of the whole bank file, its asks in process and its
`derivqa ask --bank` subprocesses, one at a time, each followed by a
reference burst that the operation's time is scaled by (see "the reference
burst" below). The first round is a warm-up and is not counted. With
--trace 1 the first half of the time runs untraced and the second half
traced; the per-layer figures come from the traced half, the tracing
overhead from comparing the two.

Checks run after the timed rounds, on the outputs of the last round.
The last line printed is the result as one JSON object.
"""

import argparse
import contextlib
import json
import logging
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen
import spans as tracing

from derivqa import depgraph, pipeline, qaengine, wsd

HERE = Path(__file__).resolve().parent
MIN_ASKS = 100
TIMINGS = ("setup_s", "preprocess_sent_per_s", "bank_load_sent_per_s", "ask_ms_p50",
           "ask_ms_p90", "cli_ask_s")


class _Counting(logging.Handler):
    """Counts the program's log records instead of printing them."""

    def __init__(self):
        super().__init__()
        self.records = 0

    def emit(self, record):
        self.records += 1


class Run:
    def __init__(self, args):
        self.workdir = Path(args.workdir)
        self.manifest = json.loads((self.workdir / "manifest.json").read_text(encoding="utf-8"))
        self.spec = gen.WORKLOADS[args.workload]
        self.mode = self.spec["mode"]
        self.baseline = self.mode == "baseline"
        self.config_path = self.workdir / "config.json"
        self.bank_path = self.workdir / "bank.jsonl"
        self.pass_path = self.workdir / "pass.jsonl"
        sentences = [tuple(s) for s in self.manifest["sentences"]]
        size = self.spec["chunk"]
        self.sentences = sentences
        self.chunks = [sentences[i:i + size] for i in range(0, len(sentences), size)]
        self.questions = self.manifest["questions"]
        self.tracer = None
        self.cli_traces = []
        self.traced_derivatives = 0
        self.attempted = self.failed = 0
        self.pass_no = self.ask_no = self.cli_no = 0
        self.res = self.bank = self.index = None
        self.log = _Counting()
        package_log = logging.getLogger("derivqa")
        package_log.addHandler(self.log)
        package_log.propagate = False

    # --- one round ------------------------------------------------------------

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def setup(self):
        with self._span("bench.setup"):
            start = time.perf_counter()
            config = pipeline.load_config(self.config_path)
            self.res = pipeline.load_resources(config)
            return time.perf_counter() - start

    def preprocess(self, chunk):
        with self._span("bench.pass"):
            start = time.perf_counter()
            graphs = pipeline.build_bank(self.res, self.mode, chunk)
            depgraph.save_depbank(graphs, self.pass_path)
            elapsed = time.perf_counter() - start
        self.attempted += len(chunk)
        self.failed += len(chunk) - len(graphs)
        self.last_pass = (chunk, graphs)
        if self.tracer:
            self.traced_derivatives += sum(1 for g in graphs for t in g.tokens
                                           if t.features.get("deriv_pattern"))
        return elapsed

    def load(self):
        self.bank = self.index = None
        with self._span("bench.load"):
            start = time.perf_counter()
            self.bank = depgraph.load_depbank(self.bank_path)
            if self.baseline:
                self.index = qaengine.build_bag_index(self.bank)
            return time.perf_counter() - start

    def ask(self, record):
        """Seconds one ask took, or None when the question was refused."""
        res = self.res
        self.attempted += 1
        with self._span("bench.ask"):
            start = time.perf_counter()
            try:
                question = qaengine.parse_question(record["id"], record["text"], res.lexicon)
            except qaengine.QuestionError as exc:
                self.failed += 1
                print(f"ask failed: {exc}", file=sys.stderr)
                return None
            wsd.disambiguate(question.graph, res.compilation, res.dictionary)
            if self.baseline:
                candidates = qaengine.answer_baseline(question, self.index, k=res.config.k)
            else:
                candidates = qaengine.answer(question, self.bank, k=res.config.k,
                                             require_full_match=res.config.require_full_match)
            elapsed = time.perf_counter() - start
        self.asked[record["id"]] = (record, question.graph, candidates)
        return elapsed

    def cli_ask(self, record):
        args = ["--config", str(self.config_path), "ask", "--question", record["text"],
                "--bank", str(self.bank_path)]
        if self.tracer:
            out = self.workdir / f"cli-{len(self.cli_traces)}.json"
            command = [sys.executable, str(HERE / "spans.py"), "--out", str(out), "--"] + args
        else:
            command = [sys.executable, "-m", "derivqa.cli"] + args
        with self._span("bench.cli"):
            start = time.perf_counter()
            proc = subprocess.run(command, capture_output=True, text=True, timeout=120)
            elapsed = time.perf_counter() - start
        self.attempted += 1
        if proc.returncode != 0:
            self.failed += 1
            print(f"cli ask failed ({proc.returncode}): {proc.stderr.strip()[-300:]}",
                  file=sys.stderr)
        else:
            self.cli_outputs[record["id"]] = proc.stdout
        if self.tracer and out.exists():
            self.cli_traces.append((elapsed, _read_spans(out)))
        return elapsed

    def round(self, samples):
        # Loads come first. In use a bank is loaded once and many questions
        # follow; here it is loaded every round, and the collector's work on
        # the objects a load leaves falls in the operations right after it.
        # After the asks, that would put it in 1 ask of every round.
        spec = self.spec
        for _ in range(spec["loads"]):
            self.record(samples, "load", self.load(), len(self.sentences))
        for _ in range(spec["setups"]):
            self.record(samples, "setup", self.setup())
        for _ in range(spec["passes"]):
            chunk = self.chunks[self.pass_no % len(self.chunks)]
            self.record(samples, "pass", self.preprocess(chunk), len(chunk))
            self.pass_no += 1
        for _ in range(spec["asks"]):
            elapsed = self.ask(self.questions[self.ask_no % len(self.questions)])
            if elapsed is not None:
                self.record(samples, "ask", elapsed)
            self.ask_no += 1
        for _ in range(spec["cli"]):
            record = self.questions[self.cli_no % len(self.questions)]
            self.record(samples, "cli", self.cli_ask(record))
            self.cli_no += 1

    def record(self, samples, kind, elapsed, per=1):
        """Keep one operation's seconds (per sentence when `per` is given),
        then time a reference burst; `scaled` relates the two."""
        samples["raw"][kind].append(elapsed / per)
        samples["at"][kind].append(len(samples["ref"]))
        samples["ref"].append(reference_burst())

    def rounds(self, seconds, min_rounds, warm_up=True):
        """A warm-up round, then rounds until `seconds` have passed (at
        least `min_rounds`); returns per-operation samples in seconds."""
        if warm_up:
            self.round(_samples())
        samples = _samples()
        start = time.perf_counter()
        done = 0
        while done < min_rounds or time.perf_counter() - start < seconds:
            self.round(samples)
            done += 1
        samples["rounds"] = done
        return samples

    # --- the run ------------------------------------------------------------------

    def build_bank_file(self):
        """Preprocess every chunk once and write the bank file; the WsdStats
        and skipped sentences of this build feed the per-layer counts."""
        self.setup()
        self.wsd_stats = wsd.WsdStats()
        self.skipped = 0
        with open(self.bank_path, "wb") as bank_file:
            for chunk in self.chunks:
                graphs = pipeline.build_bank(self.res, self.mode, chunk, wsd_stats=self.wsd_stats)
                self.skipped += len(self.res.skipped_sentences)
                self.attempted += len(chunk)
                self.failed += len(chunk) - len(graphs)
                depgraph.save_depbank(graphs, self.pass_path)
                bank_file.write(self.pass_path.read_bytes())

    def main(self, seconds, traced):
        self.asked, self.cli_outputs = {}, {}
        clock = [time.perf_counter()]

        def lap():
            clock.append(time.perf_counter())
            return clock[-1] - clock[-2]

        self.build_bank_file()
        phases = [f"bank build {lap():.1f} s"]
        min_rounds = max(5, math.ceil(MIN_ASKS / self.spec["asks"]))
        if not traced:
            samples = self.rounds(seconds, min_rounds)
            rss = _peak_rss_mb()
            metrics = end_to_end(scaled(samples), rss, self.bank_path)
            phases.append(f"{samples['rounds']} rounds {lap():.1f} s")
            raw = end_to_end(samples["raw"], rss, self.bank_path)
            print("timings as measured, before scaling: " + ", ".join(
                f"{name} {raw[name][0]:.6g}" for name in TIMINGS))
            print(f"reference burst: median {statistics.median(samples['ref']) * 1e3:.3f} ms "
                  f"over {len(samples['ref'])} bursts (nominal {REF_NOMINAL_S * 1e3:g} ms)")
        else:
            plain = self.rounds(seconds / 2, 2)
            self.tracer = tracing.Tracer()
            self.tracer.install()
            traced_samples = self.rounds(seconds / 2, 2, warm_up=False)
            self.tracer.active = False
            rss = _peak_rss_mb()
            phases.append(f"{plain['rounds']} + {traced_samples['rounds']} rounds {lap():.1f} s")
            metrics = self.per_layer(plain, traced_samples, rss)
            phases.append(f"trace analysis {lap():.1f} s")
        failures = self.check()
        phases.append(f"checks {lap():.1f} s")
        for failure in failures[:20]:
            print(f"CHECK FAILED: {failure}")
        print(f"operations: {self.attempted} attempted, {self.failed} failed; "
              f"checks: {len(failures)} failures; program log records: {self.log.records}")
        print("phases: " + ", ".join(phases))
        return dict(correct=not failures, attempted=self.attempted, failed=self.failed,
                    metrics={name: {"value": value, "unit": unit}
                             for name, (value, unit) in metrics.items()})

    # --- checks -------------------------------------------------------------------

    def check(self):
        res, bank = self.res, self.bank
        k = res.config.k
        failures = checks.check_bank_ids(bank, self.sentences)
        failures += checks.check_answers(self.asked, bank, k, self.baseline)
        if not self.baseline:
            failures += checks.check_planted_kinds(self.asked, bank)
        failures += checks.check_cli(self.cli_outputs, self.asked)
        if "expected" in self.manifest:
            failures += checks.check_resource(res.resource.by_lemma, self.manifest["expected"],
                                              self.manifest["decoys"])
        failures += checks.check_derivative_tokens(bank, res.resource.by_lemma)
        chunk, graphs = self.last_pass
        parsed = [depgraph.toy_parse(text, res.lexicon, sentence_id=sid) for sid, text in chunk]
        failures += checks.check_base_kept(parsed, graphs)
        failures += checks.check_roundtrip(graphs, depgraph.load_depbank(self.pass_path))
        return failures

    # --- per-layer figures from the traced half ----------------------------------------

    def per_layer(self, plain, traced, rss):
        table = tracing.SpanTable(self.tracer.spans)
        counts = self.tracer.counts
        n_setup = len(traced["raw"]["setup"])
        n_pass_sent = self.spec["chunk"] * len(traced["raw"]["pass"])
        n_load = len(traced["raw"]["load"])
        n_ask = len(traced["raw"]["ask"])
        n_load_sent = n_load * len(self.sentences)
        ms, us = 1e3, 1e6

        def own(kind, layer, under):
            return table.self_sum(kind, layer, set(under))

        loaders = {f"lexica.load_{x}" for x in
                   ("dictionary", "inflections", "corpus_lexicon", "code_table", "synonyms")}
        stats = self.res.resource.stats
        derivatives = self.traced_derivatives
        match_calls = tracing.count(counts, "rephrase.match_pattern", "bench.pass")
        candidates = self.candidate_counts()
        cli_import = [s for _, spans in self.cli_traces for s in spans
                      if s["name"] == "cli.import"]
        m = {
            "lexica.load_ms": (own("bench.setup", "lexica", loaders) * ms / n_setup, "ms"),
            "lexica.senses_by_lemma_calls_per_sent": (
                tracing.count(counts, "lexica.senses_by_lemma", "bench.pass") / n_pass_sent, "calls"),
            "morphogen.learn_ms": (
                own("bench.setup", "morphogen", ["morphogen.learn_suffix_model"]) * ms / n_setup, "ms"),
            "morphogen.candidates": (stats.candidates_generated, "count"),
            "derivfilter.build_ms": (
                own("bench.setup", "derivfilter", ["derivfilter.build_resource"]) * ms / n_setup, "ms"),
            "derivfilter.symmetrize_ms": (
                own("bench.setup", "derivfilter", ["derivfilter.symmetrize_instructions"])
                * ms / n_setup, "ms"),
            "derivfilter.accepted": (stats.derivatives_accepted, "count"),
            "derivfilter.accept_ratio": (
                stats.derivatives_accepted / stats.candidates_generated, "ratio"),
            "wsd.compile_ms": (own("bench.setup", "wsd", ["wsd.compile_rules"]) * ms / n_setup, "ms"),
            "wsd.disambiguate_us_per_sent": (
                own("bench.pass", "wsd", ["wsd.disambiguate"]) * us / n_pass_sent, "us"),
            "wsd.monosemous": (self.wsd_stats.monosemous, "count"),
            "wsd.rule_resolved": (self.wsd_stats.rule_resolved, "count"),
            "wsd.unresolved": (self.wsd_stats.unresolved, "count"),
            "depgraph.parse_us_per_sent": (
                own("bench.pass", "depgraph", ["depgraph.toy_parse"]) * us / n_pass_sent, "us"),
            "depgraph.save_us_per_sent": (
                own("bench.pass", "depgraph", ["depgraph.save_depbank"]) * us / n_pass_sent, "us"),
            "depgraph.load_us_per_sent": (
                own("bench.load", "depgraph", ["depgraph.load_depbank"]) * us / n_load_sent, "us"),
            "depgraph.skipped": (self.skipped, "count"),
            "rephrase.enrich_us_per_sent": (
                table.self_sum("bench.pass", "rephrase") * us / n_pass_sent, "us"),
            "rephrase.match_calls_per_sent": (match_calls / n_pass_sent, "calls"),
            "rephrase.derivatives_per_sent": (derivatives / n_pass_sent, "count"),
            "rephrase.match_yield": (derivatives / match_calls if match_calls else 0.0, "ratio"),
            "qaengine.answer_ms_per_q": (
                own("bench.ask", "qaengine", ["qaengine.answer", "qaengine.answer_baseline"])
                * ms / n_ask, "ms"),
            "qaengine.dep_match_calls_per_q": (
                tracing.count(counts, "qaengine.dep_match", "bench.ask") / n_ask, "calls"),
            "qaengine.candidates_per_q": (candidates, "count"),
            "qaengine.bank_graphs": (len(self.bank), "count"),
            "qaengine.candidate_yield": (candidates / len(self.bank), "ratio"),
            "qaengine.bag_index_ms": (
                own("bench.load", "qaengine", ["qaengine.build_bag_index"]) * ms / n_load, "ms"),
            "qaengine.parse_question_us": (
                table.inclusive_sum("bench.ask", "qaengine.parse_question") * us / n_ask, "us"),
            "cli.import_ms": (
                statistics.median(s["end"] - s["start"] for s in cli_import) * ms, "ms"),
        }
        split = self.report_split(table)
        m.update(split)
        untraced = end_to_end(scaled(plain), rss, self.bank_path)
        with_trace = end_to_end(scaled(traced), rss, self.bank_path)
        for name in ("setup_s", "preprocess_sent_per_s", "bank_load_sent_per_s",
                     "ask_ms_p50", "cli_ask_s"):
            a, b = untraced[name][0], with_trace[name][0]
            slower = a / b - 1 if name.endswith("_per_s") else b / a - 1
            m[f"trace.overhead.{name}"] = (slower * 100, "%")
        print("calls of lexica.senses_by_lemma in traced passes, by binding site:",
              tracing.count_sites(counts, "lexica.senses_by_lemma", "bench.pass"))
        print(f"derivatives accepted {stats.derivatives_accepted} of "
              f"{stats.candidates_generated} candidates generated; "
              f"traced passes: {derivatives} derivative tokens from {match_calls} "
              f"match_pattern calls over {n_pass_sent} sentences")
        name = f"{self.manifest['workload']}-s{self.manifest['seed']}.trace.jsonl.gz"
        dump = HERE / "out" / name
        dump.parent.mkdir(exist_ok=True)
        extra = [dict(cli=i, wall=wall, spans=spans)
                 for i, (wall, spans) in enumerate(self.cli_traces)]
        self.tracer.dump(dump, extra)
        return m

    def candidate_counts(self):
        """Mean number of bank graphs with a nonzero score per question, over
        the questions of one round."""
        total = 0
        asked = list(self.asked.values())[:self.spec["asks"]]
        for record, graph, _ in asked:
            question = qaengine.QuestionStructure(record["id"], record["text"], graph)
            if self.baseline:
                total += len(qaengine.answer_baseline(question, self.index, k=len(self.bank)))
            else:
                total += len(qaengine.answer(question, self.bank, k=len(self.bank)))
        return total / len(asked)

    def report_split(self, table):
        """Print where each kind of work spends its time; return the shares
        the workloads are built to show."""
        shares = {}
        for kind in ("bench.setup", "bench.pass", "bench.load", "bench.ask"):
            split = table.layer_split(kind)
            total = sum(split.values())
            print(f"{kind} self time by layer: " + ", ".join(
                f"{layer} {100 * t / total:.1f}%" for layer, t in
                sorted(split.items(), key=lambda kv: -kv[1])))
            shares[kind] = (split, total)
        setup, setup_total = shares["bench.setup"]
        passes, pass_total = shares["bench.pass"]
        asks, ask_total = shares["bench.ask"]
        senses = table.self_sum("bench.pass", "lexica", {"lexica.senses_by_lemma"})
        out = {
            "split.setup.morphogen_derivfilter": (
                (setup.get("morphogen", 0) + setup.get("derivfilter", 0)) / setup_total, "ratio"),
            "split.pass.rephrase_wsd_senses": (
                (passes.get("rephrase", 0) + passes.get("wsd", 0) + senses) / pass_total, "ratio"),
            "split.ask.qaengine": (asks.get("qaengine", 0) / ask_total, "ratio"),
        }
        # A CLI call: interpreter start-up, import, then the command's spans.
        parts = {"startup": 0.0, "import": 0.0, "load_depbank": 0.0, "bag_index": 0.0,
                 "setup": 0.0, "answer": 0.0}
        wall_total = 0.0
        for wall, spans in self.cli_traces:
            table_cli = tracing.SpanTable(
                [[s["name"], s["site"], s["parent"], s["start"], s["end"]] for s in spans])
            inside = sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
            parts["startup"] += wall - inside
            parts["import"] += table_cli.inclusive_sum("cli.import", "cli.import")
            parts["load_depbank"] += table_cli.inclusive_sum("cli.run", "depgraph.load_depbank")
            parts["bag_index"] += table_cli.inclusive_sum("cli.run", "qaengine.build_bag_index")
            parts["setup"] += table_cli.inclusive_sum("cli.run", "pipeline.load_resources")
            parts["answer"] += (table_cli.inclusive_sum("cli.run", "qaengine.answer")
                                + table_cli.inclusive_sum("cli.run", "qaengine.answer_baseline"))
            wall_total += wall
        print("cli ask wall time: " + ", ".join(
            f"{name} {100 * t / wall_total:.1f}%" for name, t in parts.items()))
        out["split.cli.load_import_bag"] = (
            (parts["load_depbank"] + parts["import"] + parts["bag_index"]) / wall_total, "ratio")
        return out


def scaled(samples):
    """Each operation's seconds at the reference speed: times REF_NOMINAL_S
    over the median of the REF_WINDOW bursts timed on either side of it."""
    ref = samples["ref"]
    out = {}
    for kind, values in samples["raw"].items():
        out[kind] = []
        for value, at in zip(values, samples["at"][kind]):
            window = ref[max(0, at - REF_WINDOW):at + REF_WINDOW]
            out[kind].append(value * REF_NOMINAL_S / statistics.median(window))
    return out


def end_to_end(samples, rss, bank_path):
    asks_ms = sorted(t * 1e3 for t in samples["ask"])
    return {
        "setup_s": (statistics.median(samples["setup"]), "s"),
        "preprocess_sent_per_s": (1 / statistics.median(samples["pass"]), "sentences/s"),
        "bank_load_sent_per_s": (1 / statistics.median(samples["load"]), "sentences/s"),
        "ask_ms_p50": (statistics.median(asks_ms), "ms"),
        "ask_ms_p90": (statistics.quantiles(asks_ms, n=10)[8], "ms"),
        "cli_ask_s": (statistics.median(samples["cli"]), "s"),
        "peak_rss_mb": (rss, "MB"),
        "bank_mb": (Path(bank_path).stat().st_size / 2**20, "MB"),
    }


def _samples():
    kinds = ("setup", "pass", "load", "ask", "cli")
    return {"raw": {kind: [] for kind in kinds}, "at": {kind: [] for kind in kinds},
            "ref": []}


# --- the reference burst -------------------------------------------------------
#
# A shared machine's speed can change by up to 1.5x for seconds to minutes
# at a time (the reference machine's did, see the README), and whole runs
# move with it. A fixed burst of interpreter work (string methods, dict
# lookups, a sort, recursion; no derivqa code) is timed after every
# operation, and each operation's time is scaled by REF_NOMINAL_S over the
# median of the bursts around it: the timings are seconds at the speed at
# which one burst takes REF_NOMINAL_S. The burst does not change with the
# program, so a change to the program moves the scaled figures as it moves
# the raw ones.

REF_NOMINAL_S = 0.005
REF_WINDOW = 4
# Words and an index built once: a burst allocates almost no objects the
# garbage collector tracks, so the program's heap does not change its time.
_REF_WORDS = [f"w{i:04d}{chr(97 + i % 26)}" for i in range(400)]
_REF_INDEX = {word: i for i, word in enumerate(_REF_WORDS)}


def _depth(n):
    return 0 if n == 0 else 1 + _depth(n - 1)


def _reference_unit():
    total = 0
    for word in _REF_WORDS:
        total += _REF_INDEX[word.upper().lower()] + (word[-2:] in _REF_INDEX)
    text = " ".join(_REF_WORDS)
    total += len(text.split()) + len(sorted(_REF_WORDS, key=lambda w: w[::-1]))
    return total + _depth(300)


def reference_burst():
    """Seconds sixteen reference units take."""
    start = time.perf_counter()
    for _ in range(16):
        _reference_unit()
    return time.perf_counter() - start


def _peak_rss_mb():
    """Peak resident memory of this process and of the CLI processes it ran (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def _read_spans(path):
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "name" in record:
                spans.append(record)
    Path(path).unlink()
    return spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for this process and the CLI processes it starts, so that the
    # reference bursts run where the operations they scale run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = Run(args).main(args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

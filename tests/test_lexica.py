import functools
import json

import pytest

from derivqa import lexica, morphogen, pipeline, qaengine
from derivqa.depgraph import load_depbank, save_depbank
from derivqa.lexica import (
    ADJ,
    ADV,
    NOUN,
    VERB,
    Dictionary,
    InflectionEntry,
    LexiconError,
    SenseRecord,
    load_code_table,
    load_corpus_lexicon,
    load_dictionary,
    load_inflections,
    load_synonyms,
    parse_derivation_codes,
    senses_by_lemma,
)
from derivqa.pipeline import packaged_data

CODE_TABLE = load_code_table(packaged_data("code_table.tsv"))
DICT_ROW = ("vendre\t1\tVERB\tGEN\t2\tinstr\tcéder contre paiement\t"
            "le marchand vendit le navire .\t3\tT\t-E-\t1")


def pos_dictionary(*rows):
    """A dictionary with one sense per (lemma, pos) row."""
    return Dictionary(
        SenseRecord(lemma, sense_id, pos)
        for sense_id, (lemma, pos) in enumerate(rows, start=1))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestDictionary:
    def test_loads_fields(self, tmp_path):
        path = write(tmp_path, "d.tsv", "# comment\n" + DICT_ROW + "\n")
        records = load_dictionary(path, CODE_TABLE)
        assert len(records) == 1
        rec = records[0]
        assert (rec.lemma, rec.sense_id, rec.pos) == ("vendre", 1, VERB)
        assert rec.examples == ("le marchand vendit le navire .",)
        assert rec.construction_codes == ("T",)
        assert rec.instructions == (CODE_TABLE["E"],)

    def test_resolves_each_code_string_once(self, tmp_path, caplog):
        codes = "-Q- - - RB- - -"
        rows = [
            DICT_ROW.replace("-E-", codes),
            DICT_ROW.replace("vendre\t1", "vendre\t2").replace("-E-", codes),
            DICT_ROW.replace("vendre\t1", "vendre\t3"),
        ]
        path = write(tmp_path, "d.tsv", "\n".join(rows) + "\n")
        with caplog.at_level("WARNING", logger="derivqa"):
            records = load_dictionary(path, CODE_TABLE)
        assert [[(ins.target_pos, ins.suffix) for ins in r.instructions] for r in records] == [
            [(ADJ, "é"), (NOUN, "ation")], [(ADJ, "é"), (NOUN, "ation")], [(NOUN, "eur")]]
        assert [r.getMessage() for r in caplog.records] == [
            f"unknown derivation code 'R' in {codes!r}"]

    def test_rejects_wrong_column_count(self, tmp_path):
        path = write(tmp_path, "d.tsv", "vendre\t1\tVERB\n")
        with pytest.raises(LexiconError, match="expected 12 columns"):
            load_dictionary(path, CODE_TABLE)

    def test_rejects_duplicate_sense(self, tmp_path):
        path = write(tmp_path, "d.tsv", DICT_ROW + "\n" + DICT_ROW + "\n")
        with pytest.raises(LexiconError, match="duplicate sense"):
            load_dictionary(path, CODE_TABLE)

    def test_rejects_non_integer_sense(self, tmp_path):
        path = write(tmp_path, "d.tsv", DICT_ROW.replace("\t1\tVERB", "\tx\tVERB") + "\n")
        with pytest.raises(LexiconError, match="sense_id"):
            load_dictionary(path, CODE_TABLE)

    def test_rejects_non_integer_level(self, tmp_path):
        path = write(tmp_path, "d.tsv", "# one\n" + DICT_ROW[:-1] + "x\n")
        with pytest.raises(LexiconError) as info:
            load_dictionary(path, CODE_TABLE)
        assert str(info.value) == f"{path}:2: level is not an integer: 'x'"

    def test_verb_requires_conjugation(self, tmp_path):
        row = DICT_ROW.replace("\t3\tT\t", "\t\tT\t")
        path = write(tmp_path, "d.tsv", row + "\n")
        with pytest.raises(LexiconError) as info:
            load_dictionary(path, CODE_TABLE)
        assert str(info.value) == f"{path}:1: vendre/1: verb sense needs a conjugation code"

    def test_non_verb_rejects_verb_only_codes(self, tmp_path):
        for conjugation, constructions in (("3", ""), ("", "T")):
            row = (f"navire\t1\tNOUN\tGEN\t2\t\tbateau\tle navire .\t{conjugation}\t"
                   f"{constructions}\t- -\t1")
            path = write(tmp_path, "d.tsv", row + "\n")
            with pytest.raises(LexiconError) as info:
                load_dictionary(path, CODE_TABLE)
            assert str(info.value) == (
                f"{path}:1: navire/1: conjugation/construction codes are verb-only")

    def test_rejects_bad_pos_and_sense_id(self, tmp_path):
        for old, new, message in (("\tVERB\t", "\tPRON\t", "vendre: bad pos 'PRON'"),
                                  ("vendre\t1\t", "vendre\t0\t", "vendre: sense_id must be >= 1")):
            path = write(tmp_path, "d.tsv", DICT_ROW.replace(old, new) + "\n")
            with pytest.raises(LexiconError) as info:
                load_dictionary(path, CODE_TABLE)
            assert str(info.value) == f"{path}:1: {message}"

    def test_error_message_carries_path_and_line(self, tmp_path):
        path = write(tmp_path, "d.tsv", "# one\n\nbad row\n")
        with pytest.raises(LexiconError) as info:
            load_dictionary(path, CODE_TABLE)
        assert str(info.value).startswith(f"{path}:3:")

    def test_senses_by_lemma_groups_and_sorts(self, tmp_path):
        rows = [
            DICT_ROW,
            DICT_ROW.replace("vendre\t1", "vendre\t2"),
            DICT_ROW.replace("vendre\t1", "acheter\t1"),
        ]
        records = load_dictionary(write(tmp_path, "d.tsv", "\n".join(rows) + "\n"), CODE_TABLE)
        index = senses_by_lemma(records)
        assert sorted(index) == ["acheter", "vendre"]
        assert [s.sense_id for s in index["vendre"]] == [1, 2]
        assert records.senses == index

    def test_dictionary_is_a_read_only_sequence(self, tmp_path):
        records = load_dictionary(write(tmp_path, "d.tsv", DICT_ROW + "\n"), CODE_TABLE)
        assert isinstance(records, Dictionary)
        assert records.senses is records.senses
        with pytest.raises(TypeError):
            records[0] = records[0]
        assert not hasattr(records, "append")
        wrapped = Dictionary(list(records))
        assert wrapped == records and wrapped is not records


class TestCodeTable:
    def test_packaged_table(self):
        table = load_code_table(packaged_data("code_table.tsv"))
        assert table["E"].suffix == "eur"
        assert table["E"].target_pos == NOUN
        assert table["Q"].target_pos == ADJ
        assert table["D"].target_pos == ADV
        assert "R" not in table

    def test_parse_codes_skips_unknown_letters(self, caplog):
        table = load_code_table(packaged_data("code_table.tsv"))
        with caplog.at_level("WARNING", logger="derivqa"):
            instructions = parse_derivation_codes("-Q- - - RB- - -", table)
        assert [i.suffix for i in instructions] == ["é", "ation"]
        assert [r.getMessage() for r in caplog.records] == [
            "unknown derivation code 'R' in '-Q- - - RB- - -'"]

    def test_parse_codes_warns_once_per_letter(self, caplog):
        with caplog.at_level("WARNING", logger="derivqa"):
            assert parse_derivation_codes("-R-R-", CODE_TABLE) == []
            assert parse_derivation_codes("-Q-Q-", CODE_TABLE) == [CODE_TABLE["Q"]] * 2
        assert [r.getMessage() for r in caplog.records] == [
            "unknown derivation code 'R' in '-R-R-'"]

    def test_rejects_a_letter_that_is_filler(self, tmp_path):
        path = write(tmp_path, "t.tsv", "Q\tVERBAL_ADJECTIVE\tADJ\té\n"
                                        "-\tNOMINAL\tNOUN\teur\n")
        with pytest.raises(LexiconError) as info:
            load_code_table(path)
        assert str(info.value) == (
            f"{path}:2: code letter must be a single letter or digit: '-'")

    def test_parse_codes_ignores_punctuation(self):
        table = load_code_table(packaged_data("code_table.tsv"))
        assert parse_derivation_codes("- - -", table) == []

    def test_instruction_kind_checks_pos(self, tmp_path):
        for row, message in [
            ("E\tADVERBIAL\tNOUN\teur", "kind ADVERBIAL implies ADV, got NOUN"),
            ("E\tNOMINAL\tNOUN\t", "instruction suffix must be nonempty"),
            ("E\tPLURAL\tNOUN\ts", "unknown instruction kind: 'PLURAL'"),
        ]:
            path = write(tmp_path, "t.tsv", "Q\tVERBAL_ADJECTIVE\tADJ\té\n" + row + "\n")
            with pytest.raises(LexiconError) as info:
                load_code_table(path)
            assert str(info.value) == f"{path}:2: {message}"


class TestInflections:
    def test_load_and_readings(self, tmp_path):
        path = write(tmp_path, "i.tsv", "coupa\tcouper\tV:ps:3s\nCoupa\tcouper\tV:ps:3s\n")
        entries = load_inflections(path)
        lexicon = lexica.InflectionLexicon(entries)
        # both spellings under the normalized form, in file order
        assert lexicon.by_form == {"coupa": ((entries[0], VERB, "ps"), (entries[1], VERB, "ps"))}
        assert "absent" not in lexicon.by_form

    def test_tags_split_once_into_pos_and_subtag(self):
        entries = [InflectionEntry(form, "x", tags) for form, tags in [
            ("a", "ADV"), ("b", "V:"), ("c", "X:pp"), ("d", "V:pp:m:s"), ("e", "N:f:s"),
            ("f", "ADJ:m"), ("g", "")]]
        lexicon = lexica.InflectionLexicon(entries)
        assert [lexicon.by_form[e.surface_form][0][1:] for e in entries] == [
            (ADV, None), (VERB, ""), ("X", "pp"), (VERB, "pp"), (NOUN, "f"), (ADJ, "m"),
            ("", None)]

    def test_rejects_empty_form(self, tmp_path):
        path = write(tmp_path, "i.tsv", "\tcouper\tV:ps:3s\n")
        with pytest.raises(LexiconError, match="empty"):
            load_inflections(path)


class TestCorpusLexicon:
    def test_counts_accumulate_and_normalize(self, tmp_path):
        # Two rows of one form fold into one attested form; their counts are
        # checked, not kept.
        path = write(tmp_path, "c.tsv", "Coupure\t3\ncoupure\t4\n")
        corpus = load_corpus_lexicon(path)
        assert corpus.forms == frozenset({"coupure"})
        assert "COUPURE" in corpus
        assert "coupure" in corpus
        assert "coupage" not in corpus

    def test_rejects_non_positive_count(self, tmp_path):
        path = write(tmp_path, "c.tsv", "coupure\t0\n")
        with pytest.raises(LexiconError, match="positive"):
            load_corpus_lexicon(path)
        path = write(tmp_path, "c.tsv", "coupure\t-1\n")
        with pytest.raises(LexiconError) as info:
            load_corpus_lexicon(path)
        assert str(info.value) == f"{path}:1: count must be positive: -1"


class TestSynonyms:
    def test_wildcard_and_sense_rows_combine(self, tmp_path):
        path = write(tmp_path, "s.tsv", "laver\t*\tnettoyer\nlaver\t2\trincer;frotter\n")
        table = load_synonyms(path, Dictionary())
        assert table.lookup("laver", None) == {"nettoyer"}
        assert table.lookup("laver", 2) == {"nettoyer", "rincer", "frotter"}
        assert table.lookup("laver", 1) == {"nettoyer"}
        assert table.lookup("inconnu", None) == set()

    def test_rejects_cross_pos_rows(self, tmp_path):
        path = write(tmp_path, "s.tsv", "laver\t*\tnavire\n")
        dictionary = pos_dictionary(("laver", VERB), ("navire", NOUN))
        with pytest.raises(LexiconError, match="pos mismatch: laver is VERB, navire is NOUN"):
            load_synonyms(path, dictionary)

    def test_unknown_pos_is_tolerated(self, tmp_path):
        path = write(tmp_path, "s.tsv", "laver\t*\tinconnu\n")
        table = load_synonyms(path, pos_dictionary(("laver", VERB)))
        assert table.lookup("laver", None) == {"inconnu"}

    def test_lemma_of_several_pos_is_tolerated(self, tmp_path):
        path = write(tmp_path, "s.tsv", "laver\t*\tmarche\n")
        dictionary = pos_dictionary(("laver", VERB), ("marche", NOUN), ("marche", VERB))
        assert load_synonyms(path, dictionary).lookup("laver", None) == {"marche"}

    def test_rejects_bad_sense_column(self, tmp_path):
        path = write(tmp_path, "s.tsv", "laver\tx\tnettoyer\n")
        with pytest.raises(LexiconError, match="sense"):
            load_synonyms(path, Dictionary())

    @pytest.mark.parametrize("sense", ["0", "-1"])
    def test_rejects_a_sense_below_one(self, tmp_path, sense):
        # The dictionary has no such sense, so the row could never apply.
        path = write(tmp_path, "s.tsv", f"laver\t*\tnettoyer\nlaver\t{sense}\tfrotter\n")
        with pytest.raises(LexiconError) as info:
            load_synonyms(path, Dictionary())
        assert str(info.value) == f"{path}:2: laver: sense must be >= 1"


@pytest.mark.parametrize("loader, columns", [
    pytest.param(functools.partial(load_dictionary, code_table=CODE_TABLE), 12,
                 id="load_dictionary-12"),
    (load_code_table, 4),
    (load_inflections, 3),
    (load_corpus_lexicon, 2),
    pytest.param(functools.partial(load_synonyms, dictionary=Dictionary()), 3,
                 id="load_synonyms-3"),
    (pipeline.load_sentences, 2),
    (qaengine.load_questions, 3),
    (morphogen.load_euphonic_rules, 3),
], ids=lambda value: getattr(value, "__name__", str(value)))
def test_every_loader_rejects_a_row_one_column_short(tmp_path, loader, columns):
    path = write(tmp_path, "f.tsv", "# a comment\n" + "\t".join(["x"] * (columns - 1)) + "\n")
    with pytest.raises(LexiconError) as info:
        loader(path)
    assert str(info.value) == f"{path}:2: expected {columns} columns, got {columns - 1}"


def test_non_utf8_byte_names_its_line(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_bytes(b"# coup\xc3\xa9 is UTF-8\ncoupure\t3\ncoup\xe9\t4\n")  # then latin-1
    with pytest.raises(LexiconError) as info:
        load_corpus_lexicon(path)
    assert str(info.value) == f"{path}:3: not valid UTF-8: byte 0xe9"


def test_non_utf8_byte_line_counts_newlines_only(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_bytes(b"a\t1\nb\x0c\t2\n\xff\t3\n")
    with pytest.raises(LexiconError) as info:
        load_corpus_lexicon(path)
    assert str(info.value) == f"{path}:3: not valid UTF-8: byte 0xff"


def test_lines_end_at_newline_only(tmp_path):
    # U+0085 and U+2028 stay inside their cells; a CR before LF is dropped
    path = write(tmp_path, "c.tsv", "coup\u0085age\t2\r\ncoup\u2028ure\t3\nbad\n")
    with pytest.raises(LexiconError) as info:
        load_corpus_lexicon(path)
    assert str(info.value) == f"{path}:3: expected 2 columns, got 1"
    path = write(tmp_path, "c.tsv", "coup\u0085age\t2\r\ncoup\u2028ure\t3\n")
    assert load_corpus_lexicon(path).forms == frozenset({"coup\u0085age", "coup\u2028ure"})


# Cells that `int` reads as a number but a hand-kept file should not hold.
@pytest.mark.parametrize("cell", ["1_0", " 3", "+2", "\u0663"])
@pytest.mark.parametrize("column, loader, text", [
    ("sense_id", functools.partial(load_dictionary, code_table=CODE_TABLE),
     DICT_ROW.replace("vendre\t1\t", "vendre\t{}\t")),
    ("level", functools.partial(load_dictionary, code_table=CODE_TABLE), DICT_ROW[:-1] + "{}"),
    ("count", load_corpus_lexicon, "coupure\t{}"),
    ("sense", functools.partial(load_synonyms, dictionary=Dictionary()), "laver\t{}\tnettoyer"),
], ids=["sense_id", "level", "count", "sense"])
def test_integer_cells_hold_ascii_digits_only(tmp_path, cell, column, loader, text):
    path = write(tmp_path, "f.tsv", text.format(cell) + "\n")
    with pytest.raises(LexiconError) as info:
        loader(path)
    assert str(info.value) == f"{path}:1: {column} is not an integer: {cell!r}"


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark reads as its twin
    without one."""

    BOM = "\ufeff"

    def twins(self, tmp_path, name, text):
        return write(tmp_path, "bom-" + name, self.BOM + text), write(tmp_path, name, text)

    def test_dictionary(self, tmp_path):
        bom, plain = self.twins(tmp_path, "d.tsv", "# lemma\tsense\n" + DICT_ROW + "\n")
        assert load_dictionary(bom, CODE_TABLE) == load_dictionary(plain, CODE_TABLE)

    def test_corpus_lexicon(self, tmp_path):
        bom, plain = self.twins(tmp_path, "c.tsv", "coup\t2\ncoupure\t3\n")
        assert load_corpus_lexicon(bom).forms == load_corpus_lexicon(plain).forms == {
            "coup", "coupure"}

    def test_config(self, tmp_path, benchmark_config):
        paths = ("dictionary", "inflections", "corpus_lexicon", "synonyms")
        text = json.dumps({name: str(getattr(benchmark_config, name)) for name in paths}
                          | {"k": 3})
        bom, plain = self.twins(tmp_path, "config.json", text)
        assert pipeline.load_config(bom) == pipeline.load_config(plain)

    def test_bank(self, tmp_path, benchmark_resources):
        bank = pipeline.build_bank(benchmark_resources, "deriv")
        save_depbank(bank, tmp_path / "bank.jsonl")
        text = (tmp_path / "bank.jsonl").read_text(encoding="utf-8")
        bom, plain = self.twins(tmp_path, "bank.jsonl", text)
        a, b = load_depbank(bom), load_depbank(plain)
        assert list(a) == list(b) == list(bank)
        assert (a.mode, a.fingerprint) == (b.mode, b.fingerprint) == ("deriv", bank.fingerprint)

    def test_only_one_mark_is_dropped(self, tmp_path):
        path = write(tmp_path, "c.tsv", self.BOM * 2 + "coup\t2\n")
        assert load_corpus_lexicon(path).forms == {self.BOM + "coup"}

    def test_non_utf8_byte_still_names_its_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_bytes(self.BOM.encode() + b"a\t1\n\xff\t3\n")
        with pytest.raises(LexiconError) as info:
            load_corpus_lexicon(path)
        assert str(info.value) == f"{path}:2: not valid UTF-8: byte 0xff"

"""Tests of the benchmark's own checks, on small hand-made inputs, and of
the generator's determinism.

    python3 -m pytest bench
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace as NS

import checks

HERE = Path(__file__).resolve().parent


def tok(lemma, pos="NOUN", alternates=(), **features):
    return NS(lemma=lemma, pos=pos, alternates=set(alternates), features=features,
              surface=lemma, sense_id=None, index=0)


def dep(label, a, b, prep=None, provenance="BASE"):
    return NS(label=label, args=(a, b), prep=prep, provenance=provenance)


def graph(sid, tokens, deps, text=""):
    for i, t in enumerate(tokens):
        t.index = i
    return NS(sentence_id=sid, text=text or sid, tokens=tokens, deps=deps)


def cand(sid, cov, text=""):
    return NS(sentence_id=sid, coverage=Fraction(cov), text=text or sid)


# question: SUBJECT(voir, Kax), DIROBJ(voir, chef)
QUESTION = graph("q", [tok("voir", "VERB"), tok("Kax"), tok("chef")],
                 [dep("SUBJECT", 0, 1), dep("DIROBJ", 0, 2)])


def test_exhaustive_matching_counts_alternates_and_derivational_deps():
    sentence = graph("s", [tok("voir", "VERB"), tok("Kax"), tok("empereur", alternates={"chef"})],
                     [dep("SUBJECT", 0, 1), dep("DIROBJ", 0, 2)])
    assert checks.exhaustive_matching(QUESTION, sentence) == 2
    assert checks.exhaustive_matching(QUESTION, sentence, alternates=False) == 1
    derived = graph("d", [tok("voir", "VERB"), tok("Kax"), tok("chef")],
                    [dep("SUBJECT", 0, 1), dep("DIROBJ", 0, 2, provenance="DERIVATIONAL")])
    assert checks.exhaustive_matching(QUESTION, derived) == 2
    assert checks.exhaustive_matching(QUESTION, derived, derivational=False) == 1


def test_exhaustive_matching_is_one_to_one():
    # Two question deps can both only use the same sentence dep.
    question = graph("q", [tok("voir", "VERB"), tok("chef"), tok("chef")],
                     [dep("DIROBJ", 0, 1), dep("DIROBJ", 0, 2)])
    sentence = graph("s", [tok("voir", "VERB"), tok("chef")], [dep("DIROBJ", 0, 1)])
    assert checks.exhaustive_matching(question, sentence) == 1


def test_exhaustive_matching_finds_the_larger_pairing():
    # Greedy in question order would give q0 -> t0 and leave q1 unmatched.
    question = graph("q", [tok("voir", "VERB"), tok("chef"), tok("roi")],
                     [dep("DIROBJ", 0, 1), dep("DIROBJ", 0, 2)])
    sentence = graph("s", [tok("voir", "VERB"), tok("roi", alternates={"chef"}), tok("chef")],
                     [dep("DIROBJ", 0, 1), dep("DIROBJ", 0, 2)])
    assert checks.exhaustive_matching(question, sentence) == 2


def test_dependency_labels_and_prepositions_must_agree():
    question = graph("q", [tok("coupure"), tok("flux")], [dep("PREPPH", 0, 1, prep="de")])
    by_par = graph("s", [tok("coupure"), tok("flux")], [dep("PREPPH", 0, 1, prep="par")])
    unknown = graph("u", [tok("coupure"), tok("flux")], [dep("OTHER", 0, 1)])
    assert checks.exhaustive_matching(question, by_par) == 0
    assert checks.exhaustive_matching(graph("q2", question.tokens, [dep("OTHER", 0, 1)]),
                                      unknown) == 0


def _bank():
    return [
        graph("s1", [tok("voir", "VERB"), tok("Zed"), tok("chef")],
              [dep("SUBJECT", 0, 1), dep("DIROBJ", 0, 2)]),
        graph("s2", [tok("voir", "VERB"), tok("Kax"), tok("empereur", alternates={"chef"})],
              [dep("SUBJECT", 0, 1), dep("DIROBJ", 0, 2)]),
        graph("s3", [tok("voir", "VERB"), tok("Lu"), tok("chef")],
              [dep("SUBJECT", 0, 1), dep("DIROBJ", 0, 2)]),
        graph("s4", [tok("prendre", "VERB"), tok("Kax")], [dep("SUBJECT", 0, 1)]),
    ]


def test_ranking_orders_by_coverage_then_bank_order():
    ranking = checks.DepIndex(_bank()).ranking(QUESTION, 3)
    assert ranking == [("s2", 1), ("s1", Fraction(1, 2)), ("s3", Fraction(1, 2))]


def test_bag_ranking_counts_shared_significant_lemmas():
    bank = _bank()
    bank[0].tokens.append(tok("chefage", deriv_pattern="p", deriv_source="chef"))
    question = graph("q", [tok("voir", "VERB"), tok("Kax"), tok("le", "DET")], [])
    ranking = checks.BagIndex(bank).ranking(question, 2)
    assert ranking == [("s2", 1), ("s1", Fraction(1, 2))]


def test_check_answers_accepts_the_right_list_and_flags_others():
    bank = _bank()
    record = {"gold": "s2", "kind": "syn-noun"}
    right = [cand("s2", 1), cand("s1", Fraction(1, 2)), cand("s3", Fraction(1, 2))]
    assert checks.check_answers({"q": (record, QUESTION, right)}, bank, 3, False) == []
    swapped = [right[0], right[2], right[1]]
    assert checks.check_answers({"q": (record, QUESTION, swapped)}, bank, 3, False)
    wrong_cov = [cand("s2", Fraction(1, 2))] + right[1:]
    assert checks.check_answers({"q": (record, QUESTION, wrong_cov)}, bank, 3, False)
    other_gold = {"gold": "s1", "kind": "syn-noun"}
    assert checks.check_answers({"q": (other_gold, QUESTION, right)}, bank, 3, False)


def test_planted_kinds_need_their_mechanism():
    bank = _bank()
    syn = {"gold": "s2", "kind": "syn-noun"}
    assert checks.check_planted_kinds({"q": (syn, QUESTION, [])}, bank) == []
    literal_gold = {"gold": "s1", "kind": "syn-noun"}
    plain = graph("q", [tok("voir", "VERB"), tok("Zed"), tok("chef")],
                  [dep("SUBJECT", 0, 1), dep("DIROBJ", 0, 2)])
    assert checks.check_planted_kinds({"q": (literal_gold, plain, [])}, bank)


def test_cli_output_must_equal_the_in_process_answer():
    asked = {"q": ({}, QUESTION, [cand("s2", 1, "Kax vit l'empereur ."),
                                  cand("s1", Fraction(1, 2), "Zed vit le chef .")])}
    good = "1.\ts2\t1\tKax vit l'empereur .\n2.\ts1\t1/2\tZed vit le chef .\n"
    assert checks.check_cli({"q": good}, asked) == []
    assert checks.check_cli({"q": good.replace("1/2", "1")}, asked)
    assert checks.check_cli({"q": "no answer\n"}, asked)
    assert checks.check_cli({"q": "garbage"}, asked)
    assert checks.parse_cli_answer("no answer\n") == []


def _record(surface, pos, suffix, senses):
    return NS(surface=surface, target_pos=pos, suffix=suffix, licensed_senses=frozenset(senses))


def test_resource_must_equal_the_expected_set():
    expected = {"damorer": [["damorure", "NOUN", "ure", [1]]], "brasole": []}
    decoys = {"damorer": ["damorage"]}
    good = {"damorer": [_record("damorure", "NOUN", "ure", {1})]}
    assert checks.check_resource(good, expected, decoys) == []
    with_decoy = {"damorer": good["damorer"] + [_record("damorage", "NOUN", "age", {1})]}
    assert len(checks.check_resource(with_decoy, expected, decoys)) == 2
    assert checks.check_resource({}, expected, decoys)
    stray = dict(good, inconnu=[_record("inconnure", "NOUN", "ure", {1})])
    assert checks.check_resource(stray, expected, decoys)


def test_derivative_tokens_must_name_a_resource_record():
    resource = {"couper": [_record("coupure", "NOUN", "ure", {1})]}
    ok = graph("s", [tok("couper", "VERB"),
                     tok("coupure", deriv_pattern="v2n_ure_obj", deriv_source="couper")], [])
    assert checks.check_derivative_tokens([ok], resource) == []
    bad = graph("t", [tok("coupage", deriv_pattern="v2n_age_obj", deriv_source="couper")], [])
    assert checks.check_derivative_tokens([bad], resource)


def test_base_dependencies_must_survive_enrichment():
    parsed = graph("s", [tok("voir", "VERB"), tok("Kax")], [dep("SUBJECT", 0, 1)])
    kept = graph("s", parsed.tokens, [dep("SUBJECT", 0, 1), dep("ATTRIBUTE", 1, 0,
                                                                 provenance="DERIVATIONAL")])
    relabelled = graph("s", parsed.tokens, [dep("SUBJECT", 0, 1, provenance="SYNONYM")])
    assert checks.check_base_kept([parsed], [kept]) == []
    assert checks.check_base_kept([parsed], [relabelled])


def test_round_trip_compares_every_field():
    a = _bank()
    b = _bank()
    assert checks.check_roundtrip(a, b) == []
    b[1].tokens[2].alternates = set("chef")
    assert checks.check_roundtrip(a, b)
    assert checks.check_roundtrip(a, b[:3])


def test_generator_output_depends_on_the_seed_only(tmp_path):
    """Same seed, same files, whatever the interpreter's string hashing."""
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        subprocess.run([sys.executable, "-c",
                        f"import gen; gen.generate('lexicon-scale', 5, {str(out)!r})"],
                       cwd=HERE, env=dict(os.environ, PYTHONHASHSEED=hash_seed), check=True)
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1]

"""Seeded input generators for the benchmark workloads.

`generate(workload, seed, outdir)` writes a run configuration, the lexical
resources, a sentence file and a question file into `outdir`, and returns a
manifest (also written as `manifest.json`) holding what the checks need:
each question's gold sentence id and kind, and, for the synthetic lexicon,
the derivatives every synthetic lemma must and must not yield.

The program under test only ever sees the files named by `config.json`;
the manifest is the generator's own account, made without the program.
"""

import json
import random
import shutil
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixture"

# One round of a run makes `setups` set-ups, `passes` preprocess passes,
# `loads` loads of the bank file, `asks` asks in process and `cli` CLI asks.
# The bank is `chunks` x `chunk` sentences; one chunk is the unit of work of
# a preprocess pass.
WORKLOADS = {
    "qa-scan": dict(lexicon="fixture", mode="deriv", chunks=40, chunk=110,
                    questions=240, setups=5, passes=3, loads=1, asks=36, cli=2),
    "lexicon-scale": dict(lexicon="synthetic", mode="all", chunks=12, chunk=10,
                          questions=40, setups=1, passes=3, loads=10, asks=40, cli=1,
                          verbs=1000, nouns=600, noun_entries=500),
    "cli-bank": dict(lexicon="fixture", mode="baseline", chunks=40, chunk=200,
                     questions=120, setups=5, passes=3, loads=2, asks=30, cli=2),
}

# --- shared French helpers -------------------------------------------------

_VOWEL_START = tuple("aeiouyéèêàâîôûh")


def _elides(word):
    return word.startswith(_VOWEL_START)


def definite(noun, gender):
    if _elides(noun):
        return f"l'{noun}"
    return f"{'la' if gender == 'f' else 'le'} {noun}"


def indefinite(noun, gender):
    return f"{'une' if gender == 'f' else 'un'} {noun}"


def interrogative(noun, gender):
    return f"{'quelle' if gender == 'f' else 'quel'} {noun}"


def de_phrase(noun, gender):
    if _elides(noun):
        return f"de l'{noun}"
    return f"de la {noun}" if gender == "f" else f"du {noun}"


def a_phrase(noun, gender):
    if _elides(noun):
        return f"à l'{noun}"
    return f"à la {noun}" if gender == "f" else f"au {noun}"


class _Names:
    """Proper nouns used once each; every one holds a k or a w, letters
    that no word of either lexicon contains."""

    _HEADS = ("Ka", "Ko", "Ki", "Ku", "Wa", "Wo", "Ja", "Jo", "Xa", "Xi")
    _MIDS = ("ka", "ro", "wi", "lu", "ke", "mo", "ja", "ni", "ko", "su", "wa", "di")
    _TAILS = ("rk", "x", "n", "k", "l", "ros", "wen", "kar")

    def __init__(self, rng):
        self.rng = rng
        self.used = set()

    def fresh(self):
        while True:
            name = (self.rng.choice(self._HEADS) + self.rng.choice(self._MIDS)
                    + self.rng.choice(self._MIDS) + self.rng.choice(self._TAILS))
            if name not in self.used:
                self.used.add(name)
                return name


def _write_tsv(path, rows):
    Path(path).write_text("".join("\t".join(r) + "\n" for r in rows), encoding="utf-8")


# --- fixture vocabulary (the copy of tests/fixtures/benchmark in fixture/) --

_NOUNS_M = ("palais sénateur temple empereur courant ouvrier magistrat domestique "
            "linge repas mathématicien théorème sénat gladiateur lion consul jeu forum "
            "serpent soldat boucher roi marchand navire poète forgeron glaive pain "
            "empire vase livre chef flux royaume fauve spectacle serviteur monarque "
            "négociant vaisseau barde triomphe artisan coupon compartiment").split()
_NOUNS_F = ("ville cour théorie conduite foule viande maison victoire gloire fuite "
            "étoffe esplanade doctrine demeure épée interruption chair ferme").split()
_GENDER = {**{n: "m" for n in _NOUNS_M}, **{n: "f" for n in _NOUNS_F}}
_NOUNS = sorted(_GENDER)
_ADJS = ("rapide", "glissant", "coupant", "coupable", "lavable")
_VERBS_PS = ("visita construisit admira honora surveilla observa prépara prouva "
             "salua effraya mordit vendit chanta fabriqua acclama fêta répara apporta "
             "remplaça bâtit céda célébra façonna coupa lava balaya formalisa blessa "
             "organisa trancha nettoya gouverna").split()
_VERBS_PRES = ("coupe lave balaye formalise organise nettoie prend alimente blesse "
               "gouverne tranche").split()
_VERBS_PP = ("coupé", "lavé", "formalisé", "blessé", "tranché")
_COMMON_NAMES = ("Domitien", "Auguste", "Titus", "Néron", "Trajan", "Hadrien",
                 "Pierre", "Rome", "Gaule", "Marcus", "Livia", "Claudia")
_NOUN_SYN = {"empereur": "chef", "courant": "flux", "linge": "étoffe",
             "cour": "esplanade", "théorie": "doctrine", "empire": "royaume",
             "lion": "fauve", "jeu": "spectacle", "domestique": "serviteur",
             "roi": "monarque", "maison": "demeure", "marchand": "négociant",
             "navire": "vaisseau", "poète": "barde", "victoire": "triomphe",
             "forgeron": "artisan", "glaive": "épée", "viande": "chair"}
# gold-side verb (past simple) -> question-side synonym, with the case
# marker the gold verb takes before its object.
_VERB_SYN = {"construisit": ("bâtit", ""), "vendit": ("céda", ""),
             "chanta": ("célébra", ""), "fabriqua": ("façonna", ""),
             "trancha": ("coupa", ""), "succéda": ("remplaça", "à"),
             "lave": ("nettoie", "")}
# Agent nouns reached by v2n_eur_svo: gold verb phrase -> derivative.
_AGENT = {"succéda": "successeur", "gouverna": "gouverneur",
          "a coupé": "coupeur", "lava": "laveur"}
# Result nouns reached by the v2n_*_svo patterns: gold verb -> derivative.
_RESULT = {"a blessé": "blessure", "organisa": "organisation",
           "balaya": "balayage", "coupa": "coupure", "nettoya": "nettoyage",
           "lava": "lavage", "a coupé": "coupage"}


def _fixture_np(rng, adj_p=0.2):
    noun = rng.choice(_NOUNS)
    article = definite if rng.random() < 0.8 else indefinite
    text = article(noun, _GENDER[noun])
    if rng.random() < adj_p:
        text += " " + rng.choice(_ADJS)
    return text


def _fixture_subject(rng):
    return rng.choice(_COMMON_NAMES) if rng.random() < 0.25 else _fixture_np(rng)


def _fixture_object(rng):
    return rng.choice(_COMMON_NAMES) if rng.random() < 0.1 else _fixture_np(rng)


def _fixture_de(rng):
    noun = rng.choice(_NOUNS)
    return de_phrase(noun, _GENDER[noun])


def _fixture_filler(rng):
    subject = _fixture_subject(rng)
    shape = rng.random()
    if shape < 0.35:
        return f"{subject} {rng.choice(_VERBS_PS)} {_fixture_object(rng)} ."
    if shape < 0.55:
        return f"{subject} {rng.choice(_VERBS_PS)} {_fixture_np(rng, 0)} {_fixture_de(rng)} ."
    if shape < 0.68:
        return f"{subject} a {rng.choice(_VERBS_PP)} {_fixture_object(rng)} ."
    if shape < 0.82:
        return f"{subject} {rng.choice(_VERBS_PRES)} {_fixture_object(rng)} ."
    if shape < 0.92:
        noun = rng.choice(_NOUNS)
        return f"{subject} est {definite(noun, _GENDER[noun])} {_fixture_de(rng)} ."
    if shape < 0.97:
        noun = rng.choice(_NOUNS)
        return f"{subject} succéda {a_phrase(noun, _GENDER[noun])} ."
    return f"{subject} {rng.choice(('glisse', 'glissa'))} ."


def _fixture_planted(rng, kind, name):
    """(gold sentence, question) for one planted pair of the given kind."""
    if kind == "syn-noun":
        noun = rng.choice(sorted(_NOUN_SYN))
        verb = rng.choice(_VERBS_PS)
        syn = _NOUN_SYN[noun]
        return (f"{name} {verb} {definite(noun, _GENDER[noun])} .",
                f"{name} {verb} {interrogative(syn, _GENDER[syn])} ?")
    if kind == "syn-verb":
        verb = rng.choice(sorted(_VERB_SYN))
        syn, marker = _VERB_SYN[verb]
        noun = rng.choice(_NOUNS)
        obj = a_phrase(noun, _GENDER[noun]) if marker else definite(noun, _GENDER[noun])
        return (f"{name} {verb} {obj} .",
                f"{name} {syn} {interrogative(noun, _GENDER[noun])} ?")
    if kind == "deriv-agent":
        verb = rng.choice(sorted(_AGENT))
        noun = rng.choice(_NOUNS)
        gender = _GENDER[noun]
        obj = a_phrase(noun, gender) if verb == "succéda" else definite(noun, gender)
        fronted = "De quelle" if gender == "f" else "De quel"
        return (f"{name} {verb} {obj} .",
                f"{fronted} {noun} {name} est-il le {_AGENT[verb]} ?")
    if kind == "deriv-result":
        verb = rng.choice(sorted(_RESULT))
        deriv = _RESULT[verb]
        gender = "f" if deriv.endswith(("ure", "tion")) else "m"
        agent = rng.choice(_NOUNS)
        return (f"{definite(agent, _GENDER[agent])} {verb} {name} .",
                f"{interrogative(deriv, gender)} de {name} par "
                f"{definite(agent, _GENDER[agent])} ?")
    if kind == "literal-subject":
        noun = rng.choice(_NOUNS)
        verb = rng.choice(_VERBS_PS)
        return (f"{name} {verb} {definite(noun, _GENDER[noun])} .",
                f"{name} {verb} {interrogative(noun, _GENDER[noun])} ?")
    if kind == "literal-object":
        noun = rng.choice(_NOUNS)
        verb = rng.choice(_VERBS_PS)
        return (f"{definite(noun, _GENDER[noun])} {verb} {name} .",
                f"{interrogative(noun, _GENDER[noun])} {verb} {name} ?")
    raise ValueError(kind)


# Question kinds, in the fixed order asks cycle through. A synonym kind can
# only be answered through an alternate, a derivation kind only through a
# DERIVATIONAL dependency, a literal kind by plain lemma overlap. Every
# structural question has two dependencies, so that ask latency has one mode.
STRUCTURAL_KINDS = ("syn-noun", "deriv-agent", "syn-verb", "deriv-result")
LITERAL_KINDS = ("literal-subject", "literal-object")


def _fixture_workload(spec, rng, outdir):
    for name in ("dictionary", "inflections", "corpus_lexicon", "synonyms", "euphonics"):
        shutil.copyfile(FIXTURE / f"{name}.tsv", outdir / f"{name}.tsv")
    kinds = LITERAL_KINDS if spec["mode"] == "baseline" else STRUCTURAL_KINDS
    names = _Names(rng)
    planted = []
    for i in range(spec["questions"]):
        kind = kinds[i % len(kinds)]
        gold, question = _fixture_planted(rng, kind, names.fresh())
        planted.append((kind, gold, question))
    fillers = [_fixture_filler(rng)
               for _ in range(spec["chunks"] * spec["chunk"] - len(planted))]
    config = {"euphonics": "euphonics.tsv", "suffix_threshold": 2, "min_stem_len": 3,
              "max_stems_per_lemma": 2, "min_syllables": 2, "symmetrize": True}
    return planted, fillers, config, {}


# --- synthetic lexicon -------------------------------------------------------

_CONS = "bcdfglmnprstvz"
_VOWS = "aiou"
_CLUSTER = "lr"
_FINITE_FORMS = (("a", "V:ps:3s"), ("e", "V:pres:3s"), ("é", "V:pp:m:s"), ("er", "V:inf"))
# code letter -> (suffix, part of speech of the derivative, gender)
_CODES = {"U": ("ure", "NOUN", "f"), "E": ("eur", "NOUN", "m"), "G": ("age", "NOUN", "m"),
          "B": ("ation", "NOUN", "f"), "A": ("ant", "ADJ", None),
          "L": ("able", "ADJ", None), "Q": ("é", "ADJ", None)}
# Letters whose suffix some derivation pattern uses (-able has none).
_PATTERN_LETTERS = ["A", "B", "E", "G", "Q", "U"]
# Suffixes whose noun, as a dictionary entry, gets a back-instruction to its
# verb under symmetrize: noun and verb share exactly the stem, so the verb
# ending left over is "er", a learned suffix.
_BACK_SUFFIXES = ("ure", "age", "ation")
_DOMAINS = ("GEN", "TEC", "MED", "JUR")


def _synthetic_lexicon(spec, rng):
    stems = set()
    while len(stems) < spec["verbs"]:
        stems.add(rng.choice(_CONS) + rng.choice(_VOWS) + rng.choice(_CONS)
                  + rng.choice(_VOWS) + rng.choice(_CONS))
    stems = sorted(stems)
    rng.shuffle(stems)
    nouns = set()
    while len(nouns) < spec["nouns"]:
        nouns.add(rng.choice(_CONS) + rng.choice(_CLUSTER) + rng.choice(_VOWS)
                  + rng.choice(_CONS) + rng.choice(_VOWS) + rng.choice(_CONS) + "e")
    nouns = sorted(nouns)
    rng.shuffle(nouns)

    inflections = [(n, n, "N:f:s") for n in nouns]
    corpus = {n: rng.randint(1, 90) for n in nouns}
    dictionary = [(n, 1, "NOUN", "GEN", "", "", "", "") for n in nouns]
    verbs = []
    for i, stem in enumerate(stems):
        lemma = stem + "er"
        for ending, tags in _FINITE_FORMS:
            inflections.append((stem + ending, lemma, tags))
        for letter, (suffix, pos, gender) in _CODES.items():
            tags = f"N:{gender}:s" if pos == "NOUN" else "ADJ:m:s"
            inflections.append((stem + suffix, stem + suffix, tags))
        # Every fifth verb has two senses. Each sense licenses three code
        # letters, the first sense three of the six that some pattern uses;
        # the corpus attests two of the first sense's three and two of the
        # other four, so every verb has the same number of expected
        # derivatives and of decoys of each sort, whatever the seed.
        senses = []
        for k in range(1, 3 if i % 5 == 0 else 2):
            pool = _PATTERN_LETTERS if k == 1 else sorted(_CODES)
            letters = "".join(sorted(rng.sample(pool, 3)))
            context = (rng.choice(nouns), rng.choice(nouns))
            domain = rng.choice(_DOMAINS[:2] if k == 1 else _DOMAINS[2:])
            senses.append(dict(id=k, domain=domain, letters=letters, context=context))
        first = senses[0]["letters"]
        others = sorted(set(_CODES) - set(first))
        attested = {_CODES[letter][0]
                    for letter in rng.sample(sorted(first), 2) + rng.sample(others, 2)}
        for suffix in sorted(attested):
            corpus[stem + suffix] = rng.randint(1, 90)
        verbs.append(dict(stem=stem, lemma=lemma, senses=senses, attested=attested))
        for sense in senses:
            subject, obj = sense["context"]
            example = f"la {subject} {stem}e la {obj} ."
            dictionary.append((lemma, sense["id"], "VERB", sense["domain"], example,
                               "1", "T", "-" + "-".join(sense["letters"]) + "-"))

    # The corpus attests the infinitive of exactly half of the verbs.
    for verb in rng.sample(verbs, len(verbs) // 2):
        corpus[verb["lemma"]] = rng.randint(1, 90)

    # Expected records, decoys, and derived-noun entries for symmetrize.
    expected, decoys = {}, {}
    back = []
    for verb in verbs:
        stem, lemma = verb["stem"], verb["lemma"]
        records = []
        for letter, (suffix, pos, _) in sorted(_CODES.items()):
            licensed = sorted(s["id"] for s in verb["senses"] if letter in s["letters"])
            surface = stem + suffix
            if licensed and suffix in verb["attested"]:
                records.append([surface, pos, suffix, licensed])
                if suffix in _BACK_SUFFIXES:
                    back.append((verb, letter, surface))
            elif licensed or suffix in verb["attested"]:
                decoys.setdefault(lemma, []).append(surface)
        expected[lemma] = sorted(records)
    # A fixed number of the expected -ure/-age/-ation nouns get a dictionary
    # entry, four in five of them in the domain of a licensing sense (they
    # get the back-instruction), the rest in another domain (the verb is a
    # decoy). Fixed counts keep the dictionary the same size for every seed:
    # the bank build allocates a sense index per call, and the collector's
    # share of its time shifts with the dictionary's size.
    entries = rng.sample(back, spec["noun_entries"])
    same = set(rng.sample(range(len(entries)), len(entries) * 4 // 5))
    for n, (verb, letter, surface) in enumerate(entries):
        lemma = verb["lemma"]
        licensing = [s for s in verb["senses"] if letter in s["letters"]]
        domain = rng.choice(licensing)["domain"]
        if n not in same:
            domain = next(d for d in _DOMAINS
                          if d not in {s["domain"] for s in licensing})
        dictionary.append((surface, 1, "NOUN", domain, "", "", "", "- -"))
        if n in same and lemma in corpus:
            expected[surface] = [[lemma, "VERB", "er", [1]]]
        else:
            expected.setdefault(surface, [])
            decoys.setdefault(surface, []).append(lemma)
    for noun in nouns:
        expected[noun] = []

    noun_syn = {}
    for a, b in zip(nouns[: spec["nouns"] // 4], nouns[spec["nouns"] // 4: spec["nouns"] // 2]):
        noun_syn[a] = b
    verb_syn = {}
    half = spec["verbs"] // 10
    for a, b in zip(verbs[:half], verbs[half: 2 * half]):
        verb_syn[a["lemma"]] = b
    synonyms = [(a, "*", b) for a, b in sorted(noun_syn.items())]
    synonyms += [(a, "*", b["lemma"]) for a, b in sorted(verb_syn.items())]
    return dict(nouns=nouns, verbs=verbs, inflections=inflections, corpus=corpus,
                dictionary=dictionary, synonyms=synonyms, noun_syn=noun_syn,
                verb_syn=verb_syn, expected=expected, decoys=decoys)


def _synthetic_workload(spec, rng, outdir):
    lex = _synthetic_lexicon(spec, rng)
    dict_rows = []
    for lemma, sense, pos, domain, example, conj, constr, codes in lex["dictionary"]:
        dict_rows.append((lemma, str(sense), pos, domain, "2", "op", f"sens {sense} de {lemma}",
                          example, conj, constr, codes or "- -", "1"))
    _write_tsv(outdir / "dictionary.tsv", dict_rows)
    _write_tsv(outdir / "inflections.tsv", lex["inflections"])
    _write_tsv(outdir / "corpus_lexicon.tsv",
               [(form, str(n)) for form, n in sorted(lex["corpus"].items())])
    _write_tsv(outdir / "synonyms.tsv", lex["synonyms"])

    nouns, verbs = lex["nouns"], lex["verbs"]
    by_lemma = {v["lemma"]: v for v in verbs}
    expected = lex["expected"]
    monosemous = [v for v in verbs if len(v["senses"]) == 1]

    def has(verb, suffix):
        return any(r[2] == suffix for r in expected[verb["lemma"]])

    agents = [v for v in monosemous if has(v, "eur")]
    results = [(v, s) for v in monosemous for s in _BACK_SUFFIXES if has(v, s)]
    names = _Names(rng)
    planted = []
    for i in range(spec["questions"]):
        kind = STRUCTURAL_KINDS[i % len(STRUCTURAL_KINDS)]
        name = names.fresh()
        if kind == "syn-noun":
            noun = rng.choice(sorted(lex["noun_syn"]))
            stem = rng.choice(verbs)["stem"]
            gold = f"{name} {stem}a la {noun} ."
            question = f"{name} {stem}a quelle {lex['noun_syn'][noun]} ?"
        elif kind == "syn-verb":
            lemma = rng.choice(sorted(lex["verb_syn"]))
            noun = rng.choice(nouns)
            gold = f"{name} {by_lemma[lemma]['stem']}a la {noun} ."
            question = f"{name} {lex['verb_syn'][lemma]['stem']}a quelle {noun} ?"
        elif kind == "deriv-agent":
            stem = rng.choice(agents)["stem"]
            noun = rng.choice(nouns)
            gold = f"{name} {stem}a la {noun} ."
            question = f"De quelle {noun} {name} est-il le {stem}eur ?"
        else:
            verb, suffix = rng.choice(results)
            gender = "f" if suffix in ("ure", "ation") else "m"
            agent = rng.choice(nouns)
            gold = f"la {agent} {verb['stem']}a {name} ."
            question = (f"{interrogative(verb['stem'] + suffix, gender)} de {name} "
                        f"par la {agent} ?")
        planted.append((kind, gold, question))

    # Filler shapes follow a fixed cycle of 20, so every bank has the same mix.
    polysemous = [v for v in verbs if len(v["senses"]) > 1]
    fillers = []
    for i in range(spec["chunks"] * spec["chunk"] - len(planted)):
        shape = i % 20
        stem = rng.choice(verbs)["stem"]
        subject, obj = rng.choice(nouns), rng.choice(nouns)
        if shape < 6:
            fillers.append(f"la {subject} {stem}a la {obj} .")
        elif shape < 10:
            fillers.append(f"la {subject} {stem}a la {obj} de la {rng.choice(nouns)} .")
        elif shape < 13:
            fillers.append(f"la {subject} a {stem}é la {obj} .")
        elif shape < 18:
            verb = rng.choice(polysemous)
            first, second = rng.choice(verb["senses"])["context"]
            fillers.append(f"la {first} {verb['stem']}e la {second} .")
        else:
            fillers.append(f"{rng.choice(_COMMON_NAMES)} {stem}a la {obj} .")
    config = {"suffix_threshold": 2, "min_stem_len": 3, "max_stems_per_lemma": 2,
              "min_syllables": 2, "symmetrize": True}
    return planted, fillers, config, {"expected": expected, "decoys": lex["decoys"]}


# --- entry point -------------------------------------------------------------

def generate(workload: str, seed: int, outdir) -> dict:
    """Write every input of one workload run into `outdir`; return the manifest."""
    spec = WORKLOADS[workload]
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    make = _fixture_workload if spec["lexicon"] == "fixture" else _synthetic_workload
    planted, fillers, config, extra = make(spec, rng, outdir)

    # Planted gold sentences are spread evenly through the bank, so every
    # chunk holds the same share of them.
    total = spec["chunks"] * spec["chunk"]
    stride = total // len(planted)
    texts = list(fillers)
    rng.shuffle(texts)
    gold_slots = {i * stride + rng.randrange(stride): i for i in range(len(planted))}
    sentences, questions = [], []
    filler_iter = iter(texts)
    for slot in range(total):
        sid = f"g{slot:05d}"
        if slot in gold_slots:
            kind, gold, question = planted[gold_slots[slot]]
            sentences.append((sid, gold))
            questions.append(dict(id=f"q{gold_slots[slot]:04d}", text=question,
                                  gold=sid, kind=kind))
        else:
            sentences.append((sid, next(filler_iter)))
    questions.sort(key=lambda q: q["id"])
    _write_tsv(outdir / "sentences.tsv", sentences)
    _write_tsv(outdir / "questions.tsv", [(q["id"], q["text"], q["gold"]) for q in questions])
    config.update({"dictionary": "dictionary.tsv", "inflections": "inflections.tsv",
                   "corpus_lexicon": "corpus_lexicon.tsv", "synonyms": "synonyms.tsv",
                   "sentences": "sentences.tsv", "questions": "questions.tsv",
                   "k": 5, "mode": spec["mode"]})
    (outdir / "config.json").write_text(json.dumps(config, indent=1), encoding="utf-8")
    manifest = dict(workload=workload, seed=seed, mode=spec["mode"],
                    chunk=spec["chunk"], chunks=spec["chunks"],
                    sentences=[list(s) for s in sentences], questions=questions, **extra)
    (outdir / "manifest.json").write_text(json.dumps(manifest, ensure_ascii=False),
                                          encoding="utf-8")
    return manifest

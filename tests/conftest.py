import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).parent
FIXTURES = TESTS_DIR / "fixtures"

# Make tests/oracles.py importable from every test module.
sys.path.insert(0, str(TESTS_DIR))

from derivqa import lexica, morphogen, pipeline, qaengine  # noqa: E402
from derivqa.depgraph import Dependency, DependencyGraph, TokenNode  # noqa: E402


@pytest.fixture(scope="session")
def benchmark_config():
    return pipeline.load_config(FIXTURES / "benchmark" / "config.json")


@pytest.fixture(scope="session")
def benchmark_resources(benchmark_config):
    return pipeline.load_resources(benchmark_config)


def filter_inputs(config):
    """The corpus lexicon and euphonic rules a config names, loaded as
    `pipeline.load_resources` loads them to build the resource."""
    return (lexica.load_corpus_lexicon(config.corpus_lexicon),
            morphogen.load_euphonic_rules(pipeline._resource_path(config, "euphonics")))


@pytest.fixture(scope="session")
def benchmark_filter_inputs(benchmark_config):
    return filter_inputs(benchmark_config)


@pytest.fixture(scope="session")
def benchmark_questions(benchmark_config, benchmark_resources):
    rows = qaengine.load_questions(benchmark_config.questions)
    return pipeline.parse_questions(benchmark_resources, rows)


@pytest.fixture(scope="session")
def couper_family_config():
    return pipeline.load_config(FIXTURES / "couper_family" / "config.json")


@pytest.fixture(scope="session")
def couper_family_resources(couper_family_config):
    return pipeline.load_resources(couper_family_config)


@pytest.fixture(scope="session")
def couper_family_filter_inputs(couper_family_config):
    return filter_inputs(couper_family_config)


def make_graph(sentence_id, tokens, deps=(), text=""):
    """Build a graph from (lemma, pos) pairs and (label, head, dep[, prep]) tuples."""
    token_nodes = [
        TokenNode(index=i, surface=lemma, lemma=lemma, pos=pos)
        for i, (lemma, pos) in enumerate(tokens)
    ]
    graph = DependencyGraph(sentence_id, text or sentence_id, token_nodes)
    for dep in deps:
        label, head, dependent = dep[0], dep[1], dep[2]
        prep = dep[3] if len(dep) > 3 else None
        graph.add_dep(Dependency(label, (head, dependent), prep=prep))
    return graph

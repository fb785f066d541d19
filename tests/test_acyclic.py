"""The package builds no reference cycles, so `cli.main` runs a command with
the cyclic garbage collector off (README "Command line").

With the collector off, each library path a command takes leaves nothing
for `gc.collect()` to free over the benchmark fixture. The warm-up call
fills what is built once per process, such as compiled regular expressions.
A nested function that refers to itself is a new cycle on every call, so
none may do so."""

import ast
import gc
from pathlib import Path

import pytest

from derivqa import depgraph, pipeline, qaengine
from derivqa.depgraph import DependencyBank

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "derivqa"

PATHS = [
    "load_resources", "load_question_resources",
    *(f"build_bank[{mode}]" for mode in pipeline.MODES),
    "load_depbank", "parse_questions", "evaluate[baseline]", "evaluate[all]",
]


@pytest.fixture(scope="module")
def library_paths(benchmark_config, benchmark_resources, tmp_path_factory):
    res = benchmark_resources
    rows = qaengine.load_questions(benchmark_config.questions)
    questions = pipeline.parse_questions(res, rows)
    bank_path = tmp_path_factory.mktemp("acyclic") / "bank.jsonl"
    depgraph.save_depbank(pipeline.build_bank(res, benchmark_config.mode), bank_path)
    banks = {mode: pipeline.build_bank(res, mode) for mode in ("baseline", "all")}

    def evaluate(mode):
        # a new bank, so the call builds the bank's indexes too
        return qaengine.evaluate(questions, DependencyBank(banks[mode]), mode,
                                 k=benchmark_config.k)

    return {
        "load_resources": lambda: pipeline.load_resources(benchmark_config),
        "load_question_resources": lambda: pipeline.load_question_resources(benchmark_config),
        **{f"build_bank[{mode}]": lambda mode=mode: pipeline.build_bank(res, mode)
           for mode in pipeline.MODES},
        "load_depbank": lambda: depgraph.load_depbank(bank_path),
        "parse_questions": lambda: pipeline.parse_questions(res, rows),
        "evaluate[baseline]": lambda: evaluate("baseline"),
        "evaluate[all]": lambda: evaluate("all"),
    }


@pytest.fixture
def collector_off():
    collecting = gc.isenabled()
    gc.disable()
    yield
    if collecting:
        gc.enable()


@pytest.mark.parametrize("name", PATHS)
def test_library_path_leaves_no_cyclic_garbage(library_paths, collector_off, name):
    run = library_paths[name]
    run()
    gc.collect()
    run()
    assert gc.collect() == 0


def _nested_functions(tree):
    for outer in ast.walk(tree):
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(outer):
                if node is not outer and isinstance(node, (ast.FunctionDef,
                                                           ast.AsyncFunctionDef)):
                    yield node


def test_no_nested_function_refers_to_itself():
    self_referring = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for function in _nested_functions(ast.parse(path.read_text(encoding="utf-8"))):
            if any(isinstance(node, ast.Name) and node.id == function.name
                   for statement in function.body for node in ast.walk(statement)):
                self_referring.add(f"{path.name}: {function.name}")
    assert sorted(self_referring) == []

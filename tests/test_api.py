"""Tests for the session-oriented public API (:mod:`repro.api`).

The acceptance-critical properties:

* a ``Dataset`` builds each artifact of the graph → matrix → signature
  table chain exactly once, however many session calls run against it;
* repeated ``refine``/``sweep`` calls reuse cached signature/sweep state —
  asserted via the searches' probe counters and the session's solver-call
  counter;
* the solver registry round-trips both built-in backends and rejects
  unknown names.
"""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import (
    Dataset,
    EvaluateRequest,
    LowestKRequest,
    RefineRequest,
    SweepRequest,
    builtin_dataset_names,
    parse_theta,
    resolve_rule,
)
from repro.exceptions import DatasetError, ILPError, RequestError
from repro.ilp import (
    BranchAndBoundSolver,
    ScipyMilpSolver,
    get_solver,
    register_solver,
    resolve_solver,
    solver_names,
    unregister_solver,
)
from repro.matrix.signatures import SignatureTable
from repro.rules import coverage as coverage_rule


def assert_solver_call_count(actual: int, expected: int) -> None:
    """Session solver calls equal the search's solver probes, exactly.

    Every probe the search makes is one it consumes, so the session's
    counting solver can neither miss a call nor record a wasted one.
    """
    assert actual == expected, (
        f"solver_calls ({actual}) != n_solver_probes ({expected}): the session "
        "lost track of solver invocations"
    )

NTRIPLES = """
<http://ex/a> <http://ex/p> "1" .
<http://ex/a> <http://ex/q> "2" .
<http://ex/b> <http://ex/p> "3" .
<http://ex/c> <http://ex/p> "4" .
<http://ex/c> <http://ex/q> "5" .
<http://ex/c> <http://ex/r> "6" .
"""


class TestDataset:
    def test_from_ntriples_text_builds_chain_lazily(self):
        dataset = Dataset.from_ntriples_text(NTRIPLES, name="api test")
        untouched = {
            "mutations": 0, "matrix_patches": 0, "table_patches": 0, "patch_failures": 0,
            "graph_from_snapshot": 0, "matrix_from_snapshot": 0, "table_from_snapshot": 0,
        }
        assert dataset.stats == {
            "graph_builds": 0, "matrix_builds": 0, "table_builds": 0, **untouched,
        }
        table = dataset.table
        assert table.n_subjects == 3
        assert dataset.stats == {
            "graph_builds": 1, "matrix_builds": 1, "table_builds": 1, **untouched,
        }
        # Every stage is cached: repeated access builds nothing.
        assert dataset.table is table
        assert dataset.graph is dataset.graph
        assert dataset.matrix is dataset.matrix
        assert dataset.stats == {
            "graph_builds": 1, "matrix_builds": 1, "table_builds": 1, **untouched,
        }

    def test_from_table_has_no_graph(self, toy_persons_table):
        dataset = Dataset.from_table(toy_persons_table)
        assert dataset.table is toy_persons_table
        with pytest.raises(DatasetError):
            dataset.graph
        with pytest.raises(DatasetError):
            dataset.matrix

    def test_builtin_roundtrip_and_unknown(self):
        assert {"dbpedia-persons", "wordnet-nouns"} <= set(builtin_dataset_names())
        dataset = Dataset.builtin("dbpedia-persons", n_subjects=500)
        # Generation is deferred and counted like every other stage.
        assert dataset.stats["table_builds"] == 0
        assert dataset.table.n_subjects == 500
        assert dataset.stats["table_builds"] == 1
        assert "Persons" in dataset.name  # the artifact's display name wins
        assert dataset.table is dataset.table
        assert dataset.stats["table_builds"] == 1
        with pytest.raises(DatasetError, match="unknown built-in dataset"):
            Dataset.builtin("no-such-dataset")

    def test_folded_caps_signatures(self):
        dataset = Dataset.builtin("dbpedia-persons", n_subjects=2000)
        folded = dataset.folded(8)
        assert folded.table.n_signatures <= 8
        assert folded.table.n_subjects == dataset.table.n_subjects

    def test_info_is_serialisable(self, toy_persons_table):
        info = Dataset.from_table(toy_persons_table).info
        payload = json.loads(info.to_json())
        assert payload["n_subjects"] == toy_persons_table.n_subjects

    def test_free_functions_accept_dataset_handles(self, toy_persons_table):
        from repro.functions import coverage

        dataset = Dataset.from_table(toy_persons_table)
        assert coverage(dataset) == pytest.approx(coverage(toy_persons_table))


class TestSessionCaching:
    def test_second_refine_does_zero_redundant_table_builds(self, monkeypatch):
        builds = {"matrix": 0, "graph": 0}
        original_from_matrix = SignatureTable.from_matrix.__func__
        original_from_graph = SignatureTable.from_graph.__func__

        def counting_from_matrix(cls, *args, **kwargs):
            builds["matrix"] += 1
            return original_from_matrix(cls, *args, **kwargs)

        def counting_from_graph(cls, *args, **kwargs):
            builds["graph"] += 1
            return original_from_graph(cls, *args, **kwargs)

        monkeypatch.setattr(SignatureTable, "from_matrix", classmethod(counting_from_matrix))
        monkeypatch.setattr(SignatureTable, "from_graph", classmethod(counting_from_graph))

        dataset = Dataset.from_ntriples_text(NTRIPLES, name="builds")
        session = dataset.session()
        session.refine("Cov", k=2, step=0.25)
        assert builds["matrix"] + builds["graph"] == 1
        assert dataset.stats["table_builds"] == 1
        session.refine("Cov", k=3, step=0.25)
        session.lowest_k("Cov", theta="1/2")
        # The signature table was built exactly once for the whole session.
        assert builds["matrix"] + builds["graph"] == 1
        assert dataset.stats["table_builds"] == 1

    def test_repeated_refine_hits_result_cache_without_solver_calls(self, toy_persons_table):
        session = Dataset.from_table(toy_persons_table).session()
        first = session.refine("Cov", k=2, step=0.05)
        solver_calls = session.stats["solver_calls"]
        assert first.n_solver_probes > 0
        assert_solver_call_count(solver_calls, first.n_solver_probes)
        second = session.refine("Cov", k=2, step=0.05)
        assert second.cached and not first.cached
        assert second.theta == first.theta and second.k == first.k
        assert session.stats["solver_calls"] == solver_calls  # zero new solves
        assert session.stats["result_cache_hits"] == 1

    def test_repeated_sweep_reuses_cached_state(self, toy_persons_table):
        session = Dataset.from_table(toy_persons_table).session()
        sweep = session.sweep("Cov", k_values=(2, 3), step=0.1)
        assert len(sweep.entries) == 2
        # k counts the *achieved* non-empty sorts (<= the requested k), and
        # allowing more sorts can only raise the achievable theta.
        assert all(entry.k <= requested for entry, requested in zip(sweep.entries, (2, 3)))
        assert sweep.entries[1].theta >= sweep.entries[0].theta - 1e-9
        solver_calls = session.stats["solver_calls"]
        assert_solver_call_count(solver_calls, sum(e.n_solver_probes for e in sweep.entries))
        again = session.sweep("Cov", k_values=(2, 3), step=0.1)
        assert all(entry.cached for entry in again.entries)
        assert session.stats["solver_calls"] == solver_calls
        assert again.thetas == sweep.thetas

    def test_sweep_shares_one_encoder_across_k_values(self, toy_persons_table):
        session = Dataset.from_table(toy_persons_table).session()
        session.sweep("Cov", k_values=(2, 3), step=0.1)
        session.refine("Cov", k=4, step=0.1)
        # One encoder per rule, shared by sweeps and refines alike...
        assert len(session._encoders) == 1
        encoder = session.encoder_for("Cov")
        # ...and its per-table case coefficients were computed once and cached.
        assert encoder.compute_cases(toy_persons_table) is encoder.compute_cases(
            toy_persons_table
        )

    def test_result_cache_is_bounded_lru(self, toy_persons_table):
        session = Dataset.from_table(toy_persons_table).session(max_cached_results=2)
        session.evaluate("Cov")
        session.evaluate("Sim")
        session.evaluate("Cov")  # refresh Cov so Sim is the LRU entry
        # A rule distinct from Cov/Sim (same text would share their key).
        session.evaluate("c = c and prop(c) != <http://x/p> -> val(c) = 1")  # evicts Sim
        assert len(session._results) == 2
        hits = session.stats["result_cache_hits"]
        session.evaluate("Cov")
        assert session.stats["result_cache_hits"] == hits + 1
        session.evaluate("Sim")  # was evicted: recomputed, not a hit
        assert session.stats["result_cache_hits"] == hits + 1
        session.clear_cache()
        assert len(session._results) == 0

    def test_cache_disabled_sessions_resolve_every_call(self, toy_persons_table):
        session = Dataset.from_table(toy_persons_table).session(cache_results=False)
        first = session.refine("Cov", k=2, step=0.1)
        second = session.refine("Cov", k=2, step=0.1)
        assert not first.cached and not second.cached
        assert session.stats["result_cache_hits"] == 0

    def test_evaluate_matches_free_function(self, toy_persons_table):
        from repro.functions import coverage

        session = Dataset.from_table(toy_persons_table).session()
        result = session.evaluate("Cov")
        assert result.value == pytest.approx(coverage(toy_persons_table))
        exact = session.evaluate(EvaluateRequest(rule="Cov", exact=True))
        numerator, denominator = map(int, exact.exact.split("/"))
        assert numerator / denominator == pytest.approx(result.value)

    def test_dependency_queries(self, toy_persons_table):
        from repro.functions import dependency, symmetric_dependency
        from repro.rdf.namespaces import EX

        session = Dataset.from_table(toy_persons_table).session()
        dep = session.dependency(EX.birthDate, EX.deathDate)
        assert dep.value == pytest.approx(dependency(toy_persons_table, EX.birthDate, EX.deathDate))
        sym = session.dependency(EX.birthDate, EX.deathDate, symmetric=True)
        assert sym.value == pytest.approx(
            symmetric_dependency(toy_persons_table, EX.birthDate, EX.deathDate)
        )


class TestThreadSafety:
    """The PR 2 "zero redundant builds" guarantees, under concurrency."""

    def test_threaded_access_builds_each_stage_once(self, monkeypatch):
        """16 threads racing the lazy chain trigger exactly one build each."""
        builds = {"matrix": 0, "graph": 0}
        original_from_matrix = SignatureTable.from_matrix.__func__

        def counting_from_matrix(cls, *args, **kwargs):
            builds["matrix"] += 1
            return original_from_matrix(cls, *args, **kwargs)

        monkeypatch.setattr(SignatureTable, "from_matrix", classmethod(counting_from_matrix))

        dataset = Dataset.from_ntriples_text(NTRIPLES, name="threaded builds")
        barrier = threading.Barrier(16)

        def build():
            barrier.wait()
            return dataset.table

        with ThreadPoolExecutor(max_workers=16) as pool:
            tables = list(pool.map(lambda _: build(), range(16)))
        assert all(table is tables[0] for table in tables)
        assert builds["matrix"] == 1
        assert dataset.stats == {
            "graph_builds": 1, "matrix_builds": 1, "table_builds": 1,
            "mutations": 0, "matrix_patches": 0, "table_patches": 0, "patch_failures": 0,
            "graph_from_snapshot": 0, "matrix_from_snapshot": 0, "table_from_snapshot": 0,
        }

    def test_threaded_identical_refines_solve_once(self, toy_persons_table):
        """Concurrent identical requests: one search, the rest cache hits."""
        session = Dataset.from_table(toy_persons_table).session()
        barrier = threading.Barrier(8)

        def refine(_):
            barrier.wait()
            return session.refine("Cov", k=2, step=0.1)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(refine, range(8)))
        thetas = {result.theta for result in results}
        assert len(thetas) == 1
        # Exactly one caller ran the search; everyone else was served from
        # the result cache without touching the solver.
        fresh = [result for result in results if not result.cached]
        assert len(fresh) == 1
        assert_solver_call_count(session.stats["solver_calls"], fresh[0].n_solver_probes)
        assert session.stats["result_cache_hits"] == 7
        assert session.stats["requests"] == 8

    def test_threaded_mixed_queries_match_sequential_answers(self, toy_persons_table):
        session = Dataset.from_table(toy_persons_table).session()
        reference = Dataset.from_table(toy_persons_table).session()
        expected = {
            "evaluate": reference.evaluate("Cov").value,
            "refine": reference.refine("Cov", k=2, step=0.25).theta,
            "lowest_k": reference.lowest_k("Cov", theta="1/2").k,
        }

        def run(kind):
            if kind == "evaluate":
                return session.evaluate("Cov").value
            if kind == "refine":
                return session.refine("Cov", k=2, step=0.25).theta
            return session.lowest_k("Cov", theta="1/2").k

        kinds = ["evaluate", "refine", "lowest_k"] * 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: lost updates would show
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                results = list(pool.map(run, kinds))
        finally:
            sys.setswitchinterval(interval)
        for kind, value in zip(kinds, results):
            assert value == expected[kind]
        # Concurrent increments of the session's counters lose nothing.
        assert session.stats["requests"] == len(kinds)

    def test_describe_reports_binding_and_counters(self, toy_persons_table):
        session = Dataset.from_table(toy_persons_table).session(solver="branch-and-bound")
        session.evaluate("Cov")
        description = session.describe()
        assert description["solver_spec"] == "branch-and-bound"
        assert description["solver"] == "branch-and-bound"
        assert description["stats"] == {
            "requests": 1,
            "solver_calls": 0,
            "result_cache_hits": 0,
            "cache_invalidations": 0,
        }
        assert json.loads(json.dumps(description)) == description
        # Every stats payload is a copy: writing to it changes no counter.
        description["stats"]["requests"] = 99
        session.stats["requests"] = 99
        session.dataset.stats["table_builds"] = 99
        assert session.stats["requests"] == 1
        assert session.dataset.stats["table_builds"] == 0


class TestSessionResults:
    def test_refinement_result_serialises(self, toy_persons_table):
        session = Dataset.from_table(toy_persons_table).session()
        result = session.refine("Cov", k=2, step=0.1)
        payload = json.loads(result.to_json())
        assert payload["kind"] == "highest_theta"
        assert payload["k"] == 2
        assert len(payload["sorts"]) == result.refinement.k
        assert payload["n_probes"] == result.n_probes
        # The rich artifacts stay available but out of the JSON payload.
        assert "refinement" not in payload and "search" not in payload
        assert result.refinement.k == 2

    def test_lowest_k_result(self, toy_persons_table):
        session = Dataset.from_table(toy_persons_table).session()
        result = session.lowest_k("Cov", theta="9/10", direction="down")
        assert result.kind == "lowest_k"
        assert result.refinement.min_structuredness(session.function_for("Cov")) >= 0.9 - 1e-9
        from repro.core.search import lowest_k_refinement

        reference = lowest_k_refinement(
            toy_persons_table, coverage_rule(), theta=0.9, direction="down"
        )
        assert result.k == reference.k

    def test_rule_resolution(self):
        assert resolve_rule("Cov").name == "Cov"
        rule = resolve_rule("c = c -> val(c) = 1")
        assert resolve_rule(rule) is rule
        with pytest.raises(RequestError, match="unknown rule"):
            resolve_rule("NotARule")
        with pytest.raises(RequestError):
            resolve_rule(42)


class TestRequests:
    def test_parse_theta_accepts_fraction_strings(self):
        assert parse_theta("3/4") == pytest.approx(0.75)
        assert parse_theta("0.9") == pytest.approx(0.9)
        assert float(parse_theta(0.9)) == pytest.approx(0.9)

    @pytest.mark.parametrize("bad", ["1.5", "-0.1", "4/3", "three quarters", 1.01, -0.5])
    def test_parse_theta_rejects_out_of_range_and_garbage(self, bad):
        with pytest.raises(RequestError):
            parse_theta(bad)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), "nan", "inf", True, False]
    )
    def test_parse_theta_rejects_non_finite_values(self, bad):
        """NaN/inf (and bools) must raise RequestError, never leak through."""
        with pytest.raises(RequestError):
            parse_theta(bad)

    @pytest.mark.parametrize("bad", ["3/-4", "1/+2", "-3/-4", "3/0"])
    def test_parse_theta_rejects_signed_and_zero_denominators(self, bad):
        with pytest.raises(RequestError):
            parse_theta(bad)

    def test_refine_request_validation(self):
        with pytest.raises(RequestError):
            RefineRequest(k=0).validated()
        with pytest.raises(RequestError):
            RefineRequest(step="2").validated()
        with pytest.raises(RequestError):
            RefineRequest(step=0).validated()

    def test_lowest_k_request_validation(self):
        with pytest.raises(RequestError):
            LowestKRequest(direction="sideways").validated()
        with pytest.raises(RequestError):
            LowestKRequest(k_min=3, k_max=2).validated()
        validated = LowestKRequest(theta="3/4").validated()
        assert float(validated.theta) == pytest.approx(0.75)

    def test_sweep_request_validation(self):
        with pytest.raises(RequestError):
            SweepRequest(k_values=()).validated()
        with pytest.raises(RequestError):
            SweepRequest(k_values=(2, 0)).validated()

    def test_request_object_and_kwargs_are_exclusive(self, toy_persons_table):
        session = Dataset.from_table(toy_persons_table).session()
        with pytest.raises(RequestError):
            session.refine(RefineRequest(k=2), step=0.1)


class TestSolverRegistry:
    def test_builtin_backends_roundtrip(self):
        assert {"highs", "branch-and-bound"} <= set(solver_names())
        assert isinstance(get_solver("highs", time_limit=5.0), ScipyMilpSolver)
        assert isinstance(get_solver("branch-and-bound"), BranchAndBoundSolver)

    def test_unknown_name_rejected_with_known_names(self):
        with pytest.raises(ILPError, match="unknown solver 'cplex'") as excinfo:
            get_solver("cplex")
        message = str(excinfo.value)
        for name in solver_names():
            assert name in message

    def test_unknown_name_suggests_close_match(self):
        with pytest.raises(ILPError, match="did you mean 'highs'"):
            get_solver("hihgs")

    def test_resolve_solver_passes_instances_through(self):
        instance = BranchAndBoundSolver()
        assert resolve_solver(instance) is instance
        assert isinstance(resolve_solver(None, time_limit=1.0), ScipyMilpSolver)
        assert resolve_solver(None, time_limit=1.0).time_limit == 1.0
        with pytest.raises(ILPError):
            resolve_solver(object())

    def test_custom_registration_roundtrip(self):
        marker = BranchAndBoundSolver(max_nodes=7)
        register_solver("test-custom", lambda **options: marker)
        try:
            assert get_solver("test-custom") is marker
        finally:
            unregister_solver("test-custom")
        with pytest.raises(ILPError):
            get_solver("test-custom")

    @pytest.mark.parametrize("name", ["highs", "branch-and-bound"])
    def test_sessions_run_on_both_backends(self, toy_persons_table, name):
        session = Dataset.from_table(toy_persons_table).session(solver=name)
        result = session.refine("Cov", k=2, step=0.1)
        assert 0 <= result.theta <= 1
        assert result.refinement.k <= 2

    def test_search_functions_accept_solver_names(self, toy_persons_table):
        from repro.core.search import highest_theta_refinement

        by_name = highest_theta_refinement(
            toy_persons_table, coverage_rule(), k=2, step=0.1, solver="branch-and-bound"
        )
        by_instance = highest_theta_refinement(
            toy_persons_table, coverage_rule(), k=2, step=0.1, solver=BranchAndBoundSolver()
        )
        assert by_name.theta == pytest.approx(by_instance.theta)

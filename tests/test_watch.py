"""The live watch: differential correctness and incremental behaviour.

The load-bearing guarantee is *bit-identical σ on the incrementally
patched table*: every ``sigma`` event a :class:`~repro.api.WatchSession`
emits after a mutation must carry exactly the fraction a fresh dataset —
rebuilt from the mutated graph with no caches — would report.  The
differential harness below drives well over one hundred random mutation
scenarios through that check, for every σ path the watch takes: the
closed forms for Cov, Sim and Dep, and signature-level rule counting for
a custom multi-variable rule; a second harness does the same for
θ-tracked lowest-k results.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Dataset, WatchSession
from repro.functions.structuredness import sigma_by_signatures_fraction
from repro.rules import library
from repro.rdf.terms import Literal, Triple, URI
from repro.rules.parser import parse_rule
from repro.api.session import resolve_rule

#: A 2-variable rule that is *not* Sim: no closed form matches it, so the
#: watch evaluates it by signature-level rule counting.
FULL_RULE_TEXT = "not (c1 = c2) and prop(c1) = prop(c2) -> val(c1) = val(c2)"

#: A Dep[p1, p2]-shaped rule over two of the random graphs' properties:
#: the watch resolves it to the σDep closed form.
DEP_RULE_TEXT = library.dependency("http://w/p0", "http://w/p1").to_text()


def _random_graph_triples(rng: random.Random, n_subjects: int, n_properties: int):
    """A random property-presence graph: each subject gets 1..P properties."""
    triples = []
    for s in range(n_subjects):
        subject = URI(f"http://w/s{s}")
        properties = rng.sample(range(n_properties), rng.randint(1, n_properties))
        for p in properties:
            triples.append(
                Triple(subject, URI(f"http://w/p{p}"), Literal(f"v{s}.{p}"))
            )
    return triples


def _random_mutation(rng: random.Random, dataset: Dataset, n_properties: int):
    """A random add/remove batch over the dataset's current graph."""
    graph = dataset.graph
    current = list(graph)
    remove = rng.sample(current, rng.randint(0, min(3, len(current) - 1)))
    add = []
    for _ in range(rng.randint(0, 3)):
        s = rng.randrange(len(dataset.matrix.subjects) + 2)
        p = rng.randrange(n_properties + 1)  # may mint a brand-new property
        add.append(
            (f"http://w/s{s}", f"http://w/p{p}", f'"m{rng.randrange(10_000)}"')
        )
    return add, remove


def _fresh_sigma(dataset: Dataset, rule) -> str:
    """σ recomputed on a cache-free dataset built from the mutated graph."""
    fresh = Dataset.from_graph(dataset.graph.copy(), name="fresh")
    sigma = sigma_by_signatures_fraction(rule, fresh.table)
    return f"{sigma.numerator}/{sigma.denominator}"


class TestDifferentialSigma:
    """≥100 scenarios: every sigma event equals the fresh-dataset fraction."""

    @pytest.mark.parametrize("seed", range(10))
    def test_watch_sigma_matches_fresh_recompute(self, seed):
        rng = random.Random(seed)
        triples = _random_graph_triples(rng, n_subjects=20, n_properties=6)
        from repro.rdf.graph import RDFGraph

        dataset = Dataset.from_graph(RDFGraph(triples, name=f"diff-{seed}"))
        watch = WatchSession(dataset, ("Cov", "Sim", DEP_RULE_TEXT, FULL_RULE_TEXT))
        rules = {
            "Cov": resolve_rule("Cov"),
            "Sim": resolve_rule("Sim"),
            DEP_RULE_TEXT: parse_rule(DEP_RULE_TEXT),
            FULL_RULE_TEXT: parse_rule(FULL_RULE_TEXT),
        }
        # Each rule takes a different σ path: three closed forms and the
        # rule-counting fallback.
        assert [watch._rules[label].function.name for label in rules] == [
            "Cov", "Sim", "Dep[p0, p1]", FULL_RULE_TEXT,
        ]

        baseline = watch.poll()
        assert len(baseline) == len(rules)
        for event in baseline:
            assert event.sigma == _fresh_sigma(dataset, rules[event.rule])

        scenarios = 0
        # 12 mutation rounds per seed × 10 seeds = 120 mutation scenarios,
        # each checked differentially for all four rule shapes.
        for _ in range(12):
            add, remove = _random_mutation(rng, dataset, n_properties=6)
            result = dataset.mutate(add=add, remove=remove)
            events = watch.poll()
            if result.added == 0 and result.removed == 0:
                assert events == []  # no generation bump, nothing to observe
                continue
            scenarios += 1
            assert {e.rule for e in events} == set(rules)
            for event in events:
                assert event.kind == "sigma"
                assert event.generation == dataset.generation
                assert event.sigma == _fresh_sigma(dataset, rules[event.rule]), (
                    f"seed {seed}: incremental σ for {event.rule!r} drifted "
                    f"from the fresh recompute at generation {event.generation}"
                )
        assert scenarios >= 8  # the vast majority of random batches are real
        watch.close()


class TestDifferentialLowestK:
    def test_theta_tracked_lowest_k_matches_fresh_session(self):
        """Drift tracking: watch-internal lowest-k equals a cold session's."""
        rng = random.Random(99)
        triples = _random_graph_triples(rng, n_subjects=15, n_properties=5)
        from repro.rdf.graph import RDFGraph

        dataset = Dataset.from_graph(RDFGraph(triples, name="theta-diff"))
        watch = WatchSession(dataset, ("Cov",), theta="3/4")
        watch.poll()

        for round_no in range(8):
            add, remove = _random_mutation(rng, dataset, n_properties=5)
            result = dataset.mutate(add=add, remove=remove)
            if result.added == 0 and result.removed == 0:
                continue
            events = watch.poll()
            fresh = Dataset.from_graph(dataset.graph.copy(), name="fresh").session()
            expected = fresh.lowest_k("Cov", theta="3/4")
            # The watch's tracked k (drift event or silent agreement) must
            # equal the cold session's answer.
            state = watch._rules["Cov"]
            assert state.last_k == expected.k
            for event in events:
                if event.kind != "drift":
                    continue
                assert event.k == expected.k
                assert event.theta == "3/4"
                assert event.sort_sigmas == tuple(s.sigma for s in expected.sorts)
                assert event.covered_sorts == sum(
                    1 for s in expected.sorts if s.sigma >= 0.75
                )
            fresh.close()
        watch.close()

    def test_drift_fires_only_when_k_moves(self):
        dataset = Dataset.from_ntriples_text(
            '<http://x/a> <http://x/p> "1" .\n'
            '<http://x/a> <http://x/q> "1" .\n'
            '<http://x/b> <http://x/p> "1" .\n',
            name="drift",
        )
        # θ=9/10: the baseline (signatures {p,q} and {p}) needs k=2 sorts
        # to reach it, so the later collapse to one signature moves k.
        watch = WatchSession(dataset, ("Cov",), theta="9/10")
        baseline = watch.poll()
        # The baseline stores k silently: sigma event only, no drift.
        assert [e.kind for e in baseline] == ["sigma"]
        assert watch.stats["alerts"] == 0
        assert watch._rules["Cov"].last_k == 2

        # b gains q: the table becomes perfectly structured, k drops to 1.
        dataset.mutate(add=[("http://x/b", "http://x/q", '"1"')])
        events = watch.poll()
        kinds = [e.kind for e in events]
        assert kinds == ["sigma", "drift"]
        drift = events[1]
        assert (drift.previous_k, drift.k) == (2, 1)
        assert drift.theta == "9/10"
        assert watch.stats["alerts"] == 1

        # A mutation that leaves k alone must not re-alert.
        dataset.mutate(add=[("http://x/c", "http://x/p", '"1"'), ("http://x/c", "http://x/q", '"1"')])
        kinds = [e.kind for e in watch.poll()]
        assert kinds == ["sigma"]
        assert watch.stats["alerts"] == 1
        watch.close()


class TestWatchMechanics:
    @pytest.fixture
    def dataset(self):
        return Dataset.from_ntriples_text(
            '<http://x/a> <http://x/p> "1" .\n'
            '<http://x/a> <http://x/q> "1" .\n'
            '<http://x/b> <http://x/p> "1" .\n'
            '<http://x/c> <http://x/q> "1" .\n',
            name="mechanics",
        )

    def test_first_poll_is_the_baseline_and_repolls_are_free(self, dataset):
        watch = WatchSession(dataset, ("Cov",))
        events = watch.poll()
        assert len(events) == 1 and events[0].generation == 0
        assert events[0].previous_sigma is None and events[0].changed
        assert watch.poll() == []  # nothing moved
        assert watch.stats["polls"] == 2 and watch.stats["observations"] == 1

    def test_watch_sigma_equals_session_evaluate_at_the_same_generation(self, dataset):
        """``watch`` and ``evaluate`` share one σ path, so one answer."""
        watch = WatchSession(dataset, ("Cov", "Sim", FULL_RULE_TEXT))
        session = dataset.session()
        watch.poll()
        dataset.mutate(add=[("http://x/c", "http://x/p", '"1"')])
        events = watch.poll()
        assert {e.generation for e in events} == {dataset.generation} == {1}
        for event in events:
            assert event.previous_sigma is not None
            assert event.sigma == session.evaluate(event.rule, exact=True).exact
        session.close()
        watch.close()

    def test_listener_errors_are_isolated_and_counted(self, dataset):
        watch = WatchSession(dataset, ("Cov",))
        seen = []

        def bad(event):
            raise RuntimeError("listener bug")

        watch.subscribe(bad)
        watch.subscribe(seen.append)
        events = watch.poll()
        # The failing listener neither broke the poll nor starved the next one.
        assert seen == events
        assert watch.stats["listener_errors"] == 1

    def test_event_dict_schema_is_fixed(self, dataset):
        watch = WatchSession(dataset, ("Cov",))
        [event] = watch.poll()
        payload = event.to_dict()
        assert set(payload) == {
            "kind", "dataset", "generation", "rule", "sigma", "value",
            "previous_sigma", "changed", "theta", "k", "previous_k",
            "sort_sigmas", "covered_sorts",
        }
        heartbeat = watch.heartbeat().to_dict()
        assert set(heartbeat) == set(payload)
        assert heartbeat["kind"] == "heartbeat"
        assert watch.stats["heartbeats"] == 1

    def test_describe_reports_configuration_and_counters(self, dataset):
        watch = WatchSession(dataset, ("Cov", "Sim"), theta="1/2")
        watch.poll()
        description = watch.describe()
        assert set(description) == {"dataset", "generation", "rules", "theta", "stats"}
        assert description["dataset"] == "mechanics"
        assert description["rules"] == ["Cov", "Sim"]
        assert description["theta"] == "1/2"
        assert description["stats"] == {
            "polls": 1, "observations": 1, "events": 2, "alerts": 0,
            "heartbeats": 0, "listener_errors": 0,
        }
        watch.close()

    def test_add_rule_labels_and_duplicates(self, dataset):
        watch = WatchSession(dataset, ("Cov",))
        assert watch.add_rule("Sim") == "Sim"
        assert watch.add_rule("Sim") == "Sim"  # idempotent
        label = watch.add_rule(FULL_RULE_TEXT)
        assert label == FULL_RULE_TEXT
        assert watch.rules == ("Cov", "Sim", FULL_RULE_TEXT)

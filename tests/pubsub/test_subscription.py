"""Tests for subscriptions and predicates."""

import pytest

from repro.core.errors import SubscriptionError
from repro.pubsub.subscription import Subscription


class TestSubscription:
    def test_subject_match(self):
        sub = Subscription("slashdot/tech")
        assert sub.matches_subject("slashdot/tech")
        assert not sub.matches_subject("slashdot/games")

    def test_empty_subject_rejected(self):
        with pytest.raises(SubscriptionError):
            Subscription("")

    def test_matches_without_predicate(self):
        sub = Subscription("tech")
        assert sub.matches("tech", {})

    def test_predicate_narrows(self):
        sub = Subscription("tech", "urgency <= 3")
        assert sub.matches("tech", {"urgency": 2})
        assert not sub.matches("tech", {"urgency": 7})

    def test_wrong_subject_short_circuits_predicate(self):
        sub = Subscription("tech", "urgency <= 3")
        assert not sub.matches("games", {"urgency": 1})

    def test_bad_predicate_rejected_at_construction(self):
        with pytest.raises(SubscriptionError):
            Subscription("tech", "SELECT broken")
        with pytest.raises(SubscriptionError):
            Subscription("tech", "SUM(x) > 1")  # aggregates not allowed

    def test_non_aql_compile_failure_propagates(self, monkeypatch):
        """Only the AQL compiler's own errors become SubscriptionError; a
        fault of any other kind is a bug and must surface as itself."""
        import repro.pubsub.subscription as subscription_module

        def broken(source):
            raise RuntimeError("compiler bug")

        monkeypatch.setattr(subscription_module, "compile_predicate", broken)
        with pytest.raises(RuntimeError):
            Subscription("tech", "x = 1")

    def test_predicate_error_on_item_means_no_match(self):
        """A poisoned item must not crash the subscriber (§6's final
        test runs on untrusted data)."""
        sub = Subscription("tech", "wordcount / otherfield > 1")
        assert not sub.matches("tech", {"wordcount": 10, "otherfield": 0})

    def test_keyword_containment_predicate(self):
        sub = Subscription("tech", "CONTAINS(keywords, 'ai')")
        assert sub.matches("tech", {"keywords": ("ai", "ml")})
        assert not sub.matches("tech", {"keywords": ("db",)})

    def test_equality_and_hash(self):
        assert Subscription("a") == Subscription("a")
        assert Subscription("a", "x = 1") != Subscription("a")
        assert len({Subscription("a"), Subscription("a")}) == 1

    def test_repr(self):
        assert "tech" in repr(Subscription("tech"))
